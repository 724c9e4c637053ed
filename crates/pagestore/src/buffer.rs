//! Buffer pool: a fixed number of page frames over a [`DiskManager`],
//! with LRU eviction and dirty-page write-back.
//!
//! Reads are closure-based ([`BufferPool::with_page`]) so a page cannot
//! outlive its frame; the pool latch (`parking_lot::Mutex`) is held for
//! the duration of the closure, which is fine for the short chunk-level
//! operations the index layers perform. Writes take a whole page
//! ([`BufferPool::write`]): the pool installs it without reading the page
//! it replaces.
//!
//! For the durability layer the pool additionally tracks the set of page
//! ids *modified since they were last cleared* ([`BufferPool::modified_pages`],
//! [`BufferPool::clear_modified`]) — a strict superset of the
//! currently-dirty frames, because a dirty frame may have been evicted
//! (written back) in between. Commit uses that set to decide which page
//! images go into the WAL; checkpoints therefore only rewrite pages
//! touched since the previous checkpoint instead of the whole store.

use crate::disk::DiskManager;
use crate::lru::Lru;
use crate::page::{Page, PageId};
use flixobs::Counter;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

struct Frame {
    page: Page,
    dirty: bool,
}

struct PoolInner {
    frames: Lru<PageId, Frame>,
    /// Page ids written through [`BufferPool::write`] and not yet cleared
    /// by [`BufferPool::clear_modified`]. Survives eviction of the frame.
    modified: BTreeSet<PageId>,
    /// First write-back error since the last [`BufferPool::flush_all`].
    /// Eviction happens inside `with_page` and `write`, whose callers get
    /// no I/O result, so the error is parked here and surfaced at the next
    /// flush instead of being silently dropped.
    deferred_error: Option<String>,
}

/// Point-in-time buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to read through to disk.
    pub misses: u64,
    /// Frames displaced by LRU pressure at capacity (dirty victims are
    /// written back first).
    pub evictions: u64,
    /// Write-backs (eviction or flush) that returned an I/O error.
    pub write_errors: u64,
}

/// A latching LRU buffer pool.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    inner: Mutex<PoolInner>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    write_errors: Counter,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `disk`.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            disk,
            inner: Mutex::new(PoolInner {
                frames: Lru::new(capacity),
                modified: BTreeSet::new(),
                deferred_error: None,
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            write_errors: Counter::new(),
        }
    }

    /// The backing disk.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Makes `frame` the most recently used frame of page `id`. A dirty
    /// frame evicted for it is written back; a frame it replaces under the
    /// same id is dropped, since `frame` supersedes it.
    fn install(&self, inner: &mut PoolInner, id: PageId, frame: Frame) {
        let Some((victim, frame)) = inner.frames.insert(id, frame).filter(|&(v, _)| v != id) else {
            return;
        };
        self.evictions.inc();
        if frame.dirty {
            if let Err(err) = self.disk.write_page(victim, &frame.page) {
                self.write_errors.inc();
                inner
                    .deferred_error
                    .get_or_insert(format!("write-back of page {victim}: {err}"));
            }
        }
    }

    /// Runs `f` with read access to page `id`, reading it from the disk
    /// first if no frame holds it.
    ///
    /// # Errors
    /// If the disk fails to read the page. The read comes before any
    /// eviction, so a failed one leaves the pool as it found it: no frame
    /// for `id`, and none pushed out for it.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> std::io::Result<R> {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get(&id) {
            self.hits.inc();
            return Ok(f(&frame.page));
        }
        self.misses.inc();
        let page = self.disk.read_page(id)?;
        let out = f(&page);
        self.install(&mut inner, id, Frame { page, dirty: false });
        Ok(out)
    }

    /// Makes `page` the content of page `id`: the frame is marked dirty and
    /// the page joins the modified set. The page it replaces is not read;
    /// a write counts as neither a hit nor a miss.
    pub fn write(&self, id: PageId, page: Page) {
        let mut inner = self.inner.lock();
        self.install(&mut inner, id, Frame { page, dirty: true });
        inner.modified.insert(id);
    }

    /// Allocates a fresh page on the backing disk.
    pub fn allocate(&self) -> PageId {
        self.disk.allocate()
    }

    /// Ids of pages written since they were last cleared by
    /// [`Self::clear_modified`], in ascending order. This is the commit
    /// granule: the WAL records a page image for each id returned here,
    /// whether or not the frame is still resident.
    pub fn modified_pages(&self) -> Vec<PageId> {
        self.inner.lock().modified.iter().copied().collect()
    }

    /// Removes exactly `ids` from the modified set. The commit path calls
    /// this only once its batch is durable, so a failed commit leaves the
    /// set intact (nothing is forgotten) and pages modified concurrently
    /// with the commit stay tracked for the next one.
    pub fn clear_modified(&self, ids: &[PageId]) {
        let mut inner = self.inner.lock();
        for id in ids {
            inner.modified.remove(id);
        }
    }

    /// Surfaces (and consumes) any eviction write-back error deferred since
    /// the last check, without flushing. Commit paths call this before
    /// trusting read-through page images: a failed write-back means the
    /// disk copy of an evicted page is stale and the in-pool copy is gone.
    pub fn check_write_health(&self) -> std::io::Result<()> {
        match self.inner.lock().deferred_error.take() {
            Some(msg) => Err(std::io::Error::other(format!(
                "deferred eviction error: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// Writes all dirty frames back to disk and returns how many pages were
    /// written. Fails on the first write error, and also surfaces any
    /// eviction write-back error deferred since the previous flush (the
    /// frames flushed before the failure stay clean; the failing frame
    /// stays dirty so a retry re-attempts it).
    pub fn flush_all(&self) -> std::io::Result<usize> {
        let mut inner = self.inner.lock();
        if let Some(msg) = inner.deferred_error.take() {
            return Err(std::io::Error::other(format!(
                "deferred eviction error: {msg}"
            )));
        }
        let mut written = 0;
        // Deterministic order so a partial flush is reproducible in tests.
        let mut dirty: Vec<(PageId, &mut Frame)> =
            inner.frames.iter_mut().filter(|(_, f)| f.dirty).collect();
        dirty.sort_unstable_by_key(|&(id, _)| id);
        for (id, frame) in dirty {
            if let Err(err) = self.disk.write_page(id, &frame.page) {
                self.write_errors.inc();
                return Err(err);
            }
            frame.dirty = false;
            written += 1;
        }
        Ok(written)
    }

    /// All pool counters, including LRU evictions and write errors.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            write_errors: self.write_errors.get(),
        }
    }
}

impl flixcheck::IntegrityCheck for BufferPool {
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("BufferPool");
        let inner = self.inner.lock();
        let fault = inner.frames.fault();
        audit.check(
            "the frame table holds at most its capacity, none ahead of its clock",
            fault.is_none(),
            || fault.unwrap_or_default(),
        );
        let mut untracked = None;
        for (id, frame) in inner.frames.iter() {
            if frame.dirty && !inner.modified.contains(&id) {
                untracked = Some(format!("page {id} is dirty but not in the modified set"));
                break;
            }
        }
        audit.check(
            "every dirty frame is tracked in the modified set",
            untracked.is_none(),
            || untracked.unwrap_or_default(),
        );
        let mut bad_page = None;
        for (id, frame) in inner.frames.iter() {
            if let Err(err) = frame.page.integrity_check() {
                bad_page = Some(format!("page {id}: {err}"));
                break;
            }
        }
        audit.check(
            "every resident page passes its own audit",
            bad_page.is_none(),
            || bad_page.unwrap_or_default(),
        );
        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskStats, MemDisk};

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), cap)
    }

    fn holding(chunk: &[u8]) -> Page {
        Page::holding(chunk).unwrap()
    }

    fn chunk_of(pg: &Page) -> Option<Vec<u8>> {
        pg.chunk().map(<[u8]>::to_vec)
    }

    #[test]
    fn read_through_and_cache() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 4);
        let id = p.allocate();
        disk.write_page(id, &holding(b"cached")).unwrap();
        for _ in 0..2 {
            assert_eq!(
                p.with_page(id, chunk_of).unwrap().as_deref(),
                Some(&b"cached"[..])
            );
        }
        let s = p.pool_stats();
        assert_eq!(s.misses, 1); // only the first touch
        assert_eq!(s.hits, 1);
        assert_eq!(disk.stats().reads, 1);
    }

    /// A write installs the whole page: it reads nothing from disk and
    /// counts as neither a hit nor a miss, and a read after it is a hit.
    #[test]
    fn write_reads_nothing_it_replaces() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 4);
        let id = p.allocate();
        p.write(id, holding(b"fresh"));
        assert_eq!(p.pool_stats(), PoolStats::default());
        assert_eq!(disk.stats().reads, 0);
        assert_eq!(
            p.with_page(id, chunk_of).unwrap().as_deref(),
            Some(&b"fresh"[..])
        );
        assert_eq!(p.pool_stats().hits, 1);
        p.write(id, holding(b"again"));
        assert_eq!(
            p.with_page(id, chunk_of).unwrap().as_deref(),
            Some(&b"again"[..])
        );
        assert_eq!(p.pool_stats().misses, 0);
        assert_eq!(disk.stats().reads, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, holding(format!("rec{i}").as_bytes()));
        }
        // Pool held only 2 frames; earlier pages must have been evicted and
        // written back, so reading them again returns the data.
        for (i, &id) in ids.iter().enumerate() {
            let got = p.with_page(id, chunk_of).unwrap();
            assert_eq!(got, Some(format!("rec{i}").into_bytes()));
        }
    }

    #[test]
    fn lru_keeps_hot_page() {
        let p = pool(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate();
        p.write(a, holding(b"a"));
        p.write(b, holding(b"b"));
        p.with_page(a, |_| {}).unwrap(); // touch a: b is now LRU
        p.with_page(c, |_| {}).unwrap(); // evicts b
        let before = p.pool_stats();
        p.with_page(a, |_| {}).unwrap(); // must be a hit
        let after = p.pool_stats();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 8);
        let id = p.allocate();
        p.write(id, holding(b"flushed"));
        assert_eq!(p.flush_all().unwrap(), 1);
        // Read directly from disk, bypassing the pool.
        assert_eq!(disk.read_page(id).unwrap().chunk(), Some(&b"flushed"[..]));
        // Nothing dirty remains, so a second flush writes nothing.
        assert_eq!(p.flush_all().unwrap(), 0);
    }

    #[test]
    fn modified_set_survives_eviction_and_drains() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, holding(format!("m{i}").as_bytes()));
        }
        // Two of the four were evicted (and written back), but all four are
        // still reported as modified until cleared.
        assert_eq!(p.modified_pages(), ids);
        p.clear_modified(&ids[..1]);
        assert_eq!(p.modified_pages(), ids[1..], "only the ids given clear");
        p.clear_modified(&ids);
        assert!(p.modified_pages().is_empty());
        p.with_page(ids[0], |_| {}).unwrap();
        assert!(p.modified_pages().is_empty(), "reads do not mark pages");
        p.write(ids[1], holding(b"m1 again"));
        assert_eq!(p.modified_pages(), vec![ids[1]]);
    }

    /// A disk that fails every write after the first `ok_writes`, and
    /// every read while `failing_reads` is set.
    #[derive(Default)]
    struct FlakyDisk {
        inner: MemDisk,
        ok_writes: std::sync::atomic::AtomicU64,
        failing_reads: std::sync::atomic::AtomicBool,
    }

    impl DiskManager for FlakyDisk {
        fn read_page(&self, id: PageId) -> std::io::Result<Page> {
            if self.failing_reads.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("unreadable sector"));
            }
            self.inner.read_page(id)
        }
        fn write_page(&self, id: PageId, page: &Page) -> std::io::Result<()> {
            use std::sync::atomic::Ordering;
            let left = self
                .ok_writes
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok();
            if left {
                self.inner.write_page(id, page)
            } else {
                Err(std::io::Error::other("disk full"))
            }
        }
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn stats(&self) -> DiskStats {
            self.inner.stats()
        }
        fn sync(&self) -> std::io::Result<()> {
            self.inner.sync()
        }
    }

    /// A failed read is the caller's error, counted as a miss; it leaves
    /// no frame behind and pushes none out, so the page is read again,
    /// and read right, once the disk recovers.
    #[test]
    fn a_failed_read_is_an_error_and_leaves_no_frame() {
        use std::sync::atomic::Ordering;
        let disk = Arc::new(FlakyDisk::default());
        disk.ok_writes.store(u64::MAX, Ordering::SeqCst);
        let p = BufferPool::new(disk.clone(), 2);
        let ids: Vec<PageId> = (0..3).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, holding(format!("p{i}").as_bytes()));
        }
        p.flush_all().unwrap();
        let resident = |p: &BufferPool| {
            let inner = p.inner.lock();
            inner.frames.iter().map(|(id, _)| id).collect::<Vec<_>>()
        };
        let before = resident(&p);
        assert!(!before.contains(&ids[0]), "written first, evicted first");
        disk.failing_reads.store(true, Ordering::SeqCst);
        let err = p.with_page(ids[0], chunk_of).unwrap_err();
        assert!(err.to_string().contains("unreadable sector"), "{err}");
        assert_eq!(resident(&p), before);
        assert_eq!(p.pool_stats().evictions, 1);
        disk.failing_reads.store(false, Ordering::SeqCst);
        assert_eq!(
            p.with_page(ids[0], chunk_of).unwrap().as_deref(),
            Some(&b"p0"[..])
        );
        assert_eq!(p.pool_stats().misses, 2);
    }

    #[test]
    fn flush_all_propagates_write_errors() {
        let disk = Arc::new(FlakyDisk::default());
        let p = BufferPool::new(disk, 8);
        let id = p.allocate();
        p.write(id, holding(b"doomed"));
        let err = p.flush_all().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
        assert_eq!(p.pool_stats().write_errors, 1);
    }

    #[test]
    fn eviction_write_errors_surface_at_next_flush() {
        let disk = Arc::new(FlakyDisk::default());
        let p = BufferPool::new(disk, 1);
        let a = p.allocate();
        let b = p.allocate();
        p.write(a, holding(b"a"));
        // Touching b evicts dirty a; the write-back fails silently at the
        // call site but is deferred...
        p.with_page(b, |_| {}).unwrap();
        assert_eq!(p.pool_stats().write_errors, 1);
        // ...and surfaces at the next flush.
        let err = p.flush_all().unwrap_err();
        assert!(err.to_string().contains("deferred eviction error"), "{err}");
        // The deferred error was consumed; nothing dirty is resident, so a
        // further flush succeeds (the lost page is the caller's problem —
        // the commit layer aborts on the surfaced error).
        assert_eq!(p.flush_all().unwrap(), 0);
        assert!(p.check_write_health().is_ok());
    }

    #[test]
    fn check_write_health_consumes_deferred_errors() {
        let disk = Arc::new(FlakyDisk::default());
        let p = BufferPool::new(disk, 1);
        let a = p.allocate();
        let b = p.allocate();
        p.write(a, holding(b"a"));
        p.with_page(b, |_| {}).unwrap(); // evicts dirty a, write fails
        assert!(p.check_write_health().is_err());
        assert!(p.check_write_health().is_ok(), "error is consumed");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        pool(0);
    }

    #[test]
    fn evictions_are_counted_next_to_hits_and_misses() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for &id in &ids {
            p.with_page(id, |_| {}).unwrap();
        }
        let s = p.pool_stats();
        assert_eq!(s.misses, 4, "every first touch misses");
        assert_eq!(disk.stats().reads, 4, "and reads its page from disk");
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, 2, "4 pages through 2 frames displace 2");
        p.with_page(ids[3], |_| {}).unwrap(); // still resident
        assert_eq!(p.pool_stats().hits, 1);
        assert_eq!(p.pool_stats().evictions, 2, "hits never evict");
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let p = pool(2);
        let a = p.allocate();
        p.write(a, holding(b"live"));
        p.integrity_check().unwrap();

        // A dirty frame missing from the modified set.
        {
            let mut inner = p.inner.lock();
            inner.modified.remove(&a);
        }
        assert!(p.integrity_check().is_err());
        {
            let mut inner = p.inner.lock();
            inner.modified.insert(a);
        }
        p.integrity_check().unwrap();
    }

    /// Four threads share one pool smaller than their pages, so eviction
    /// write-back and `flush_all` run under the pool latch while the disk
    /// takes its own lock (pool before disk, the order DESIGN.md §9
    /// records). Each thread owns four pages and rewrites one of them per
    /// round; it also reads the others' pages and flushes now and then.
    /// Every thread must finish, and after a final flush every page must
    /// hold the chunk its owner wrote to it last.
    #[test]
    fn threads_share_a_pool_smaller_than_their_pages() {
        const THREADS: usize = 4;
        const PAGES_EACH: usize = 4;
        const ROUNDS: usize = 60;

        fn hammer(disk: Arc<dyn DiskManager>) {
            let pool = Arc::new(BufferPool::new(disk.clone(), 3));
            let ids: Arc<Vec<PageId>> =
                Arc::new((0..THREADS * PAGES_EACH).map(|_| pool.allocate()).collect());
            let (done_tx, done_rx) = std::sync::mpsc::sync_channel(THREADS);
            let start = Arc::new(std::sync::Barrier::new(THREADS));
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (pool, ids, done_tx) = (pool.clone(), ids.clone(), done_tx.clone());
                    let start = start.clone();
                    std::thread::spawn(move || {
                        start.wait();
                        for round in 0..ROUNDS {
                            let own = ids[t * PAGES_EACH + round % PAGES_EACH];
                            pool.write(own, holding(format!("{t}:{round}").as_bytes()));
                            let other = ids[(round * 7 + t) % ids.len()];
                            // Blank until its owner first writes it.
                            let chunk = pool.with_page(other, chunk_of).unwrap();
                            assert!(
                                chunk.as_ref().is_none_or(|c| c.contains(&b':')),
                                "{chunk:?}"
                            );
                            if round % 9 == t {
                                pool.flush_all().unwrap();
                            }
                        }
                        done_tx.send(t).unwrap();
                    })
                })
                .collect();
            drop(done_tx);
            for _ in 0..THREADS {
                use std::sync::mpsc::RecvTimeoutError;
                match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
                    Ok(_) => {}
                    Err(RecvTimeoutError::Timeout) => panic!("a thread did not finish: deadlock?"),
                    // A worker panicked; its join below reports why.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            for worker in workers {
                worker.join().unwrap();
            }
            pool.flush_all().unwrap();
            assert!(pool.pool_stats().evictions > 0, "the pool never evicted");
            for (i, &id) in ids.iter().enumerate() {
                let (t, slot) = (i / PAGES_EACH, i % PAGES_EACH);
                let last = (slot..ROUNDS).step_by(PAGES_EACH).next_back().unwrap();
                let want = Some(format!("{t}:{last}").into_bytes());
                assert_eq!(
                    chunk_of(&disk.read_page(id).unwrap()),
                    want,
                    "page {id} on disk"
                );
                assert_eq!(
                    pool.with_page(id, chunk_of).unwrap(),
                    want,
                    "page {id} through the pool"
                );
            }
        }

        hammer(Arc::new(MemDisk::new()));
        let dir = std::env::temp_dir().join(format!("pagestore-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.db");
        let _ = std::fs::remove_file(&path);
        hammer(Arc::new(crate::disk::FileDisk::open(&path).unwrap()));
        std::fs::remove_file(&path).unwrap();
    }
}
