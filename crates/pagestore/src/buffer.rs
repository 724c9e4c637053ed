//! Buffer pool: a fixed number of page frames over a [`DiskManager`],
//! with LRU eviction and dirty-page write-back.
//!
//! Access is closure-based (`with_page` / `with_page_mut`) so pages cannot
//! outlive their frame; the pool latch (`parking_lot::Mutex`) is held for
//! the duration of the closure, which is fine for the short record-level
//! operations the index layers perform.
//!
//! For the durability layer the pool additionally tracks the set of page
//! ids *modified since the last [`BufferPool::take_modified`]* — a strict
//! superset of the currently-dirty frames, because a dirty frame may have
//! been evicted (written back) in between. Commit uses that set to decide
//! which page images go into the WAL; checkpoints therefore only rewrite
//! pages touched since the previous checkpoint instead of the whole store.

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use flixobs::Counter;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

struct Frame {
    page: Page,
    dirty: bool,
    last_used: u64,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    tick: u64,
    /// Page ids written through [`BufferPool::with_page_mut`] since the last
    /// [`BufferPool::take_modified`]. Survives eviction of the frame.
    modified: BTreeSet<PageId>,
    /// First write-back error since the last [`BufferPool::flush_all`].
    /// Eviction happens inside `with_page*` closures whose return type is
    /// caller-chosen, so the error is parked here and surfaced at the next
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
    capacity: usize,
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
            capacity,
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                tick: 0,
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

    fn load<'a>(&self, inner: &'a mut PoolInner, id: PageId) -> &'a mut Frame {
        inner.tick += 1;
        let tick = inner.tick;
        if inner.frames.contains_key(&id) {
            self.hits.inc();
        } else {
            self.misses.inc();
            if inner.frames.len() >= self.capacity {
                // Evict the least recently used frame (present whenever the
                // pool is at capacity, since capacity > 0).
                let victim = inner
                    .frames
                    .iter()
                    .min_by_key(|(_, f)| f.last_used)
                    .map(|(&pid, _)| pid);
                if let Some(victim) = victim {
                    if let Some(frame) = inner.frames.remove(&victim) {
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
                }
            }
        }
        // Hit or miss, the entry API ensures the frame in one lookup.
        let frame = inner.frames.entry(id).or_insert_with(|| Frame {
            page: self.disk.read_page(id),
            dirty: false,
            last_used: 0,
        });
        frame.last_used = tick;
        frame
    }

    /// Runs `f` with read access to page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> R {
        let mut inner = self.inner.lock();
        let frame = self.load(&mut inner, id);
        f(&frame.page)
    }

    /// Runs `f` with write access to page `id`; the frame is marked dirty
    /// and the page joins the modified set (see [`Self::take_modified`]).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> R {
        let mut inner = self.inner.lock();
        let frame = self.load(&mut inner, id);
        frame.dirty = true;
        let out = f(&mut frame.page);
        inner.modified.insert(id);
        out
    }

    /// Allocates a fresh page on the backing disk.
    pub fn allocate(&self) -> PageId {
        self.disk.allocate()
    }

    /// Drains and returns the ids of every page modified since the last
    /// call (in ascending order). This is the commit granule: the WAL
    /// records a page image for each id returned here, whether or not the
    /// frame is still resident.
    pub fn take_modified(&self) -> Vec<PageId> {
        let mut inner = self.inner.lock();
        std::mem::take(&mut inner.modified).into_iter().collect()
    }

    /// Ids of pages modified since the last [`Self::take_modified`],
    /// without draining the set.
    pub fn modified_pages(&self) -> Vec<PageId> {
        self.inner.lock().modified.iter().copied().collect()
    }

    /// Removes exactly `ids` from the modified set. The commit path uses
    /// this instead of [`Self::take_modified`] so that a failed commit
    /// leaves the set intact (nothing is forgotten) and pages modified
    /// concurrently with the commit stay tracked for the next one.
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
        let mut dirty: Vec<PageId> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        dirty.sort_unstable();
        for id in dirty {
            // The id came out of `frames` under the same lock; absence is
            // unreachable, so skipping is strictly safer than panicking.
            let Some(frame) = inner.frames.get_mut(&id) else {
                continue;
            };
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
        audit.check(
            "resident frames never exceed capacity",
            inner.frames.len() <= self.capacity,
            || {
                format!(
                    "{} frames resident, capacity {}",
                    inner.frames.len(),
                    self.capacity
                )
            },
        );
        let mut ahead = None;
        for (&id, frame) in &inner.frames {
            if frame.last_used > inner.tick {
                ahead = Some(format!(
                    "page {id} last used at tick {} but the pool clock is {}",
                    frame.last_used, inner.tick
                ));
                break;
            }
        }
        audit.check(
            "frame LRU stamps never run ahead of the pool clock",
            ahead.is_none(),
            || ahead.unwrap_or_default(),
        );
        let mut untracked = None;
        for (&id, frame) in &inner.frames {
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
        for (&id, frame) in &inner.frames {
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

    #[test]
    fn read_through_and_cache() {
        let p = pool(4);
        let id = p.allocate();
        p.with_page_mut(id, |pg| {
            pg.insert(b"cached").unwrap();
        });
        let got = p.with_page(id, |pg| pg.get(0).map(<[u8]>::to_vec));
        assert_eq!(got.as_deref(), Some(&b"cached"[..]));
        let s = p.pool_stats();
        assert_eq!(s.misses, 1); // only the first touch
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| {
                pg.insert(format!("rec{i}").as_bytes()).unwrap();
            });
        }
        // Pool held only 2 frames; earlier pages must have been evicted and
        // written back, so reading them again returns the data.
        for (i, &id) in ids.iter().enumerate() {
            let got = p.with_page(id, |pg| pg.get(0).map(<[u8]>::to_vec));
            assert_eq!(got, Some(format!("rec{i}").into_bytes()));
        }
    }

    #[test]
    fn lru_keeps_hot_page() {
        let p = pool(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate();
        p.with_page_mut(a, |pg| {
            pg.insert(b"a").unwrap();
        });
        p.with_page_mut(b, |pg| {
            pg.insert(b"b").unwrap();
        });
        p.with_page(a, |_| {}); // touch a: b is now LRU
        p.with_page(c, |_| {}); // evicts b
        let before = p.pool_stats();
        p.with_page(a, |_| {}); // must be a hit
        let after = p.pool_stats();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 8);
        let id = p.allocate();
        p.with_page_mut(id, |pg| {
            pg.insert(b"flushed").unwrap();
        });
        assert_eq!(p.flush_all().unwrap(), 1);
        // Read directly from disk, bypassing the pool.
        assert_eq!(disk.read_page(id).get(0), Some(&b"flushed"[..]));
        // Nothing dirty remains, so a second flush writes nothing.
        assert_eq!(p.flush_all().unwrap(), 0);
    }

    #[test]
    fn modified_set_survives_eviction_and_drains() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| {
                pg.insert(format!("m{i}").as_bytes()).unwrap();
            });
        }
        // Two of the four were evicted (and written back), but all four are
        // still reported as modified since the last drain.
        assert_eq!(p.modified_pages(), ids);
        assert_eq!(p.take_modified(), ids);
        assert!(p.take_modified().is_empty(), "drain resets the set");
        p.with_page(ids[0], |_| {});
        assert!(p.take_modified().is_empty(), "reads do not mark pages");
        p.with_page_mut(ids[1], |_| {});
        assert_eq!(p.take_modified(), vec![ids[1]]);
    }

    /// A disk that fails every write after the first `ok_writes`.
    struct FlakyDisk {
        inner: MemDisk,
        ok_writes: std::sync::atomic::AtomicU64,
    }

    impl DiskManager for FlakyDisk {
        fn read_page(&self, id: PageId) -> Page {
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

    #[test]
    fn flush_all_propagates_write_errors() {
        let disk = Arc::new(FlakyDisk {
            inner: MemDisk::new(),
            ok_writes: std::sync::atomic::AtomicU64::new(0),
        });
        let p = BufferPool::new(disk, 8);
        let id = p.allocate();
        p.with_page_mut(id, |pg| {
            pg.insert(b"doomed").unwrap();
        });
        let err = p.flush_all().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
        assert_eq!(p.pool_stats().write_errors, 1);
    }

    #[test]
    fn eviction_write_errors_surface_at_next_flush() {
        let disk = Arc::new(FlakyDisk {
            inner: MemDisk::new(),
            ok_writes: std::sync::atomic::AtomicU64::new(0),
        });
        let p = BufferPool::new(disk, 1);
        let a = p.allocate();
        let b = p.allocate();
        p.with_page_mut(a, |pg| {
            pg.insert(b"a").unwrap();
        });
        // Touching b evicts dirty a; the write-back fails silently at the
        // call site but is deferred...
        p.with_page(b, |_| {});
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
        let disk = Arc::new(FlakyDisk {
            inner: MemDisk::new(),
            ok_writes: std::sync::atomic::AtomicU64::new(0),
        });
        let p = BufferPool::new(disk, 1);
        let a = p.allocate();
        let b = p.allocate();
        p.with_page_mut(a, |pg| {
            pg.insert(b"a").unwrap();
        });
        p.with_page(b, |_| {}); // evicts dirty a, write fails
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
            p.with_page(id, |_| {});
        }
        let s = p.pool_stats();
        assert_eq!(s.misses, 4, "every first touch misses");
        assert_eq!(disk.stats().reads, 4, "and reads its page from disk");
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, 2, "4 pages through 2 frames displace 2");
        p.with_page(ids[3], |_| {}); // still resident
        assert_eq!(p.pool_stats().hits, 1);
        assert_eq!(p.pool_stats().evictions, 2, "hits never evict");
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let p = pool(2);
        let a = p.allocate();
        p.with_page_mut(a, |pg| {
            pg.insert(b"live").unwrap();
        });
        p.integrity_check().unwrap();

        // An LRU stamp from the future.
        {
            let mut inner = p.inner.lock();
            inner.frames.get_mut(&a).unwrap().last_used = u64::MAX;
        }
        assert!(p.integrity_check().is_err());
        {
            let mut inner = p.inner.lock();
            let tick = inner.tick;
            inner.frames.get_mut(&a).unwrap().last_used = tick;
        }
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

        // More resident frames than the pool has capacity for.
        {
            let mut inner = p.inner.lock();
            for id in 100..103u32 {
                inner.frames.insert(
                    id,
                    Frame {
                        page: Page::new(),
                        dirty: false,
                        last_used: 0,
                    },
                );
            }
        }
        assert!(p.integrity_check().is_err());
    }

    /// Four threads share one pool smaller than their pages, so eviction
    /// write-back and `flush_all` run under the pool latch while the disk
    /// takes its own lock (pool before disk, the order DESIGN.md §9
    /// records). Each thread owns four pages and appends one record per
    /// round to one of them; it also reads the others' pages and flushes
    /// now and then. Every thread must finish, and after a final flush
    /// every page must hold exactly its owner's records, in order.
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
                            pool.with_page_mut(own, |pg| {
                                pg.insert(format!("{t}:{round}").as_bytes()).unwrap();
                            });
                            let other = ids[(round * 7 + t) % ids.len()];
                            pool.with_page(other, |pg| {
                                assert!(pg.records().all(|(_, r)| r.contains(&b':')));
                            });
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
                let want: Vec<Vec<u8>> = (slot..ROUNDS)
                    .step_by(PAGES_EACH)
                    .map(|round| format!("{t}:{round}").into_bytes())
                    .collect();
                let on_disk = disk.read_page(id);
                let got: Vec<Vec<u8>> = on_disk.records().map(|(_, r)| r.to_vec()).collect();
                assert_eq!(got, want, "page {id} on disk");
                let last = pool.with_page(id, |pg| pg.records().last().map(|(_, r)| r.to_vec()));
                assert_eq!(last.as_ref(), want.last(), "page {id} through the pool");
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
