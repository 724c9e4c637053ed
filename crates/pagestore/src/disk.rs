//! Disk abstraction with I/O accounting.
//!
//! Two implementations: [`MemDisk`] (a `Vec` of frames, used by tests and
//! the in-memory experiment mode) and [`FileDisk`] (one flat file, page id
//! times page size addressing). Both count physical reads, writes, and
//! syncs so the benchmark harness can report I/O alongside wall-clock time —
//! the paper's absolute numbers are dominated by database round trips, and
//! the I/O counters are our substitute signal for that cost.
//!
//! Reads and writes are fallible (`io::Result`): a page the disk could not
//! read is an error, never a page of zeroes, and writes are fallible so the
//! durability layer above
//! ([`crate::recovery::DurableStore`]) can distinguish "durable" from
//! "probably fine". [`DiskManager::sync`] is the barrier the checkpoint
//! protocol leans on: a checkpoint manifest is only published after the
//! data file has been fsynced.

use crate::page::{Page, PageId, PAGE_SIZE};
use flixobs::Counter;
use parking_lot::Mutex;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Physical I/O counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Pages read from the backing store.
    pub reads: u64,
    /// Pages written to the backing store.
    pub writes: u64,
    /// Durability barriers ([`DiskManager::sync`]) issued. `MemDisk` counts
    /// them without doing anything, so tests can assert sync *ordering*
    /// (e.g. "the data disk was synced before the WAL was truncated").
    pub syncs: u64,
}

/// A page-granular backing store.
pub trait DiskManager: Send + Sync {
    /// Reads page `id`. Reading a never-written page yields a zero page.
    ///
    /// # Errors
    /// If the backing store fails to read the page.
    fn read_page(&self, id: PageId) -> std::io::Result<Page>;
    /// Writes page `id`. The write may sit in an OS cache until
    /// [`Self::sync`]; an `Ok` here means "accepted", not "durable".
    fn write_page(&self, id: PageId, page: &Page) -> std::io::Result<()>;
    /// Allocates a fresh page id.
    fn allocate(&self) -> PageId;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// I/O counters since creation.
    fn stats(&self) -> DiskStats;
    /// Durability barrier: all writes accepted before this call are on
    /// stable storage when it returns `Ok`. `FileDisk` fsyncs; `MemDisk`
    /// only counts the call (memory is its stable storage).
    fn sync(&self) -> std::io::Result<()>;
}

/// In-memory disk: frames live in a `Vec`.
#[derive(Default)]
pub struct MemDisk {
    frames: Mutex<Vec<Option<Vec<u8>>>>,
    reads: Counter,
    writes: Counter,
    syncs: Counter,
}

impl MemDisk {
    /// Creates an empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// A deep copy of the current frame contents, for tests that need to
    /// freeze "what was on disk" at a particular instant (kill-point
    /// simulation reconstructs the crash-time disk from such a snapshot).
    pub fn snapshot_frames(&self) -> Vec<Option<Vec<u8>>> {
        self.frames.lock().clone()
    }

    /// Builds a disk pre-seeded with `frames` (see [`Self::snapshot_frames`]).
    pub fn from_frames(frames: Vec<Option<Vec<u8>>>) -> Self {
        Self {
            frames: Mutex::new(frames),
            ..Self::default()
        }
    }
}

impl DiskManager for MemDisk {
    fn read_page(&self, id: PageId) -> std::io::Result<Page> {
        self.reads.inc();
        let frames = self.frames.lock();
        Ok(match frames.get(id as usize).and_then(|f| f.as_ref()) {
            Some(bytes) => Page::from_bytes(bytes.clone()),
            None => Page::new(),
        })
    }

    fn write_page(&self, id: PageId, page: &Page) -> std::io::Result<()> {
        self.writes.inc();
        let mut frames = self.frames.lock();
        if frames.len() <= id as usize {
            frames.resize(id as usize + 1, None);
        }
        frames[id as usize] = Some(page.bytes().to_vec());
        Ok(())
    }

    fn allocate(&self) -> PageId {
        let mut frames = self.frames.lock();
        frames.push(None);
        (frames.len() - 1) as PageId
    }

    fn page_count(&self) -> u64 {
        self.frames.lock().len() as u64
    }

    fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.get(),
            writes: self.writes.get(),
            syncs: self.syncs.get(),
        }
    }

    fn sync(&self) -> std::io::Result<()> {
        self.syncs.inc();
        Ok(())
    }
}

/// File-backed disk: page `i` lives at byte offset `i * PAGE_SIZE`.
pub struct FileDisk {
    file: Mutex<std::fs::File>,
    pages: AtomicU64,
    reads: Counter,
    writes: Counter,
    syncs: Counter,
}

impl FileDisk {
    /// Opens (creating if needed) the file at `path`.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file: Mutex::new(file),
            pages: AtomicU64::new(len / PAGE_SIZE as u64),
            reads: Counter::new(),
            writes: Counter::new(),
            syncs: Counter::new(),
        })
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, id: PageId) -> std::io::Result<Page> {
        self.reads.inc();
        let mut file = self.file.lock();
        let mut buf = vec![0u8; PAGE_SIZE];
        let off = id as u64 * PAGE_SIZE as u64;
        file.seek(SeekFrom::Start(off))?;
        // A short read (past EOF) leaves the zero suffix, matching the
        // "never written page reads as zeroes" contract; a failed one is
        // the caller's to handle.
        let mut filled = 0;
        while filled < PAGE_SIZE {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        Ok(Page::from_bytes(buf))
    }

    fn write_page(&self, id: PageId, page: &Page) -> std::io::Result<()> {
        self.writes.inc();
        let mut file = self.file.lock();
        let off = id as u64 * PAGE_SIZE as u64;
        file.seek(SeekFrom::Start(off))?;
        file.write_all(page.bytes())?;
        let needed = id as u64 + 1;
        self.pages.fetch_max(needed, Ordering::AcqRel);
        Ok(())
    }

    fn allocate(&self) -> PageId {
        (self.pages.fetch_add(1, Ordering::AcqRel)) as PageId
    }

    fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Acquire)
    }

    fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.get(),
            writes: self.writes.get(),
            syncs: self.syncs.get(),
        }
    }

    fn sync(&self) -> std::io::Result<()> {
        self.syncs.inc();
        self.file.lock().sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn DiskManager) {
        let p0 = disk.allocate();
        let p1 = disk.allocate();
        assert_ne!(p0, p1);
        let page = Page::holding(b"page-one").unwrap();
        disk.write_page(p1, &page).unwrap();
        let back = disk.read_page(p1).unwrap();
        assert_eq!(back.chunk(), Some(&b"page-one"[..]));
        // unwritten page reads as blank
        assert_eq!(disk.read_page(p0).unwrap(), Page::new());
        disk.sync().unwrap();
        let s = disk.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.syncs, 1);
        assert!(disk.page_count() >= 2);
    }

    #[test]
    fn mem_disk_round_trip() {
        exercise(&MemDisk::new());
    }

    #[test]
    fn mem_disk_frame_snapshot_round_trip() {
        let disk = MemDisk::new();
        let id = disk.allocate();
        disk.write_page(id, &Page::holding(b"frozen").unwrap())
            .unwrap();
        let copy = MemDisk::from_frames(disk.snapshot_frames());
        // Mutating the original does not leak into the copy.
        disk.write_page(id, &Page::holding(b"mutated").unwrap())
            .unwrap();
        assert_eq!(copy.read_page(id).unwrap().chunk(), Some(&b"frozen"[..]));
        assert_eq!(copy.page_count(), 1);
    }

    #[test]
    fn file_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("pagestore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.db");
        let _ = std::fs::remove_file(&path);
        exercise(&FileDisk::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_disk_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pagestore-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.db");
        let _ = std::fs::remove_file(&path);
        {
            let disk = FileDisk::open(&path).unwrap();
            let id = disk.allocate();
            disk.write_page(id, &Page::holding(b"durable").unwrap())
                .unwrap();
            disk.sync().unwrap();
        }
        {
            let disk = FileDisk::open(&path).unwrap();
            assert_eq!(disk.page_count(), 1);
            assert_eq!(disk.read_page(0).unwrap().chunk(), Some(&b"durable"[..]));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
