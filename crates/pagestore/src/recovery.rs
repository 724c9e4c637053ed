//! Crash recovery: replay committed WAL batches over the latest snapshot.
//!
//! [`DurableStore`] is the lifecycle owner tying the layers together:
//!
//! - **commit**: for every page modified since the last commit, append a
//!   full after-image to the WAL, then the blob directory, then a commit
//!   marker — and sync the *log* device. The data disk is not synced;
//!   its pages may still be sitting in the buffer pool or the OS cache.
//! - **checkpoint**: fold in any pending commit, flush the pool, sync the
//!   *data* disk, publish a new manifest generation (atomic install),
//!   and only then truncate the WAL.
//! - **recover** ([`DurableStore::open`]): pick the newest CRC-valid
//!   manifest, replay every committed WAL batch whose epoch is not older
//!   than it (writing page images straight to the data disk), adopt the
//!   last committed directory, and discard the torn/uncommitted tail.
//!
//! Why discarding the tail is safe: `commit` only returns (and the store
//! only acknowledges the batch) after the commit marker is synced. A tail
//! without a valid marker is therefore a batch nobody was ever promised.
//! Conversely, everything *with* a synced marker is reproducible from
//! (manifest + WAL) alone: page images are complete after-images, and
//! blob pages are never overwritten once committed (the blob store
//! allocates fresh pages on every write), so replay is idempotent and
//! byte-identical at every kill point.

use crate::blob::{BlobError, BlobStore};
use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::page::Page;
use crate::snapshot::{latest_valid, prune_older, ManifestStore, SnapshotManifest};
use crate::wal::{parse_log, LogDevice, LogTail, Wal, WalRecord};
use std::io;
use std::sync::Arc;

/// Outcome of a [`DurableStore::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Page images written to the WAL.
    pub pages: usize,
    /// Framed bytes appended (images + directory + marker).
    pub bytes: u64,
    /// False when there was nothing to commit (no-op, nothing appended).
    pub committed: bool,
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the manifest recovery started from (`None` for a
    /// fresh or fully-torn store).
    pub manifest_generation: Option<u64>,
    /// Committed batches replayed onto the data disk.
    pub batches_replayed: usize,
    /// Committed batches skipped because their epoch predates the
    /// manifest (their effects are already inside it).
    pub batches_skipped: usize,
    /// Page images written during replay.
    pub pages_replayed: usize,
    /// Whether the log ended in a torn frame (vs. clean or merely
    /// uncommitted).
    pub torn_tail: bool,
    /// Complete-but-uncommitted records discarded from the tail.
    pub uncommitted_discarded: usize,
    /// Log length at recovery time.
    pub wal_bytes: u64,
    /// Whether recovery finished with a fresh checkpoint (it does whenever
    /// the log was non-empty or no valid manifest existed, leaving the
    /// store with a clean WAL and a durable manifest).
    pub checkpointed: bool,
}

/// A blob store with a write-ahead log, snapshots, and crash recovery.
///
/// Single-writer by construction (`&mut self` on every mutation); reads
/// are `&self`. The store is the only sanctioned writer to its pool — the
/// commit protocol relies on [`BufferPool::modified_pages`] seeing every
/// mutation.
pub struct DurableStore {
    pool: Arc<BufferPool>,
    blobs: BlobStore,
    wal: Wal,
    manifests: Arc<dyn ManifestStore>,
    generation: u64,
    next_seq: u64,
    committed_directory: Vec<u8>,
}

impl DurableStore {
    /// Opens (recovering if necessary) a durable store over `disk`, `log`,
    /// and `manifests`. On a fresh triple this initialises an empty store
    /// and publishes its first manifest; after a crash it replays the
    /// committed WAL suffix over the newest valid manifest and discards
    /// the tail. Either way the store returned has a clean, truncated WAL.
    pub fn open(
        disk: Arc<dyn DiskManager>,
        log: Arc<dyn LogDevice>,
        manifests: Arc<dyn ManifestStore>,
        pool_capacity: usize,
    ) -> io::Result<(Self, RecoveryReport)> {
        let base = latest_valid(&*manifests)?;
        let wal_bytes_raw = log.read_all()?;
        let parsed = parse_log(&wal_bytes_raw);

        let base_generation = base.as_ref().map(|m| m.generation).unwrap_or(0);
        // An empty directory exports as a zero count.
        let mut directory = base
            .as_ref()
            .map(|m| m.directory.clone())
            .unwrap_or_else(|| 0u32.to_le_bytes().to_vec());

        let mut report = RecoveryReport {
            manifest_generation: base.as_ref().map(|m| m.generation),
            batches_replayed: 0,
            batches_skipped: 0,
            pages_replayed: 0,
            torn_tail: matches!(parsed.tail, LogTail::Torn { .. }),
            uncommitted_discarded: match parsed.tail {
                LogTail::Uncommitted { records } => records,
                _ => 0,
            },
            wal_bytes: wal_bytes_raw.len() as u64,
            checkpointed: false,
        };

        for batch in &parsed.batches {
            if batch.epoch < base_generation {
                report.batches_skipped += 1;
                continue;
            }
            for record in &batch.records {
                match record {
                    WalRecord::PageImage { id, bytes } => {
                        disk.write_page(*id, &Page::from_bytes(bytes.clone()))?;
                        report.pages_replayed += 1;
                    }
                    WalRecord::Directory(dir) => directory = dir.clone(),
                    WalRecord::Commit { .. } => {} // markers seal batches, never appear inside
                }
            }
            report.batches_replayed += 1;
        }

        let pool = Arc::new(BufferPool::new(disk, pool_capacity));
        let blobs = BlobStore::import_directory(pool.clone(), &directory)
            .map_err(|e| io::Error::other(format!("recovered directory corrupt: {e}")))?;

        let mut store = Self {
            pool,
            blobs,
            wal: Wal::new(log),
            manifests,
            generation: base_generation,
            next_seq: 0,
            committed_directory: directory,
        };

        // Leave the store well-formed: a durable manifest of exactly the
        // recovered state and an empty WAL. Skipped only when that is
        // already true (valid manifest, empty log).
        if !wal_bytes_raw.is_empty() || base.is_none() {
            store.checkpoint()?;
            report.checkpointed = true;
        }
        Ok((store, report))
    }

    /// The buffer pool backing this store.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Read access to the blob store.
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// Write access to the blob store. Mutations made here are *not*
    /// durable until the next [`Self::commit`].
    pub fn blobs_mut(&mut self) -> &mut BlobStore {
        &mut self.blobs
    }

    /// Current checkpoint generation (0 before the first checkpoint —
    /// unreachable through [`Self::open`], which always leaves one).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The directory bytes of the last committed state.
    pub fn committed_directory(&self) -> &[u8] {
        &self.committed_directory
    }

    /// Whether uncommitted work (modified pages or directory drift) exists.
    pub fn has_uncommitted(&self) -> bool {
        !self.pool.modified_pages().is_empty()
            || self.blobs.export_directory() != self.committed_directory
    }

    /// Writes (or overwrites) blob `name`. Durable at the next commit.
    pub fn put_blob(&mut self, name: &str, data: &[u8]) -> Result<(), BlobError> {
        self.blobs.put(name, data)
    }

    /// Reads blob `name` (committed or not).
    pub fn get_blob(&self, name: &str) -> Result<Option<Vec<u8>>, BlobError> {
        self.blobs.get(name)
    }

    /// Removes blob `name` from the directory. Durable at the next commit.
    pub fn remove_blob(&mut self, name: &str) -> bool {
        self.blobs.remove(name)
    }

    /// Seals every mutation since the last commit into one WAL batch and
    /// syncs the log. On `Ok(receipt)` with `receipt.committed`, the batch
    /// survives any crash. A failed commit leaves the modified-page set
    /// intact, so a retry re-commits everything.
    pub fn commit(&mut self) -> io::Result<CommitReceipt> {
        self.pool.check_write_health()?;
        let pages = self.pool.modified_pages();
        let directory = self.blobs.export_directory();
        if pages.is_empty() && directory == self.committed_directory {
            return Ok(CommitReceipt {
                pages: 0,
                bytes: 0,
                committed: false,
            });
        }
        let mut bytes = 0u64;
        for &id in &pages {
            let image = self.pool.with_page(id, |pg| pg.bytes().to_vec())?;
            bytes += self
                .wal
                .append(&WalRecord::PageImage { id, bytes: image })? as u64;
        }
        bytes += self.wal.append(&WalRecord::Directory(directory.clone()))? as u64;
        bytes += self.wal.commit(self.generation, self.next_seq)? as u64;
        self.next_seq += 1;
        self.pool.clear_modified(&pages);
        self.committed_directory = directory;
        Ok(CommitReceipt {
            pages: pages.len(),
            bytes,
            committed: true,
        })
    }

    /// Takes a checkpoint: commits pending work, flushes the pool, syncs
    /// the **data** disk, publishes manifest generation `g+1` (atomic
    /// install), and only then truncates the WAL and prunes manifests
    /// older than the new one. Returns the new generation.
    ///
    /// Crash-ordering argument: if the crash lands before the manifest
    /// rename, recovery uses the old manifest + the still-intact WAL; if
    /// after, the new manifest alone reproduces the same bytes, and stale
    /// WAL batches (epoch < new generation) are skipped.
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        self.commit()?;
        self.pool.flush_all()?;
        self.pool.disk().sync()?;
        let next = self
            .manifests
            .generations()?
            .last()
            .copied()
            .unwrap_or(0)
            .max(self.generation)
            + 1;
        let manifest = SnapshotManifest {
            generation: next,
            page_count: self.pool.disk().page_count(),
            directory: self.committed_directory.clone(),
        };
        self.manifests.publish(next, &manifest.encode())?;
        self.wal.truncate()?;
        // Pruning is best-effort: a leftover old manifest is harmless
        // (recovery picks the newest valid one).
        // flixcheck: allow(swallowed-result): prune failure leaves extra manifests, never lost data
        let _ = prune_older(&*self.manifests, next);
        self.generation = next;
        self.next_seq = 0;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::snapshot::MemManifests;
    use crate::wal::MemLog;

    fn fresh() -> (Arc<MemDisk>, Arc<MemLog>, Arc<MemManifests>) {
        (
            Arc::new(MemDisk::new()),
            Arc::new(MemLog::new()),
            Arc::new(MemManifests::new()),
        )
    }

    fn open(
        disk: &Arc<MemDisk>,
        log: &Arc<MemLog>,
        manifests: &Arc<MemManifests>,
    ) -> (DurableStore, RecoveryReport) {
        DurableStore::open(disk.clone(), log.clone(), manifests.clone(), 32).unwrap()
    }

    #[test]
    fn fresh_open_publishes_a_manifest() {
        let (disk, log, manifests) = fresh();
        let (store, report) = open(&disk, &log, &manifests);
        assert_eq!(store.generation(), 1);
        assert!(report.checkpointed);
        assert_eq!(report.manifest_generation, None);
        assert_eq!(manifests.generations().unwrap(), vec![1]);
        assert!(log.is_empty().unwrap());
    }

    #[test]
    fn committed_blobs_survive_reopen_without_checkpoint() {
        let (disk, log, manifests) = fresh();
        {
            let (mut store, _) = open(&disk, &log, &manifests);
            store.put_blob("a", b"alpha").unwrap();
            store.put_blob("b", &vec![5u8; 20_000]).unwrap();
            let receipt = store.commit().unwrap();
            assert!(receipt.committed);
            assert!(receipt.pages >= 4, "20 KB spans several pages");
        }
        // No checkpoint: state must come back from WAL replay alone.
        let (store, report) = open(&disk, &log, &manifests);
        assert_eq!(report.batches_replayed, 1);
        assert!(report.checkpointed);
        assert_eq!(store.get_blob("a").unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get_blob("b").unwrap().unwrap(), vec![5u8; 20_000]);
    }

    #[test]
    fn uncommitted_work_is_lost_on_reopen() {
        let (disk, log, manifests) = fresh();
        {
            let (mut store, _) = open(&disk, &log, &manifests);
            store.put_blob("kept", b"yes").unwrap();
            store.commit().unwrap();
            store.put_blob("dropped", b"no").unwrap();
            assert!(store.has_uncommitted());
            // crash: no commit
        }
        let (store, _) = open(&disk, &log, &manifests);
        assert_eq!(
            store.get_blob("kept").unwrap().as_deref(),
            Some(&b"yes"[..])
        );
        assert_eq!(store.get_blob("dropped").unwrap(), None);
        assert!(!store.has_uncommitted());
    }

    #[test]
    fn commit_is_a_noop_when_nothing_changed() {
        let (disk, log, manifests) = fresh();
        let (mut store, _) = open(&disk, &log, &manifests);
        let receipt = store.commit().unwrap();
        assert!(!receipt.committed);
        assert_eq!(receipt.bytes, 0);
        assert!(log.is_empty().unwrap());
        // Removing a blob changes only the directory — still a real commit.
        store.put_blob("x", b"1").unwrap();
        store.commit().unwrap();
        store.remove_blob("x");
        let receipt = store.commit().unwrap();
        assert!(receipt.committed);
        assert_eq!(receipt.pages, 0, "remove touches no pages");
    }

    #[test]
    fn sync_ordering_wal_on_commit_disk_on_checkpoint() {
        let (disk, log, manifests) = fresh();
        let (mut store, _) = open(&disk, &log, &manifests);
        let disk_syncs_after_open = disk.stats().syncs;
        let wal_syncs_after_open = log.syncs();
        store.put_blob("a", b"payload").unwrap();
        store.commit().unwrap();
        assert_eq!(
            log.syncs(),
            wal_syncs_after_open + 1,
            "commit syncs the log"
        );
        assert_eq!(
            disk.stats().syncs,
            disk_syncs_after_open,
            "commit must not sync the data disk"
        );
        store.checkpoint().unwrap();
        assert!(
            disk.stats().syncs > disk_syncs_after_open,
            "checkpoint syncs the data disk"
        );
        assert!(log.is_empty().unwrap(), "checkpoint truncates the WAL");
    }

    #[test]
    fn checkpoint_then_commits_then_recover() {
        let (disk, log, manifests) = fresh();
        {
            let (mut store, _) = open(&disk, &log, &manifests);
            store.put_blob("base", &vec![1u8; 9_000]).unwrap();
            store.checkpoint().unwrap();
            store.put_blob("delta", b"after-checkpoint").unwrap();
            store.commit().unwrap();
        }
        let (store, report) = open(&disk, &log, &manifests);
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(report.batches_skipped, 0);
        assert_eq!(store.get_blob("base").unwrap().unwrap(), vec![1u8; 9_000]);
        assert_eq!(
            store.get_blob("delta").unwrap().as_deref(),
            Some(&b"after-checkpoint"[..])
        );
    }

    #[test]
    fn stale_epoch_batches_are_skipped() {
        let (disk, log, manifests) = fresh();
        {
            let (mut store, _) = open(&disk, &log, &manifests);
            store.put_blob("a", b"one").unwrap();
            store.commit().unwrap();
            // Simulate a crash *between* manifest publication and WAL
            // truncation: checkpoint, then restore the pre-truncate log.
            let pre_truncate = log.snapshot();
            store.checkpoint().unwrap();
            log.append(&pre_truncate).unwrap();
        }
        let (store, report) = open(&disk, &log, &manifests);
        assert_eq!(report.batches_skipped, 1, "old-epoch batch skipped");
        assert_eq!(report.batches_replayed, 0);
        assert_eq!(store.get_blob("a").unwrap().as_deref(), Some(&b"one"[..]));
    }

    #[test]
    fn torn_manifest_falls_back_to_previous_plus_wal() {
        let (disk, log, manifests) = fresh();
        let committed;
        {
            let (mut store, _) = open(&disk, &log, &manifests);
            store.put_blob("a", &vec![3u8; 12_000]).unwrap();
            store.commit().unwrap();
            committed = store.committed_directory().to_vec();
            // Crash mid-checkpoint: the new manifest hit the disk torn,
            // the WAL was not yet truncated.
            let next = store.generation() + 1;
            let torn = SnapshotManifest {
                generation: next,
                page_count: disk.page_count(),
                directory: committed.clone(),
            }
            .encode();
            manifests.publish(next, &torn[..torn.len() / 2]).unwrap();
        }
        let (store, report) = open(&disk, &log, &manifests);
        assert_eq!(
            report.manifest_generation,
            Some(1),
            "fell back past the torn one"
        );
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(store.committed_directory(), &committed[..]);
        assert_eq!(store.get_blob("a").unwrap().unwrap(), vec![3u8; 12_000]);
        // The post-recovery checkpoint must out-number the torn manifest,
        // so a later recovery never prefers a repaired older generation.
        assert!(store.generation() > 2);
    }

    #[test]
    fn failed_commit_keeps_modified_set() {
        let (disk, log, manifests) = fresh();
        let (mut store, _) = open(&disk, &log, &manifests);
        store.put_blob("a", b"retry-me").unwrap();
        let modified_before = store.pool().modified_pages();
        assert!(!modified_before.is_empty());
        // A commit that fails mid-append (simulated by a full log) must
        // leave the modified set intact. MemLog cannot fail, so drive the
        // invariant directly: modified_pages is only cleared after the
        // marker syncs.
        store.commit().unwrap();
        assert!(store.pool().modified_pages().is_empty());
        let (store2, _) = open(&disk, &log, &manifests);
        assert_eq!(
            store2.get_blob("a").unwrap().as_deref(),
            Some(&b"retry-me"[..])
        );
    }

    #[test]
    fn a_commit_grows_the_log_and_keeps_the_generation() {
        let (disk, log, manifests) = fresh();
        let (mut store, _) = open(&disk, &log, &manifests);
        store.put_blob("m", b"bytes").unwrap();
        store.commit().unwrap();
        assert_eq!(store.generation(), 1, "only a checkpoint moves it");
        assert!(log.len().unwrap() > 0, "the commit is in the log");
    }

    /// A CRC-valid page image that is not a page long, sealed by a commit,
    /// is a torn record: recovery keeps the batches before it and drops it
    /// and what follows, instead of panicking on a frame that is no page.
    #[test]
    fn a_page_image_of_the_wrong_length_is_a_torn_tail() {
        let (disk, log, manifests) = fresh();
        {
            let (mut store, _) = open(&disk, &log, &manifests);
            store.put_blob("a", b"kept").unwrap();
            store.commit().unwrap();
            let wal = Wal::new(log.clone());
            let short = WalRecord::PageImage {
                id: 0,
                bytes: vec![7; 100],
            };
            wal.append(&short).unwrap();
            wal.commit(store.generation(), 1).unwrap();
        }
        let (store, report) = open(&disk, &log, &manifests);
        assert!(report.torn_tail);
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(store.get_blob("a").unwrap().as_deref(), Some(&b"kept"[..]));
    }
}
