//! Page-based storage engine backing the FliX indexes.
//!
//! The paper's prototype stored every index in Oracle tables; this crate is
//! the equivalent substrate: 8 KiB pages that each hold one chunk of a blob
//! ([`page`]), a disk abstraction with I/O accounting ([`disk`]), a
//! latching buffer pool with LRU eviction that takes writes as whole pages
//! ([`buffer`]), the least-recently-used table it and `flix`'s caches evict
//! through ([`lru`]), and a named blob store for serialised index images
//! ([`blob`]).
//!
//! Everything is synchronous and latch-based (`parking_lot`). Durability
//! is layered on top rather than woven through: a write-ahead log with
//! CRC-framed records and commit markers ([`wal`]), generation-numbered
//! checkpoint manifests with atomic install ([`snapshot`]), and a
//! recovery path that replays committed batches over the newest valid
//! manifest and discards torn tails ([`recovery`]). Index images are
//! bulk-built and then swapped, so the WAL carries whole page
//! after-images — redo-only, no undo — which keeps recovery a single
//! forward scan.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Named blob store for serialised index images.
pub mod blob;
/// Latching buffer pool with LRU eviction and hit accounting.
pub mod buffer;
/// The self-describing binary serialisation format (serde-backed).
pub mod codec;
/// Disk abstraction with I/O accounting (memory- and file-backed).
pub mod disk;
/// The least-recently-used table every cache evicts through.
pub mod lru;
/// 8 KiB pages, each blank or holding one chunk of a blob.
pub mod page;
/// Crash recovery and the durable store lifecycle (commit / checkpoint).
pub mod recovery;
/// Checkpoint manifests with generations and atomic install.
pub mod snapshot;
/// Write-ahead log: CRC-framed records with commit markers.
pub mod wal;

pub use blob::{BlobError, BlobStore};
pub use buffer::{BufferPool, PoolStats};
pub use codec::{from_bytes, to_bytes, CodecError};
pub use disk::{DiskManager, DiskStats, FileDisk, MemDisk};
pub use lru::Lru;
pub use page::{Page, PageId, PAGE_SIZE};
pub use recovery::{CommitReceipt, DurableStore, RecoveryReport};
pub use snapshot::{FileManifests, ManifestStore, MemManifests, SnapshotManifest};
pub use wal::{
    parse_log, FileLog, LogDevice, LogTail, MemLog, ParsedLog, Wal, WalBatch, WalRecord,
};
