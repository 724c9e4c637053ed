//! Write-ahead log: append-only, CRC-framed, commit-marked.
//!
//! The log is a flat byte stream of framed records:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! where the CRC covers the payload. Payloads carry a one-byte tag:
//! page images (`1`), blob-directory snapshots (`2`), and commit markers
//! (`3`, carrying the checkpoint *epoch* and a batch sequence number).
//! Records between two commit markers form a **batch**; a batch becomes
//! visible to recovery only once its commit marker is fully on disk
//! ([`LogDevice::sync`] is issued right after the marker is appended).
//!
//! A crash can leave the log with a *torn tail*: a partial frame, a frame
//! whose CRC does not match, or complete records that were never followed
//! by a commit marker. All three are safely discarded by
//! [`parse_log`] — the data they describe was, by definition, never
//! acknowledged as committed, and everything before the tail is protected
//! by its own commit marker and sync.

use crate::page::{PageId, PAGE_SIZE};
use flixobs::Counter;
use parking_lot::Mutex;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::Arc;
use std::sync::OnceLock;

/// Frame header size: length + CRC, both little-endian u32.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single record payload (sanity check while parsing, so
/// a corrupt length field cannot trigger a giant allocation).
pub const MAX_RECORD: usize = 64 << 20;

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An append-only byte log with a durability barrier.
///
/// The WAL and the data disk are *separate* devices on purpose: the commit
/// protocol syncs the log on every commit but the data disk only at
/// checkpoints, and tests assert that ordering through the two sync
/// counters.
pub trait LogDevice: Send + Sync {
    /// Appends `bytes` at the end of the log.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Current log length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Whether the log is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Reads the entire log.
    fn read_all(&self) -> io::Result<Vec<u8>>;
    /// Truncates the log to zero length (after a durable checkpoint).
    fn truncate(&self) -> io::Result<()>;
    /// Durability barrier: appended bytes are on stable storage on `Ok`.
    fn sync(&self) -> io::Result<()>;
    /// Number of [`Self::sync`] calls since creation (for ordering tests).
    fn syncs(&self) -> u64;
}

/// In-memory log device. Memory is its stable storage, so `sync` only
/// counts; [`MemLog::from_bytes`] over a cut [`MemLog::snapshot`] is how
/// kill-point simulations crash it.
#[derive(Default)]
pub struct MemLog {
    bytes: Mutex<Vec<u8>>,
    syncs: Counter,
}

impl MemLog {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log pre-seeded with `bytes` (e.g. a truncated copy of another
    /// log, simulating a crash at that byte boundary).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self {
            bytes: Mutex::new(bytes),
            syncs: Counter::new(),
        }
    }

    /// A copy of the current log contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }
}

impl LogDevice for MemLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes.lock().len() as u64)
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn truncate(&self) -> io::Result<()> {
        self.bytes.lock().clear();
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        self.syncs.inc();
        Ok(())
    }

    fn syncs(&self) -> u64 {
        self.syncs.get()
    }
}

/// File-backed log device: one flat file, appended in place.
pub struct FileLog {
    file: Mutex<std::fs::File>,
    syncs: Counter,
}

impl FileLog {
    /// Opens (creating if needed) the log file at `path`. An existing log
    /// is kept — recovery decides what of it is usable.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Self {
            file: Mutex::new(file),
            syncs: Counter::new(),
        })
    }
}

impl LogDevice for FileLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::End(0))?;
        file.write_all(bytes)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.lock().metadata()?.len())
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn truncate(&self) -> io::Result<()> {
        let file = self.file.lock();
        file.set_len(0)?;
        file.sync_all()
    }

    fn sync(&self) -> io::Result<()> {
        self.syncs.inc();
        self.file.lock().sync_data()
    }

    fn syncs(&self) -> u64 {
        self.syncs.get()
    }
}

/// One logical WAL record (the payload inside a frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A full after-image of page `id`.
    PageImage {
        /// The page this image belongs to.
        id: PageId,
        /// Raw page bytes, exactly [`PAGE_SIZE`] of them: a record holding
        /// any other number does not decode.
        bytes: Vec<u8>,
    },
    /// A blob-directory snapshot ([`crate::BlobStore::export_directory`]).
    Directory(Vec<u8>),
    /// Commit marker sealing every record since the previous marker.
    Commit {
        /// Checkpoint generation this batch belongs to. Recovery skips
        /// batches whose epoch predates the manifest it starts from.
        epoch: u64,
        /// Batch sequence number within the epoch.
        seq: u64,
    },
}

const TAG_PAGE: u8 = 1;
const TAG_DIRECTORY: u8 = 2;
const TAG_COMMIT: u8 = 3;

impl WalRecord {
    /// Serialises the payload (tag + body, no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            WalRecord::PageImage { id, bytes } => {
                let mut out = Vec::with_capacity(5 + bytes.len());
                out.push(TAG_PAGE);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(bytes);
                out
            }
            WalRecord::Directory(dir) => {
                let mut out = Vec::with_capacity(1 + dir.len());
                out.push(TAG_DIRECTORY);
                out.extend_from_slice(dir);
                out
            }
            WalRecord::Commit { epoch, seq } => {
                let mut out = Vec::with_capacity(17);
                out.push(TAG_COMMIT);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out
            }
        }
    }

    /// Decodes a payload produced by [`Self::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        match payload.first() {
            Some(&TAG_PAGE) => {
                if payload.len() != 5 + PAGE_SIZE {
                    return Err(format!(
                        "page image of {} bytes is not a {PAGE_SIZE}-byte page",
                        payload.len().saturating_sub(5)
                    ));
                }
                let id = u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]);
                Ok(WalRecord::PageImage {
                    id,
                    bytes: payload[5..].to_vec(),
                })
            }
            Some(&TAG_DIRECTORY) => Ok(WalRecord::Directory(payload[1..].to_vec())),
            Some(&TAG_COMMIT) => {
                if payload.len() != 17 {
                    return Err("commit record has wrong length".into());
                }
                let mut epoch = [0u8; 8];
                let mut seq = [0u8; 8];
                epoch.copy_from_slice(&payload[1..9]);
                seq.copy_from_slice(&payload[9..17]);
                Ok(WalRecord::Commit {
                    epoch: u64::from_le_bytes(epoch),
                    seq: u64::from_le_bytes(seq),
                })
            }
            Some(&tag) => Err(format!("unknown record tag {tag}")),
            None => Err("empty record".into()),
        }
    }

    /// Serialises the record with its frame header (`len`, `crc`).
    pub fn encode_framed(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// A committed batch: every record appended between two commit markers,
/// plus the sealing marker's epoch/sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Checkpoint generation the batch was committed under.
    pub epoch: u64,
    /// Batch sequence number within the epoch.
    pub seq: u64,
    /// Records sealed by the commit marker (page images, directory).
    pub records: Vec<WalRecord>,
}

/// What the end of the log looked like when parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogTail {
    /// Log ends exactly on a commit marker (or is empty).
    Clean,
    /// Complete, CRC-valid records followed the last commit marker but no
    /// marker sealed them — an in-flight batch the crash interrupted.
    Uncommitted {
        /// Records discarded.
        records: usize,
    },
    /// The log ends mid-frame or with a CRC mismatch.
    Torn {
        /// Byte offset of the first unusable frame.
        offset: u64,
        /// Human-readable reason (short frame, CRC mismatch, bad tag...).
        reason: String,
    },
}

/// A parsed log: the committed batches, in append order, plus the tail
/// verdict. Anything in the tail is *not* part of any batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedLog {
    /// Committed batches in append order.
    pub batches: Vec<WalBatch>,
    /// What the log's end looked like.
    pub tail: LogTail,
}

/// Parses raw log bytes into committed batches, discarding the torn or
/// uncommitted tail. Never fails: a corrupt log simply yields fewer
/// batches — by the commit protocol, whatever is discarded was never
/// acknowledged.
pub fn parse_log(bytes: &[u8]) -> ParsedLog {
    let mut batches = Vec::new();
    let mut pending: Vec<WalRecord> = Vec::new();
    let mut offset = 0usize;
    let mut tail = LogTail::Clean;
    while offset < bytes.len() {
        let remaining = &bytes[offset..];
        if remaining.len() < FRAME_HEADER {
            tail = LogTail::Torn {
                offset: offset as u64,
                reason: format!("partial frame header ({} bytes)", remaining.len()),
            };
            break;
        }
        let len =
            u32::from_le_bytes([remaining[0], remaining[1], remaining[2], remaining[3]]) as usize;
        let crc = u32::from_le_bytes([remaining[4], remaining[5], remaining[6], remaining[7]]);
        if len > MAX_RECORD {
            tail = LogTail::Torn {
                offset: offset as u64,
                reason: format!("frame length {len} exceeds the record cap"),
            };
            break;
        }
        if remaining.len() < FRAME_HEADER + len {
            tail = LogTail::Torn {
                offset: offset as u64,
                reason: format!(
                    "frame claims {len} payload bytes, only {} remain",
                    remaining.len() - FRAME_HEADER
                ),
            };
            break;
        }
        let payload = &remaining[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            tail = LogTail::Torn {
                offset: offset as u64,
                reason: "payload CRC mismatch".into(),
            };
            break;
        }
        match WalRecord::decode_payload(payload) {
            Ok(WalRecord::Commit { epoch, seq }) => {
                batches.push(WalBatch {
                    epoch,
                    seq,
                    records: std::mem::take(&mut pending),
                });
            }
            Ok(record) => pending.push(record),
            Err(reason) => {
                tail = LogTail::Torn {
                    offset: offset as u64,
                    reason,
                };
                break;
            }
        }
        offset += FRAME_HEADER + len;
    }
    if matches!(tail, LogTail::Clean) && !pending.is_empty() {
        tail = LogTail::Uncommitted {
            records: pending.len(),
        };
    }
    ParsedLog { batches, tail }
}

/// Writer facade over a [`LogDevice`]: frames records, syncs on commit.
pub struct Wal {
    device: Arc<dyn LogDevice>,
}

impl Wal {
    /// Wraps `device`.
    pub fn new(device: Arc<dyn LogDevice>) -> Self {
        Self { device }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn LogDevice> {
        &self.device
    }

    /// Appends one framed record *without* a durability barrier; returns
    /// the framed size in bytes.
    pub fn append(&self, record: &WalRecord) -> io::Result<usize> {
        let framed = record.encode_framed();
        self.device.append(&framed)?;
        Ok(framed.len())
    }

    /// Seals everything appended since the last marker: appends a commit
    /// marker and syncs the device. When `Ok` returns, the batch is
    /// durable.
    pub fn commit(&self, epoch: u64, seq: u64) -> io::Result<usize> {
        let n = self.append(&WalRecord::Commit { epoch, seq })?;
        self.device.sync()?;
        Ok(n)
    }

    /// Truncates the log (used only after a checkpoint manifest is
    /// durable) and syncs the truncation.
    pub fn truncate(&self) -> io::Result<()> {
        self.device.truncate()?;
        self.device.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batches() -> (Arc<MemLog>, Vec<WalBatch>) {
        let dev = Arc::new(MemLog::new());
        let wal = Wal::new(dev.clone());
        let page0 = vec![7u8; PAGE_SIZE];
        wal.append(&WalRecord::PageImage {
            id: 0,
            bytes: page0.clone(),
        })
        .unwrap();
        wal.append(&WalRecord::Directory(b"dir-1".to_vec()))
            .unwrap();
        wal.commit(0, 0).unwrap();
        wal.append(&WalRecord::PageImage {
            id: 3,
            bytes: vec![9u8; PAGE_SIZE],
        })
        .unwrap();
        wal.append(&WalRecord::Directory(b"dir-2".to_vec()))
            .unwrap();
        wal.commit(0, 1).unwrap();
        let expected = vec![
            WalBatch {
                epoch: 0,
                seq: 0,
                records: vec![
                    WalRecord::PageImage {
                        id: 0,
                        bytes: page0,
                    },
                    WalRecord::Directory(b"dir-1".to_vec()),
                ],
            },
            WalBatch {
                epoch: 0,
                seq: 1,
                records: vec![
                    WalRecord::PageImage {
                        id: 3,
                        bytes: vec![9u8; PAGE_SIZE],
                    },
                    WalRecord::Directory(b"dir-2".to_vec()),
                ],
            },
        ];
        (dev, expected)
    }

    #[test]
    fn record_payload_round_trip() {
        for record in [
            WalRecord::PageImage {
                id: 42,
                bytes: vec![3; PAGE_SIZE],
            },
            WalRecord::Directory(vec![]),
            WalRecord::Commit { epoch: 7, seq: 99 },
        ] {
            let payload = record.encode_payload();
            assert_eq!(WalRecord::decode_payload(&payload).unwrap(), record);
        }
        assert!(WalRecord::decode_payload(&[]).is_err());
        for len in [0, 3, PAGE_SIZE - 1, PAGE_SIZE + 1] {
            let short = WalRecord::PageImage {
                id: 42,
                bytes: vec![3; len],
            };
            let err = WalRecord::decode_payload(&short.encode_payload()).unwrap_err();
            assert!(err.contains("is not a 8192-byte page"), "{len}: {err}");
        }
        assert!(WalRecord::decode_payload(&[200]).is_err());
        assert!(WalRecord::decode_payload(&[TAG_COMMIT, 1, 2]).is_err());
    }

    #[test]
    fn parse_recovers_committed_batches() {
        let (log, expected) = sample_batches();
        let parsed = parse_log(&log.snapshot());
        assert_eq!(parsed.batches, expected);
        assert_eq!(parsed.tail, LogTail::Clean);
    }

    #[test]
    fn every_truncation_point_yields_a_committed_prefix() {
        let (log, expected) = sample_batches();
        let bytes = log.snapshot();
        // Find where the first batch's commit marker ends: parsing a prefix
        // must yield exactly the batches whose markers fit the prefix.
        for cut in 0..=bytes.len() {
            let parsed = parse_log(&bytes[..cut]);
            assert!(
                parsed.batches.len() <= expected.len(),
                "cut {cut}: too many batches"
            );
            for (got, want) in parsed.batches.iter().zip(&expected) {
                assert_eq!(got, want, "cut {cut}: batch mismatch");
            }
            if cut < bytes.len() {
                assert!(
                    parsed.batches.len() < 2 || parsed.tail == LogTail::Clean,
                    "cut {cut}: both batches plus a tail?"
                );
            }
        }
        // The full log parses both batches; a one-byte-short log only one.
        assert_eq!(parse_log(&bytes).batches.len(), 2);
        assert_eq!(parse_log(&bytes[..bytes.len() - 1]).batches.len(), 1);
    }

    #[test]
    fn corrupted_byte_tears_the_tail() {
        let (log, _) = sample_batches();
        let mut bytes = log.snapshot();
        let last = bytes.len() - 10; // inside the final commit frame
        bytes[last] ^= 0xFF;
        let parsed = parse_log(&bytes);
        assert_eq!(parsed.batches.len(), 1, "second batch is discarded");
        assert!(matches!(parsed.tail, LogTail::Torn { .. }));
    }

    #[test]
    fn uncommitted_records_are_discarded() {
        let dev = Arc::new(MemLog::new());
        let wal = Wal::new(dev.clone());
        wal.append(&WalRecord::Directory(b"d".to_vec())).unwrap();
        wal.commit(0, 0).unwrap();
        wal.append(&WalRecord::Directory(b"in-flight".to_vec()))
            .unwrap();
        let parsed = parse_log(&dev.snapshot());
        assert_eq!(parsed.batches.len(), 1);
        assert_eq!(parsed.tail, LogTail::Uncommitted { records: 1 });
    }

    #[test]
    fn commit_syncs_the_device() {
        let dev = Arc::new(MemLog::new());
        let wal = Wal::new(dev.clone());
        wal.append(&WalRecord::Directory(vec![])).unwrap();
        assert_eq!(dev.syncs(), 0, "append alone must not sync");
        wal.commit(0, 0).unwrap();
        assert_eq!(dev.syncs(), 1);
        wal.truncate().unwrap();
        assert_eq!(dev.syncs(), 2, "truncation is also synced");
        assert!(dev.is_empty().unwrap());
    }

    #[test]
    fn oversized_frame_length_is_torn_not_allocated() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let parsed = parse_log(&bytes);
        assert!(matches!(parsed.tail, LogTail::Torn { .. }));
        assert!(parsed.batches.is_empty());
    }

    #[test]
    fn file_log_round_trip() {
        let dir = std::env::temp_dir().join(format!("pagestore-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::new(Arc::new(FileLog::open(&path).unwrap()));
            wal.append(&WalRecord::Directory(b"persisted".to_vec()))
                .unwrap();
            wal.commit(4, 2).unwrap();
        }
        {
            let dev = FileLog::open(&path).unwrap();
            let parsed = parse_log(&dev.read_all().unwrap());
            assert_eq!(parsed.batches.len(), 1);
            assert_eq!(parsed.batches[0].epoch, 4);
            assert_eq!(
                parsed.batches[0].records,
                vec![WalRecord::Directory(b"persisted".to_vec())]
            );
            dev.truncate().unwrap();
            assert_eq!(dev.len().unwrap(), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
