//! Named blob store: arbitrarily large byte strings chunked across pages.
//!
//! Index images (a serialised HOPI label set, a PPO number table, ...) are
//! written as one blob per meta document. The directory itself lives in
//! memory and is exported/imported as bytes so a catalogue page or file can
//! persist it.

use crate::buffer::BufferPool;
use crate::page::{Page, PageId, PAGE_SIZE};
use bytes::{Buf, BufMut};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Bytes of a blob per page. A page could hold 56 more; this width keeps
/// every stored page, and so every page count, where it has always been.
const CHUNK: usize = PAGE_SIZE - 64;

/// Failures of blob I/O against the underlying pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// A chunk did not fit into a page ([`Page::holding`] refused it).
    ChunkOverflow {
        /// Blob being written.
        name: String,
        /// The page that rejected the chunk.
        page: PageId,
        /// Bytes the chunk needed.
        chunk_len: usize,
    },
    /// A page listed in the directory holds no well-formed chunk — the
    /// store is corrupt (e.g. the page was zeroed or its header damaged).
    MissingChunk {
        /// Blob being read.
        name: String,
        /// The directory page whose record is gone.
        page: PageId,
    },
    /// The disk failed to read a page listed in the directory.
    Io {
        /// Blob being read.
        name: String,
        /// The page whose read failed.
        page: PageId,
        /// The disk's error, as text.
        error: String,
    },
    /// The pages listed in the directory hold another number of bytes
    /// than it records for the blob — the store is corrupt.
    LengthMismatch {
        /// Blob being read.
        name: String,
        /// Bytes the directory records.
        expected: u64,
        /// Bytes its pages hold.
        found: u64,
    },
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::ChunkOverflow {
                name,
                page,
                chunk_len,
            } => write!(
                f,
                "blob {name:?}: chunk of {chunk_len} bytes does not fit page {page}"
            ),
            BlobError::MissingChunk { name, page } => write!(
                f,
                "blob {name:?}: page {page} holds no chunk record (store corrupt)"
            ),
            BlobError::Io { name, page, error } => {
                write!(f, "blob {name:?}: I/O error reading page {page}: {error}")
            }
            BlobError::LengthMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "blob {name:?}: directory records {expected} bytes, its pages hold {found} (store corrupt)"
            ),
        }
    }
}

impl Error for BlobError {}

/// A named blob store over a buffer pool.
pub struct BlobStore {
    pool: Arc<BufferPool>,
    directory: HashMap<String, BlobEntry>,
}

#[derive(Debug, Clone)]
struct BlobEntry {
    pages: Vec<PageId>,
    len: u64,
}

impl BlobStore {
    /// Creates an empty store in `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self {
            pool,
            directory: HashMap::new(),
        }
    }

    /// Writes (or overwrites) blob `name`.
    ///
    /// # Errors
    /// [`BlobError::ChunkOverflow`] if a chunk does not fit a page (cannot
    /// happen while `CHUNK` leaves room for the page header, but the store
    /// reports it rather than trusting the arithmetic).
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<(), BlobError> {
        let mut pages = Vec::with_capacity(data.len().div_ceil(CHUNK));
        for chunk in data.chunks(CHUNK) {
            let id = self.pool.allocate();
            let page = Page::holding(chunk).ok_or_else(|| BlobError::ChunkOverflow {
                name: name.to_string(),
                page: id,
                chunk_len: chunk.len(),
            })?;
            self.pool.write(id, page);
            pages.push(id);
        }
        self.directory.insert(
            name.to_string(),
            BlobEntry {
                pages,
                len: data.len() as u64,
            },
        );
        Ok(())
    }

    /// Reads blob `name`; `Ok(None)` if no such blob exists.
    ///
    /// # Errors
    /// [`BlobError::Io`] if the disk fails to read a directory page;
    /// [`BlobError::MissingChunk`] if one holds no chunk;
    /// [`BlobError::LengthMismatch`] if the pages hold another number of
    /// bytes than the directory records.
    pub fn get(&self, name: &str) -> Result<Option<Vec<u8>>, BlobError> {
        let Some(entry) = self.directory.get(name) else {
            return Ok(None);
        };
        // A directory read back from disk is not trusted to size the buffer.
        let most = entry.pages.len() * CHUNK;
        let mut out = Vec::with_capacity(most.min(entry.len as usize));
        for &page in &entry.pages {
            let present = self.pool.with_page(page, |pg| match pg.chunk() {
                Some(chunk) => {
                    out.extend_from_slice(chunk);
                    true
                }
                None => false,
            });
            let present = present.map_err(|err| BlobError::Io {
                name: name.to_string(),
                page,
                error: err.to_string(),
            })?;
            if !present {
                return Err(BlobError::MissingChunk {
                    name: name.to_string(),
                    page,
                });
            }
        }
        if out.len() as u64 != entry.len {
            return Err(BlobError::LengthMismatch {
                name: name.to_string(),
                expected: entry.len,
                found: out.len() as u64,
            });
        }
        Ok(Some(out))
    }

    /// Removes a blob from the directory (pages are not recycled).
    pub fn remove(&mut self, name: &str) -> bool {
        self.directory.remove(name).is_some()
    }

    /// Blob names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.directory.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Serialises the directory (name -> page list) for cataloguing.
    pub fn export_directory(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut entries: Vec<(&String, &BlobEntry)> = self.directory.iter().collect();
        entries.sort_by_key(|(name, _)| name.as_str());
        buf.put_u32_le(entries.len() as u32);
        for (name, entry) in entries {
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
            buf.put_u64_le(entry.len);
            buf.put_u32_le(entry.pages.len() as u32);
            for &p in &entry.pages {
                buf.put_u32_le(p);
            }
        }
        buf
    }

    /// Restores a directory previously produced by
    /// [`Self::export_directory`] over the same disk.
    pub fn import_directory(pool: Arc<BufferPool>, mut data: &[u8]) -> Result<Self, String> {
        let mut directory = HashMap::new();
        if data.len() < 4 {
            return Err("directory truncated".into());
        }
        let count = data.get_u32_le();
        for _ in 0..count {
            if data.len() < 4 {
                return Err("directory truncated".into());
            }
            let name_len = data.get_u32_le() as usize;
            if data.len() < name_len {
                return Err("directory truncated".into());
            }
            let name = String::from_utf8(data[..name_len].to_vec())
                .map_err(|_| "invalid blob name".to_string())?;
            data.advance(name_len);
            if data.len() < 12 {
                return Err("directory truncated".into());
            }
            let len = data.get_u64_le();
            let page_count = data.get_u32_le() as usize;
            if data.len() < page_count * 4 {
                return Err("directory truncated".into());
            }
            let mut pages = Vec::with_capacity(page_count);
            for _ in 0..page_count {
                pages.push(data.get_u32_le());
            }
            directory.insert(name, BlobEntry { pages, len });
        }
        Ok(Self { pool, directory })
    }
}

impl flixcheck::IntegrityCheck for BlobStore {
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("BlobStore");
        let mut names: Vec<&String> = self.directory.keys().collect();
        names.sort();
        let mut bad_count = None;
        let mut bad_bytes = None;
        for name in names {
            let entry = &self.directory[name];
            let want_pages = (entry.len as usize).div_ceil(CHUNK);
            if entry.pages.len() != want_pages && bad_count.is_none() {
                bad_count = Some(format!(
                    "blob {name:?}: {} bytes need {want_pages} pages, directory lists {}",
                    entry.len,
                    entry.pages.len()
                ));
            }
            if bad_bytes.is_none() {
                let mut total = 0u64;
                let mut missing = None;
                for &page in &entry.pages {
                    match self.pool.with_page(page, |pg| pg.chunk().map(<[u8]>::len)) {
                        Ok(Some(len)) => total += len as u64,
                        Ok(None) => {
                            missing = Some(format!("page {page} holds no chunk record"));
                            break;
                        }
                        Err(err) => {
                            missing = Some(format!("page {page} does not read: {err}"));
                            break;
                        }
                    }
                }
                if let Some(fault) = missing {
                    bad_bytes = Some(format!("blob {name:?}: {fault}"));
                } else if total != entry.len {
                    bad_bytes = Some(format!(
                        "blob {name:?}: chunks sum to {total} bytes, directory says {}",
                        entry.len
                    ));
                }
            }
        }
        audit.check(
            "directory page counts match blob lengths",
            bad_count.is_none(),
            || bad_count.unwrap_or_default(),
        );
        audit.check(
            "stored chunks sum to each blob's recorded length",
            bad_bytes.is_none(),
            || bad_bytes.unwrap_or_default(),
        );
        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn store() -> BlobStore {
        BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16)))
    }

    #[test]
    fn small_blob_round_trip() {
        let mut s = store();
        s.put("a", b"hello blob").unwrap();
        assert_eq!(s.get("a").unwrap().as_deref(), Some(&b"hello blob"[..]));
        assert_eq!(s.get("missing").unwrap(), None);
    }

    #[test]
    fn multi_page_blob() {
        let mut s = store();
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        s.put("big", &data).unwrap();
        assert_eq!(s.get("big").unwrap().unwrap(), data);
    }

    #[test]
    fn empty_blob() {
        let mut s = store();
        s.put("empty", b"").unwrap();
        assert_eq!(s.get("empty").unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut s = store();
        s.put("k", b"v1").unwrap();
        s.put("k", b"v2-longer").unwrap();
        assert_eq!(s.get("k").unwrap().as_deref(), Some(&b"v2-longer"[..]));
    }

    #[test]
    fn names_sorted_and_remove() {
        let mut s = store();
        s.put("zeta", b"1").unwrap();
        s.put("alpha", b"2").unwrap();
        assert_eq!(s.names(), vec!["alpha", "zeta"]);
        assert!(s.remove("zeta"));
        assert!(!s.remove("zeta"));
        assert_eq!(s.names(), vec!["alpha"]);
    }

    #[test]
    fn directory_export_import() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let mut s = BlobStore::new(pool.clone());
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 13) as u8).collect();
        s.put("idx/meta-0", &data).unwrap();
        s.put("idx/meta-1", b"tiny").unwrap();
        let dir = s.export_directory();
        let s2 = BlobStore::import_directory(pool, &dir).unwrap();
        assert_eq!(s2.get("idx/meta-0").unwrap().unwrap(), data);
        assert_eq!(s2.get("idx/meta-1").unwrap().as_deref(), Some(&b"tiny"[..]));
    }

    #[test]
    fn corrupt_directory_rejected() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4));
        assert!(BlobStore::import_directory(pool.clone(), &[1, 2]).is_err());
        // valid count but truncated entry
        let bad = 1u32.to_le_bytes().to_vec();
        assert!(BlobStore::import_directory(pool, &bad).is_err());
    }

    /// A directory read back from disk that records more bytes for a blob
    /// than its pages hold — or fewer — makes a read of that blob fail,
    /// typed, in release builds too, whatever the length claims.
    #[test]
    fn a_directory_length_its_pages_do_not_hold_is_an_error() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let mut s = BlobStore::new(pool.clone());
        let data = vec![7u8; CHUNK + 10];
        s.put("two-pages", &data).unwrap();
        let dir = s.export_directory();
        // count, name length, name, then the recorded length
        let at = 4 + 4 + "two-pages".len();
        let stored = CHUNK as u64 + 10;
        for claimed in [stored + 1, stored - 1, 2 * CHUNK as u64 + 1, u64::MAX] {
            let mut forged = dir.clone();
            forged[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            let s = BlobStore::import_directory(pool.clone(), &forged).unwrap();
            let err = s.get("two-pages").unwrap_err();
            assert_eq!(
                err,
                BlobError::LengthMismatch {
                    name: "two-pages".into(),
                    expected: claimed,
                    found: stored,
                }
            );
            assert!(err.to_string().contains("store corrupt"), "{err}");
        }
        let s = BlobStore::import_directory(pool, &dir).unwrap();
        assert_eq!(s.get("two-pages").unwrap().unwrap(), data);
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let mut s = store();
        s.put("a", b"payload").unwrap();
        let big: Vec<u8> = vec![9u8; 3 * CHUNK + 17];
        s.put("big", &big).unwrap();
        s.integrity_check().unwrap();

        // Directory length out of step with the stored chunks.
        s.directory.get_mut("a").unwrap().len += 1;
        assert!(s.integrity_check().is_err());
        s.directory.get_mut("a").unwrap().len -= 1;
        s.integrity_check().unwrap();

        // A phantom page appended to a blob's chain.
        let extra = s.pool.allocate();
        s.directory.get_mut("big").unwrap().pages.push(extra);
        assert!(s.integrity_check().is_err());
    }

    /// A data page whose chunk length runs past its frame reads as a
    /// missing chunk: a typed error, not an out-of-bounds slice.
    #[test]
    fn a_damaged_page_on_disk_is_a_missing_chunk() {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk.clone(), 16));
        let mut s = BlobStore::new(pool.clone());
        s.put("a", b"payload").unwrap();
        pool.flush_all().unwrap();
        let mut frames = disk.snapshot_frames();
        frames[0].as_mut().unwrap()[6..8].copy_from_slice(&2000u16.to_le_bytes());
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::from_frames(frames)), 16));
        let damaged = BlobStore::import_directory(pool, &s.export_directory()).unwrap();
        let missing = BlobError::MissingChunk {
            name: "a".into(),
            page: 0,
        };
        assert_eq!(damaged.get("a"), Err(missing));
    }
}
