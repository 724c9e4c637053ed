//! Pages: fixed 8 KiB frames, each holding at most one chunk of a blob.
//!
//! A written page begins with four little-endian `u16`s, then zeroes, then
//! the chunk, which ends at the end of the frame:
//!
//! ```text
//! [count = 1][free_end][off][len] | zeroes | chunk ]      off = free_end = PAGE_SIZE − len
//! ```
//!
//! These are the bytes a one-record slotted page held, so a data file
//! reads the same as before pages were cut down to one chunk. A frame
//! whose header describes anything else — an unwritten (all-zero) frame,
//! or a damaged one — holds no chunk. Page bytes are plain `Vec<u8>` so
//! they move through the disk layer without copies beyond the pool frame.

/// Fixed page size (8 KiB, a common DBMS default).
pub const PAGE_SIZE: usize = 8192;

/// Page identifier within one disk file.
pub type PageId = u32;

const HEADER: usize = 8;

/// An 8 KiB page: blank, or holding one chunk.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Vec<u8>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("chunk_len", &self.chunk().map(<[u8]>::len))
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A blank (all-zero) page: what an unwritten frame reads as.
    pub fn new() -> Self {
        Self {
            data: vec![0u8; PAGE_SIZE],
        }
    }

    /// A page holding `chunk`, or `None` if the chunk does not fit behind
    /// the header.
    pub fn holding(chunk: &[u8]) -> Option<Self> {
        let off = PAGE_SIZE
            .checked_sub(chunk.len())
            .filter(|&off| off >= HEADER)?;
        let mut data = vec![0u8; PAGE_SIZE];
        for (at, word) in [1, off, off, chunk.len()].into_iter().enumerate() {
            data[2 * at..2 * at + 2].copy_from_slice(&(word as u16).to_le_bytes());
        }
        data[off..].copy_from_slice(chunk);
        Some(Self { data })
    }

    /// Wraps raw page bytes read from disk.
    ///
    /// # Panics
    /// If `data` is not exactly [`PAGE_SIZE`] bytes.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        assert_eq!(data.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        Self { data }
    }

    /// The raw bytes (for the disk layer).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// The chunk this page holds; `None` unless the header describes
    /// exactly the layout [`Self::holding`] writes.
    pub fn chunk(&self) -> Option<&[u8]> {
        let [count, free_end, off, len] = [0, 2, 4, 6]
            .map(|at| usize::from(u16::from_le_bytes([self.data[at], self.data[at + 1]])));
        let well_formed = count == 1 && off == free_end && off >= HEADER && off + len == PAGE_SIZE;
        well_formed.then(|| &self.data[off..])
    }
}

impl flixcheck::IntegrityCheck for Page {
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("Page");
        audit.check(
            "frame is exactly PAGE_SIZE bytes",
            self.data.len() == PAGE_SIZE,
            || format!("frame holds {} bytes, want {PAGE_SIZE}", self.data.len()),
        );
        if self.data.len() != PAGE_SIZE {
            return audit.finish();
        }
        audit.check(
            "frame is blank or holds one well-formed chunk",
            self.data.iter().all(|&b| b == 0) || self.chunk().is_some(),
            || format!("header {:?} describes no chunk", &self.data[..HEADER]),
        );
        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holding_writes_the_one_record_layout() {
        let p = Page::holding(b"hello").unwrap();
        let off = (PAGE_SIZE - 5) as u16;
        let header: Vec<u8> = [1, off, off, 5]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert_eq!(&p.bytes()[..HEADER], &header[..]);
        assert!(p.bytes()[HEADER..PAGE_SIZE - 5].iter().all(|&b| b == 0));
        assert_eq!(p.chunk(), Some(&b"hello"[..]));
    }

    #[test]
    fn empty_record_allowed() {
        let p = Page::holding(b"").unwrap();
        assert_eq!(p.chunk(), Some(&b""[..]));
    }

    #[test]
    fn round_trip_through_bytes() {
        for len in [1, PAGE_SIZE - 64, PAGE_SIZE - HEADER] {
            let chunk: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let p = Page::holding(&chunk).unwrap();
            let q = Page::from_bytes(p.bytes().to_vec());
            assert_eq!(q.chunk(), Some(&chunk[..]), "len {len}");
            assert_eq!(p, q);
        }
    }

    #[test]
    fn oversized_record_rejected() {
        assert!(Page::holding(&[0u8; PAGE_SIZE - HEADER + 1]).is_none());
        assert!(Page::holding(&vec![0u8; PAGE_SIZE]).is_none());
    }

    #[test]
    fn a_blank_page_holds_no_chunk() {
        assert_eq!(Page::new().chunk(), None);
        assert_eq!(Page::from_bytes(vec![0; PAGE_SIZE]), Page::new());
    }

    /// Every header byte flipped every way reads as no chunk: a damaged
    /// header never slices outside the frame or hands back other bytes.
    #[test]
    fn every_damaged_header_byte_reads_as_no_chunk() {
        for chunk in [&b""[..], b"x", b"hello", &[9u8; PAGE_SIZE - 64]] {
            let page = Page::holding(chunk).unwrap();
            for at in 0..HEADER {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut bytes = page.bytes().to_vec();
                    bytes[at] ^= flip;
                    let damaged = Page::from_bytes(bytes);
                    assert_eq!(
                        damaged.chunk(),
                        None,
                        "len {}: byte {at} ^ {flip:#x}",
                        chunk.len()
                    );
                }
            }
        }
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        Page::new().integrity_check().unwrap();
        let p = Page::holding(b"first").unwrap();
        p.integrity_check().unwrap();

        // The chunk length running past the frame end.
        let mut bad = p.clone();
        bad.data[6..8].copy_from_slice(&2000u16.to_le_bytes());
        assert!(bad.integrity_check().is_err());

        // free_end pushed into the header.
        let mut bad = p.clone();
        bad.data[2..4].copy_from_slice(&2u16.to_le_bytes());
        assert!(bad.integrity_check().is_err());

        // A stray byte in an otherwise blank frame.
        let mut bad = Page::new();
        bad.data[100] = 1;
        assert!(bad.integrity_check().is_err());
    }
}
