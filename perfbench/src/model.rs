//! The benchmark's content model: what every byte of every file it
//! created should read as.
//!
//! A file is a run of 4 KiB blocks. Block `b` at version `v` holds the
//! bytes of a SplitMix64 stream seeded by `(seed, file id, b, v)`,
//! cut at the file's end. Writes cover whole blocks and bump their
//! versions, so the model stores one `u32` per block and regenerates
//! expected bytes on demand instead of holding a copy of the data.

use crate::rng::{derive, Rng};

pub const BLOCK: usize = 4096;

/// Fill `out` (at most one block) with block `block` of file `id` at
/// `version`.
pub fn fill_block(seed: u64, id: u64, block: u64, version: u32, out: &mut [u8]) {
    let s = derive(derive(seed, id), (block << 20) ^ version as u64);
    let mut rng = Rng::new(s);
    for chunk in out.chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

#[derive(Debug, Clone)]
pub struct FileModel {
    pub id: u64,
    pub size: u64,
    versions: Vec<u32>,
}

impl FileModel {
    pub fn new(id: u64, size: u64) -> FileModel {
        FileModel {
            id,
            size,
            versions: vec![0; blocks_for(size)],
        }
    }

    /// Bytes `[off, off+len)` clamped to the file's end.
    pub fn expected(&self, seed: u64, off: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.expected_into(seed, off, len, &mut out);
        out
    }

    /// `expected`, written into `out` (cleared first), so a caller
    /// can reuse one buffer.
    pub fn expected_into(&self, seed: u64, off: u64, len: usize, out: &mut Vec<u8>) {
        let end = (off + len as u64).min(self.size);
        out.clear();
        out.reserve(end.saturating_sub(off) as usize);
        let mut block = [0u8; BLOCK];
        let mut pos = off;
        while pos < end {
            let b = pos / BLOCK as u64;
            let start = (pos - b * BLOCK as u64) as usize;
            let stop = ((end - b * BLOCK as u64) as usize).min(BLOCK);
            fill_block(seed, self.id, b, self.versions[b as usize], &mut block);
            out.extend_from_slice(&block[start..stop]);
            pos = b * BLOCK as u64 + stop as u64;
        }
    }

    pub fn matches(&self, seed: u64, off: u64, asked: usize, got: &[u8]) -> bool {
        let want = (off + asked as u64).min(self.size).saturating_sub(off) as usize;
        if got.len() != want {
            return false;
        }
        let mut block = [0u8; BLOCK];
        let mut pos = off;
        let mut at = 0usize;
        while at < got.len() {
            let b = pos / BLOCK as u64;
            let start = (pos - b * BLOCK as u64) as usize;
            let n = (BLOCK - start).min(got.len() - at);
            fill_block(seed, self.id, b, self.versions[b as usize], &mut block);
            if block[start..start + n] != got[at..at + n] {
                return false;
            }
            at += n;
            pos += n as u64;
        }
        true
    }

    /// Record a whole-block write of `len` bytes at block-aligned
    /// `off` with `version`, and return the payload to send.
    pub fn write(&mut self, seed: u64, off: u64, len: usize, version: u32) -> Vec<u8> {
        assert!(
            (off as usize).is_multiple_of(BLOCK) && len.is_multiple_of(BLOCK) && off <= self.size
        );
        let end = off + len as u64;
        self.size = self.size.max(end);
        self.versions.resize(blocks_for(self.size), 0);
        let first = (off / BLOCK as u64) as usize;
        for v in &mut self.versions[first..first + len / BLOCK] {
            *v = version;
        }
        self.expected(seed, off, len)
    }

    /// Replace the whole file with `size` bytes at `version`, writing
    /// its bytes into `out`.
    pub fn replace(&mut self, seed: u64, size: u64, version: u32, out: &mut Vec<u8>) {
        self.size = size;
        self.versions = vec![version; blocks_for(size)];
        self.expected_into(seed, 0, size as usize, out);
    }
}

fn blocks_for(size: u64) -> usize {
    size.div_ceil(BLOCK as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_tail_block_is_rewritten_whole() {
        let mut m = FileModel::new(7, 5000);
        let before = m.expected(1, 0, 5000);
        assert!(m.matches(1, 0, 8192, &before));
        let payload = m.write(1, 4096, 8192, 3);
        assert_eq!(m.size, 12288);
        let now = m.expected(1, 0, 12288);
        assert_eq!(&now[..4096], &before[..4096]);
        assert_eq!(&now[4096..], &payload[..]);
        assert!(!m.matches(1, 0, 5000, &before));
    }
}
