//! CRC32 (IEEE 802.3) checksumming for on-disk formats.
//!
//! Every durable byte this workspace writes — index exports, segment files,
//! checkpoints, the manifest, write-ahead-log records — is covered by a CRC32
//! so that torn writes and bit rot are detected *before* any length field is
//! trusted. The polynomial is the standard reflected `0xEDB88320` (zlib, PNG);
//! no external crates.
//!
//! [`Crc32::update`] is slicing-by-16: sixteen 256-entry tables (16 KiB,
//! computed at compile time) fold sixteen input bytes per step with sixteen
//! independent lookups instead of sixteen dependent ones, and a bytewise
//! loop over the first table finishes the tail. Table `k` maps a byte to its
//! CRC contribution after `k` further zero bytes, so the sums equal the
//! bytewise algorithm's for every input and every split of an input into
//! `update` calls (the test module keeps the bit-at-a-time loop as the
//! reference).
//!
//! Two entry points:
//!
//! * [`crc32`] — one-shot checksum of a byte slice.
//! * [`Crc32`] / [`ChecksumWriter`] — incremental hashing for streamed
//!   serialization, where the checksum of everything written so far becomes
//!   the file footer. Hand either one long slices: the sliced loop only runs
//!   on pieces of sixteen bytes or more.

use std::io::{self, Write};

/// The reflected CRC32 polynomial (IEEE 802.3, zlib, PNG).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// An incremental CRC32 hasher.
///
/// ```
/// use acorn_hnsw::checksum::Crc32;
/// let mut h = Crc32::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finish(), acorn_hnsw::checksum::crc32(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher (empty input hashes to 0).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(16);
        for w in &mut words {
            let a = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            let b = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            let d = u32::from_le_bytes([w[8], w[9], w[10], w[11]]);
            let e = u32::from_le_bytes([w[12], w[13], w[14], w[15]]);
            c = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][(b & 0xFF) as usize]
                ^ t[10][((b >> 8) & 0xFF) as usize]
                ^ t[9][((b >> 16) & 0xFF) as usize]
                ^ t[8][(b >> 24) as usize]
                ^ t[7][(d & 0xFF) as usize]
                ^ t[6][((d >> 8) & 0xFF) as usize]
                ^ t[5][((d >> 16) & 0xFF) as usize]
                ^ t[4][(d >> 24) as usize]
                ^ t[3][(e & 0xFF) as usize]
                ^ t[2][((e >> 8) & 0xFF) as usize]
                ^ t[1][((e >> 16) & 0xFF) as usize]
                ^ t[0][(e >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything folded in so far (the hasher stays
    /// usable; `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// A [`Write`] adapter that forwards every byte to the inner writer while
/// folding it into a running [`Crc32`] — the streamed-serialization side of
/// the checksum-footer protocol: serialize through this, then append
/// [`sum`](Self::sum) as the file's footer.
#[derive(Debug)]
pub struct ChecksumWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> ChecksumWriter<W> {
    /// Wrap `inner`; the running checksum starts empty.
    pub fn new(inner: W) -> Self {
        Self { inner, crc: Crc32::new() }
    }

    /// Checksum of every byte successfully written so far.
    pub fn sum(&self) -> u32 {
        self.crc.finish()
    }

    /// Unwrap, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The inner writer (e.g. to append a footer that must *not* be part
    /// of its own checksum).
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise algorithm the sliced loop must agree with, kept apart
    /// from `TABLES` on purpose: one shift-and-xor per bit.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Canonical IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // Every length around the 16-byte step (none, tail only, whole
        // steps, steps + tail) at every start offset within a step of the
        // backing buffer.
        let data = noise(64 + 16);
        for start in 0..16 {
            for len in 0..=64 {
                let piece = &data[start..start + len];
                assert_eq!(crc32(piece), reference(piece), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        // Pieces shorter than, coprime to and longer than the 16-byte step:
        // the state carried between `update` calls is the bytewise state.
        let data = noise(10_000);
        let want = reference(&data);
        for piece in [1usize, 3, 7, 37] {
            let mut h = Crc32::new();
            for chunk in data.chunks(piece) {
                h.update(chunk);
            }
            assert_eq!(h.finish(), want, "pieces of {piece}");
        }
        assert_eq!(crc32(&data), want);
    }

    #[test]
    fn every_single_byte_flip_changes_the_sum() {
        let data: Vec<u8> = (0..512u32).map(|i| (i * 31 % 251) as u8).collect();
        let base = crc32(&data);
        let mut flipped = data.clone();
        for i in 0..flipped.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit} went undetected");
                flipped[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn checksum_writer_matches_oneshot() {
        // Mixed 1-byte and 64 KiB writes, the shapes a serializer produces:
        // tags and flags between bulk row and arena slices.
        let data = noise(3 * (64 << 10) + 5);
        let mut w = ChecksumWriter::new(Vec::new());
        let mut rest = data.as_slice();
        while !rest.is_empty() {
            for take in [1, 64 << 10, 1, 1] {
                let (head, tail) = rest.split_at(take.min(rest.len()));
                w.write_all(head).unwrap();
                rest = tail;
            }
        }
        assert_eq!(w.sum(), reference(&data));
        assert_eq!(w.into_inner(), data);
    }
}
