//! CRC32 (IEEE 802.3) checksumming for on-disk formats.
//!
//! Every durable byte this workspace writes — index exports, segment files,
//! checkpoints, the manifest, write-ahead-log records — is covered by a CRC32
//! so that torn writes and bit rot are detected *before* any length field is
//! trusted. The polynomial is the standard reflected `0xEDB88320` (zlib, PNG);
//! no external crates.
//!
//! [`Crc32::update`] has two bodies, chosen per call:
//!
//! * **slicing-by-16**, the portable body and the reference the other is
//!   held to: sixteen 256-entry tables (16 KiB, computed at compile time)
//!   fold sixteen input bytes per step with sixteen independent lookups
//!   instead of sixteen dependent ones, and a bytewise loop over the first
//!   table finishes the tail. Table `k` maps a byte to its CRC contribution
//!   after `k` further zero bytes.
//! * **a carry-less-multiply fold** for inputs of 128 bytes or more
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel 2009): four 128-bit lanes are folded
//!   forward 64 bytes per step with `PCLMULQDQ`, folded into one lane, then
//!   reduced to 32 bits by Barrett reduction. It runs over the whole 16-byte
//!   blocks and hands its state to slicing-by-16 for the tail.
//!
//! The fold runs when [`kernels::kernel_path`](crate::kernels::kernel_path)
//! is `Avx2Fma` — the one cached decision the distance and predicate
//! kernels share, whose probe also requires PCLMULQDQ and SSE4.1 — so
//! `ACORN_FORCE_SCALAR=1` pins slicing-by-16. Both bodies take the running
//! state in and out, so the sums equal the bytewise algorithm's for every
//! input and every split of an input into `update` calls, on either path
//! (the test module keeps the bit-at-a-time loop as the reference and
//! checks both bodies against it).
//!
//! Two entry points:
//!
//! * [`crc32`] — one-shot checksum of a byte slice.
//! * [`Crc32`] / [`ChecksumWriter`] — incremental hashing for streamed
//!   serialization, where the checksum of everything written so far becomes
//!   the file footer. Hand either one long slices: the sliced loop only runs
//!   on pieces of sixteen bytes or more, the fold on pieces of 128.

use std::io::{self, Write};

#[cfg(target_arch = "x86_64")]
use crate::kernels::{kernel_path, KernelPath};

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
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN && kernel_path() == KernelPath::Avx2Fma {
            let (blocks, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: Avx2Fma is only cached after is_x86_feature_detected!
            // confirmed pclmulqdq and sse4.1 on this CPU, and `blocks` is
            // whole 16-byte blocks, at least 64 bytes.
            let c = unsafe { clmul::update(self.state, blocks) };
            self.state = sliced(c, tail);
            return;
        }
        self.state = sliced(self.state, bytes);
    }

    /// The checksum of everything folded in so far (the hasher stays
    /// usable; `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Slicing-by-16: the running state `c` after `bytes` (the portable body,
/// and the reference the fold is held to).
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
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
    c
}

/// The PCLMULQDQ fold (Gopal et al., 2009) with the bit-reflected IEEE
/// constants zlib and Linux's `crc32-pclmul` use. Everything here carries
/// `#[target_feature(enable = "pclmulqdq,sse4.1")]` and is only called by
/// [`Crc32::update`] after the cached probe (and by the tests after their
/// own).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest input [`Crc32::update`](super::Crc32::update) folds: the
    /// fold needs one 64-byte step, and below two its setup and reduction
    /// cost more than the table loop saves.
    pub(super) const MIN: usize = 128;

    /// `x` carried forward by 128 bits (`k3k4`) or 512 bits (`k1k2`): its
    /// low half times `k`'s low constant xor its high half times `k`'s high
    /// one.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11))
    }

    /// The running state after `bytes`, from the running state `state`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSE4.1; `bytes` must be whole
    /// 16-byte blocks, at least four of them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64 && bytes.len() % 16 == 0, "fold of {} bytes", bytes.len());
        let lane = |b: &[u8]| _mm_loadu_si128(b[..16].as_ptr().cast());
        // x^(4·128 ± 32) and x^(128 ± 32) mod P, then x^64 mod P, then
        // P itself and Barrett's ⌊x^64 / P⌋, each bit-reflected.
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);

        let mut steps = bytes.chunks_exact(64);
        let first = steps.next().expect("at least one 64-byte step");
        let mut x = [0, 16, 32, 48].map(|o| lane(&first[o..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        for step in &mut steps {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = _mm_xor_si128(fold(*xi, k1k2), lane(&step[16 * i..]));
            }
        }
        let mut acc = x[0];
        for &xi in &x[1..] {
            acc = _mm_xor_si128(fold(acc, k3k4), xi);
        }
        for block in steps.remainder().chunks_exact(16) {
            acc = _mm_xor_si128(fold(acc, k3k4), lane(block));
        }
        // 128 → 96 → 64 bits, then Barrett down to 32.
        acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        );
        let t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t), 1) as u32
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

    /// A deterministic stream of split points (64-bit LCG, high bits).
    fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
        let mut x = seed;
        move |below| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % below
        }
    }

    /// Both bodies on this CPU, called directly whatever `ACORN_FORCE_SCALAR`
    /// says: slicing-by-16 always, and the fold over the whole 16-byte
    /// blocks of any input of 64 bytes or more (below `clmul::MIN` too)
    /// with slicing-by-16 finishing the tail, as `update` runs it.
    fn each_body(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut sums = vec![("sliced", sliced(!0, bytes) ^ !0)];
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            let (blocks, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: both features were detected just above; `blocks` is
            // whole 16-byte blocks, at least four of them.
            let c = unsafe { clmul::update(!0, blocks) };
            sums.push(("fold", sliced(c, tail) ^ !0));
        }
        sums
    }

    #[test]
    fn a_mebibyte_split_at_random_points_equals_oneshot() {
        // Pieces from empty to a few KiB, so the state crosses between the
        // two bodies in every order.
        let data = noise(1 << 20);
        let want = reference(&data);
        assert_eq!(crc32(&data), want);
        for seed in 0..4 {
            let mut next = lcg(seed);
            let mut h = Crc32::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let cap = [16, 200, 5000][next(3)];
                let (head, tail) = rest.split_at(next(cap).min(rest.len()));
                h.update(head);
                rest = tail;
            }
            assert_eq!(h.finish(), want, "seed {seed}");
        }
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
        // steps, steps + tail) and across the fold's 64-byte step and
        // 128-byte threshold, at every start offset within a step of the
        // backing buffer: the dispatched sum and each body on this CPU.
        let data = noise(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let piece = &data[start..start + len];
                let want = reference(piece);
                assert_eq!(crc32(piece), want, "dispatched, start {start} len {len}");
                for (body, sum) in each_body(piece) {
                    assert_eq!(sum, want, "{body}, start {start} len {len}");
                }
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
        // tags and flags between bulk row and arena slices; then writes of
        // random sizes on either side of the fold's threshold.
        let data = noise(3 * (64 << 10) + 5);
        let mut mixed = [1, 64 << 10, 1, 1].into_iter().cycle();
        let mut next = lcg(7);
        for random in [false, true] {
            let mut w = ChecksumWriter::new(Vec::new());
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let take = if random { 1 + next(3000) } else { mixed.next().unwrap() };
                let (head, tail) = rest.split_at(take.min(rest.len()));
                w.write_all(head).unwrap();
                rest = tail;
            }
            assert_eq!(w.sum(), reference(&data));
            assert_eq!(w.into_inner(), data);
        }
    }
}
