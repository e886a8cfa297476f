//! Block kernels for the cheap leaves of a compiled predicate, and the
//! process-wide choice between their scalar and AVX2 bodies.
//!
//! A block kernel answers one leaf test — `==`, `between`, small-span `In`,
//! keyword `contains any` / `contains all` — for the 64 rows `base..base + 64`
//! of a column, one bit per row, with no data-dependent branch. Each has two
//! bodies:
//!
//! * a portable scalar loop, which is the reference semantics and also
//!   answers the partial block at the end of a column;
//! * an AVX2 body over a full 64-row block: 16 four-lane 64-bit compares
//!   (`_mm256_cmpeq_epi64` / `_mm256_cmpgt_epi64`, the variable shift
//!   `_mm256_srlv_epi64` for `In`), each folded into four mask bits. Baseline
//!   x86-64 has no 64-bit vector compare, so without it the int leaves run
//!   one row at a time.
//!
//! [`literal_block`] is the text leaf's kernel: substring search over the
//! rows of a [`TextArena`], `str::contains` per row on the scalar body and a
//! 32-byte first-/last-byte filter on the AVX2 one (see its docs).
//!
//! [`kernel_path`] decides once per process which body runs. The distance
//! kernels (`acorn_hnsw::kernels`) re-export it, so one decision — and one
//! `ACORN_FORCE_SCALAR=1` override — covers both crates. The property tests
//! in `tests/proptest_compiled.rs` and `tests/proptest_text.rs` hold either
//! path to the interpreter.

use std::ops::Range;

use crate::attrs::TextArena;

/// Which kernel implementation the process dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable scalar loops (reference semantics).
    Scalar,
    /// `std::arch` AVX2 + FMA intrinsics (x86_64 only).
    Avx2Fma,
}

impl KernelPath {
    /// Stable lowercase name for logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2Fma => "avx2+fma",
        }
    }
}

/// The kernel path this process uses, decided once and cached.
///
/// Scalar is forced when `ACORN_FORCE_SCALAR=1` is set; otherwise AVX2+FMA
/// is selected iff the CPU reports both features at runtime.
pub fn kernel_path() -> KernelPath {
    use std::sync::OnceLock;
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        if std::env::var("ACORN_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            return KernelPath::Scalar;
        }
        detected_path()
    })
}

/// What the hardware supports, ignoring the `ACORN_FORCE_SCALAR` override.
#[cfg(target_arch = "x86_64")]
fn detected_path() -> KernelPath {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        KernelPath::Avx2Fma
    } else {
        KernelPath::Scalar
    }
}

/// Non-x86_64 targets always run the portable loops.
#[cfg(not(target_arch = "x86_64"))]
fn detected_path() -> KernelPath {
    KernelPath::Scalar
}

// ---------------------------------------------------------------------------
// Row tests: what one bit of a block means. Branch-free, so the scalar cost
// does not depend on the data.
// ---------------------------------------------------------------------------

/// `lo <= v <= hi`.
#[inline]
pub(crate) fn between(v: i64, lo: i64, hi: i64) -> bool {
    (lo <= v) & (v <= hi)
}

/// Bit `v - base` of `mask`, false outside `base..base + 64`. `mask` only
/// has bits for values of its `In` list, so none past `i64::MAX - base`;
/// that is why the wrapping difference needs no wider type: a `v` below
/// `base` wraps to 64 or more unless `base + d` overflows `i64`, and bit
/// `d` is then clear.
#[inline]
pub(crate) fn in_mask(v: i64, base: i64, mask: u64) -> bool {
    let d = v.wrapping_sub(base) as u64;
    (d < 64) & (mask >> (d & 63) & 1 == 1)
}

// ---------------------------------------------------------------------------
// Dispatched block kernels: rows `base..min(base + 64, col.len())`, bit `i`
// for row `base + i`.
// ---------------------------------------------------------------------------

/// Rows equal to `value`.
#[inline]
pub(crate) fn equals_block(path: KernelPath, col: &[i64], base: usize, value: i64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (KernelPath::Avx2Fma, Some(block)) = (path, full_block(col, base)) {
        // SAFETY: `Avx2Fma` is only produced after AVX2 was detected on
        // this CPU, and the body reads exactly the 64 rows of `block`.
        return unsafe { avx2::equals(block, value) };
    }
    scalar_block(col, base, |v| v == value)
}

/// Rows in `lo..=hi` (none when `lo > hi`).
#[inline]
pub(crate) fn between_block(path: KernelPath, col: &[i64], base: usize, lo: i64, hi: i64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (KernelPath::Avx2Fma, Some(block)) = (path, full_block(col, base)) {
        // SAFETY: see `equals_block`.
        return unsafe { avx2::between(block, lo, hi) };
    }
    scalar_block(col, base, |v| between(v, lo, hi))
}

/// Rows whose value is in the small-span set `(base, mask)` ([`in_mask`]).
#[inline]
pub(crate) fn in_mask_block(
    path: KernelPath,
    col: &[i64],
    base: usize,
    value_base: i64,
    mask: u64,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (KernelPath::Avx2Fma, Some(block)) = (path, full_block(col, base)) {
        // SAFETY: see `equals_block`.
        return unsafe { avx2::in_mask(block, value_base, mask) };
    }
    scalar_block(col, base, |v| in_mask(v, value_base, mask))
}

/// Rows whose keyword set meets `mask`.
#[inline]
pub(crate) fn contains_any_block(path: KernelPath, col: &[u64], base: usize, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (KernelPath::Avx2Fma, Some(block)) = (path, full_block(col, base)) {
        // SAFETY: see `equals_block`.
        return unsafe { avx2::contains_any(block, mask) };
    }
    scalar_block(col, base, |kw| kw & mask != 0)
}

/// Rows whose keyword set includes all of `mask`.
#[inline]
pub(crate) fn contains_all_block(path: KernelPath, col: &[u64], base: usize, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let (KernelPath::Avx2Fma, Some(block)) = (path, full_block(col, base)) {
        // SAFETY: see `equals_block`.
        return unsafe { avx2::contains_all(block, mask) };
    }
    scalar_block(col, base, |kw| kw & mask == mask)
}

/// Rows `base + i`, for the set bits `i` of `active`, whose text contains
/// `needle`, as bit `i`: per row, `arena.row(base + i).contains(needle)`.
/// `active` may only name rows of the arena.
///
/// Rows lie back to back in the arena, so each maximal run of set bits in
/// `active` is one contiguous byte span, and each span is scanned once: a
/// dense block is one span, and a sparse mask reads only its own rows'
/// bytes. On [`KernelPath::Avx2Fma`] a span is scanned 32 candidate starts
/// per step, each compared at once against the needle's first byte and,
/// `needle.len() - 1` bytes on, its last; every candidate both accept is
/// confirmed by a byte compare and mapped to its row through the starts. A
/// match that crosses a row end does not count, and after a hit the scan
/// resumes at the next row's start. The scalar body — the reference — is
/// `str::contains` per row. The two agree because both needle and text are
/// UTF-8: a byte match of a UTF-8 needle starts and ends on code point
/// boundaries, which is the match `str::contains` finds.
pub fn literal_block(
    path: KernelPath,
    arena: &TextArena,
    base: usize,
    active: u64,
    needle: &str,
) -> u64 {
    let mut hits = 0u64;
    let mut rem = active;
    while rem != 0 {
        let lo = rem.trailing_zeros();
        let len = (!(rem >> lo)).trailing_zeros();
        rem &= !(u64::MAX >> (64 - len) << lo);
        let rows = base + lo as usize..base + (lo + len) as usize;
        hits |= literal_span(path, arena, rows, needle) << lo;
    }
    hits
}

/// [`literal_block`] over one run of rows, bit `i` for row `rows.start + i`.
#[inline]
fn literal_span(path: KernelPath, arena: &TextArena, rows: Range<usize>, needle: &str) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2Fma && !needle.is_empty() {
        let starts = &arena.starts()[rows.start..=rows.end];
        // SAFETY: `Avx2Fma` is only produced after AVX2 was detected on this
        // CPU; the body checks its loads against `bytes` itself.
        return unsafe { avx2::literal_span(arena.bytes(), starts, needle.as_bytes()) };
    }
    rows.enumerate().fold(0, |w, (i, r)| w | u64::from(arena.row(r).contains(needle)) << i)
}

/// The scalar body of every block kernel (and the `InSorted` leaf's only
/// one): `test` on each row of the block, packed into a mask word.
#[inline]
pub(crate) fn scalar_block<T: Copy>(col: &[T], base: usize, test: impl Fn(T) -> bool) -> u64 {
    let end = col.len().min(base + 64);
    let mut w = 0u64;
    for (i, &v) in col[base..end].iter().enumerate() {
        w |= u64::from(test(v)) << i;
    }
    w
}

/// Rows `base..base + 64` of `col` when the column has all of them.
#[cfg(target_arch = "x86_64")]
#[inline]
fn full_block<T>(col: &[T], base: usize) -> Option<&[T; 64]> {
    col.get(base..base.checked_add(64)?)?.try_into().ok()
}

/// The AVX2 bodies. Each takes a whole 64-row block by reference, so its
/// loads stay inside the column by construction; the only precondition is
/// the CPU feature.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Four rows starting at row `4 * i` of a block of `i64` or `u64`.
    ///
    /// # Safety
    /// Requires AVX2 at runtime; `i < 16`; `T` is 8 bytes wide.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load4<T>(block: &[T; 64], i: usize) -> __m256i {
        debug_assert!(i < 16 && std::mem::size_of::<T>() == 8);
        _mm256_loadu_si256(block.as_ptr().add(4 * i) as *const __m256i)
    }

    /// The four lane verdicts of an all-ones / all-zeros compare, as the low
    /// four bits of a word.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lanes(m: __m256i) -> u64 {
        _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u64
    }

    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn equals(block: &[i64; 64], value: i64) -> u64 {
        let x = _mm256_set1_epi64x(value);
        let mut w = 0u64;
        for i in 0..16 {
            w |= lanes(_mm256_cmpeq_epi64(load4(block, i), x)) << (4 * i);
        }
        w
    }

    /// Collects the rows *outside* `lo..=hi` (`lo > v` or `v > hi`, two
    /// signed compares) and inverts once at the end.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn between(block: &[i64; 64], lo: i64, hi: i64) -> u64 {
        let (lo, hi) = (_mm256_set1_epi64x(lo), _mm256_set1_epi64x(hi));
        let mut outside = 0u64;
        for i in 0..16 {
            let v = load4(block, i);
            let out = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v), _mm256_cmpgt_epi64(v, hi));
            outside |= lanes(out) << (4 * i);
        }
        !outside
    }

    /// `mask >> (v - base)` per lane: `_mm256_srlv_epi64` yields 0 for a
    /// shift of 64 or more, which is the window test of `super::in_mask`
    /// for free; the bit is then moved to the sign position `lanes` reads.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn in_mask(block: &[i64; 64], base: i64, mask: u64) -> u64 {
        let (base, mask) = (_mm256_set1_epi64x(base), _mm256_set1_epi64x(mask as i64));
        let mut w = 0u64;
        for i in 0..16 {
            let d = _mm256_sub_epi64(load4(block, i), base);
            let bit = _mm256_slli_epi64(_mm256_srlv_epi64(mask, d), 63);
            w |= lanes(bit) << (4 * i);
        }
        w
    }

    /// Collects the rows with no keyword of `mask` and inverts at the end.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn contains_any(block: &[u64; 64], mask: u64) -> u64 {
        let (mask, zero) = (_mm256_set1_epi64x(mask as i64), _mm256_setzero_si256());
        let mut none = 0u64;
        for i in 0..16 {
            let hit = _mm256_and_si256(load4(block, i), mask);
            none |= lanes(_mm256_cmpeq_epi64(hit, zero)) << (4 * i);
        }
        !none
    }

    /// The rows `starts.windows(2)` of `bytes` that contain `needle`
    /// (non-empty), bit `i` for row `i`: see `super::literal_block`. A
    /// candidate start `p` is a byte where `needle[0]` sits and, at
    /// `p + needle.len() - 1`, `needle`'s last byte does. Every load begins
    /// at or before the span's last candidate start plus
    /// `needle.len() - 1`, so it ends at most 31 bytes past the span, which
    /// the arena's padding covers; the assert checks exactly that.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn literal_span(bytes: &[u8], starts: &[usize], needle: &[u8]) -> u64 {
        let (start, end, m) = (starts[0], starts[starts.len() - 1], needle.len());
        if end - start < m {
            return 0;
        }
        let last_start = end - m;
        assert!(end + 31 <= bytes.len(), "a text span needs 32 bytes of padding past it");
        let first = _mm256_set1_epi8(needle[0] as i8);
        let last = _mm256_set1_epi8(needle[m - 1] as i8);
        let (mut hits, mut row, mut p) = (0u64, 0usize, start);
        'scan: while p <= last_start {
            let at_first = _mm256_loadu_si256(bytes.as_ptr().add(p) as *const __m256i);
            let at_last = _mm256_loadu_si256(bytes.as_ptr().add(p + m - 1) as *const __m256i);
            let both = _mm256_and_si256(
                _mm256_cmpeq_epi8(at_first, first),
                _mm256_cmpeq_epi8(at_last, last),
            );
            let mut candidates = _mm256_movemask_epi8(both) as u32;
            if last_start - p < 31 {
                candidates &= u32::MAX >> (31 - (last_start - p));
            }
            while candidates != 0 {
                let q = p + candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                while starts[row + 1] <= q {
                    row += 1;
                }
                let row_end = starts[row + 1];
                if q + m <= row_end && bytes[q..q + m] == *needle {
                    hits |= 1 << row;
                    p = row_end;
                    continue 'scan;
                }
            }
            p += 32;
        }
        hits
    }

    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn contains_all(block: &[u64; 64], mask: u64) -> u64 {
        let mask = _mm256_set1_epi64x(mask as i64);
        let mut w = 0u64;
        for i in 0..16 {
            let hit = _mm256_and_si256(load4(block, i), mask);
            w |= lanes(_mm256_cmpeq_epi64(hit, mask)) << (4 * i);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values around every boundary the kernels compare against.
    fn column() -> Vec<i64> {
        let edges = [i64::MIN, i64::MIN + 1, -65, -64, -1, 0, 1, 2, 62, 63, 64, 65, i64::MAX - 1];
        (0..200).map(|i| if i % 3 == 0 { i64::MAX } else { edges[i % edges.len()] }).collect()
    }

    /// Every dispatched kernel equals its scalar body on both paths, at
    /// every start (so full and partial blocks, aligned or not).
    #[test]
    fn both_paths_equal_the_scalar_body_at_every_start() {
        let ints = column();
        let kws: Vec<u64> = ints.iter().map(|&v| v as u64).collect();
        let masks = [0u64, 1, 1 << 63, u64::MAX, 0x8000_0000_0000_0001];
        let bounds = [i64::MIN, -1, 0, 63, i64::MAX];
        for path in [KernelPath::Scalar, kernel_path()] {
            for base in 0..ints.len() {
                for &x in &bounds {
                    let want = scalar_block(&ints, base, |v| v == x);
                    assert_eq!(equals_block(path, &ints, base, x), want, "== {x} at {base}");
                    for &y in &bounds {
                        let want = scalar_block(&ints, base, |v| between(v, x, y));
                        assert_eq!(between_block(path, &ints, base, x, y), want, "{x}..={y}");
                    }
                    for &m in &masks {
                        let want = scalar_block(&ints, base, |v| in_mask(v, x, m));
                        assert_eq!(in_mask_block(path, &ints, base, x, m), want, "in {x}/{m:#x}");
                    }
                }
                for &m in &masks {
                    let any = scalar_block(&kws, base, |kw| kw & m != 0);
                    let all = scalar_block(&kws, base, |kw| kw & m == m);
                    assert_eq!(contains_any_block(path, &kws, base, m), any, "any {m:#x}");
                    assert_eq!(contains_all_block(path, &kws, base, m), all, "all {m:#x}");
                }
            }
        }
    }

    #[test]
    fn in_mask_is_membership_in_the_window_even_at_the_extremes() {
        // The oracle: exact integer arithmetic.
        let oracle = |v: i64, base: i64, mask: u64| {
            let d = i128::from(v) - i128::from(base);
            (0..64).contains(&d) && mask >> d & 1 == 1
        };
        let values = [i64::MIN, i64::MIN + 5, -1, 0, 5, 63, 64, i64::MAX - 10, i64::MAX];
        for &base in &values {
            // Only bits for representable values, as `lower_in` builds them.
            let span = (i128::from(i64::MAX) - i128::from(base)).min(63) as u32;
            let listed = u64::MAX >> (63 - span);
            for mask in [u64::MAX, 1 << 63, 1, 0x0F0F].map(|m| m & listed) {
                for &v in &values {
                    assert_eq!(in_mask(v, base, mask), oracle(v, base, mask), "{v} in {base}");
                }
            }
        }
    }

    #[test]
    fn kernel_path_is_cached_and_the_override_pins_scalar() {
        let p = kernel_path();
        assert_eq!(p, kernel_path(), "dispatch must be cached");
        if std::env::var("ACORN_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            assert_eq!(p, KernelPath::Scalar, "the override pins the scalar path");
        }
    }
}
