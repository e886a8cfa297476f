//! Explicit SIMD distance kernels with runtime dispatch.
//!
//! The ACORN paper's cost model (§5, Table 3) makes distance computations
//! the dominant term in filtered-ANN serving, so this module gives the two
//! storage backends ([`VectorStore`](crate::VectorStore) and
//! [`Sq8Store`](crate::Sq8Store)) hand-written `std::arch` AVX2/FMA kernels
//! instead of relying on autovectorization. Dispatch happens once per
//! process: [`kernel_path`] probes `is_x86_feature_detected!` (and the
//! `ACORN_FORCE_SCALAR` environment variable) on first use and caches the
//! verdict, so the per-call overhead is one relaxed load and a predictable
//! branch. The decision lives in `acorn_predicate::kernels` and is
//! re-exported here, so the predicate block kernels and these distance
//! kernels always run on the same path.
//!
//! Rules of the road:
//!
//! * Every kernel has a portable scalar twin (`*_scalar`) that is the
//!   reference semantics; the SIMD variants may differ only by floating-point
//!   reassociation/FMA contraction (bounded, ULP-scale error — property
//!   tests in `tests/proptest_kernels.rs` enforce this).
//! * `ACORN_FORCE_SCALAR=1` pins the scalar path for A/B debugging and for
//!   the forced-scalar CI leg. Any other value (or unset) means "auto".
//! * [`l2_sq_x4`] scores four rows per call for the batched scan; each of
//!   its lanes is bit-identical to [`l2_sq`] on the same path.
//! * This module contains the only `unsafe` distance code in the workspace;
//!   each `unsafe` block is reachable only after the matching
//!   `is_x86_feature_detected!` probe succeeded, and only after the
//!   dispatcher checked that every slice has the query's length (the AVX2
//!   bodies size their loads by one slice and read all of them). A length
//!   mismatch panics on either path, in release builds too. It also holds
//!   the workspace's one cache-prefetch hint, [`prefetch`], which the vector
//!   stores and the graph lookups share.

pub use acorn_predicate::kernels::{kernel_path, KernelPath};

// ---------------------------------------------------------------------------
// f32 kernels
// ---------------------------------------------------------------------------

/// Squared Euclidean distance (dispatched).
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq of slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    if kernel_path() == KernelPath::Avx2Fma {
        // SAFETY: Avx2Fma is only cached after is_x86_feature_detected!
        // confirmed both avx2 and fma on this CPU, and the lengths were
        // checked above: every 8-lane load stays inside both slices.
        return unsafe { avx2::l2_sq(a, b) };
    }
    l2_sq_scalar(a, b)
}

/// Squared Euclidean distances from four rows to `q` at once (dispatched):
/// element `i` is bit-identical to `l2_sq(rows[i], q)`.
///
/// One `l2_sq` is a single chain of dependent FMAs, so it runs at the FMA's
/// latency, not its throughput; four interleaved chains keep the unit busy.
///
/// # Panics
/// Panics if any row's length differs from `q`'s.
#[inline]
pub fn l2_sq_x4(rows: [&[f32]; 4], q: &[f32]) -> [f32; 4] {
    for row in rows {
        assert_eq!(row.len(), q.len(), "l2_sq of slices of different lengths");
    }
    #[cfg(target_arch = "x86_64")]
    if kernel_path() == KernelPath::Avx2Fma {
        // SAFETY: see l2_sq — feature detection, then the length checks.
        return unsafe { avx2::l2_sq_x4(rows, q) };
    }
    rows.map(|row| l2_sq_scalar(row, q))
}

/// Ask the CPU to start loading the first cache line of `s`, and the second
/// when `s` spans more than one, ahead of a read. A hint only: it changes no
/// value, and compiles to nothing off x86_64.
#[inline]
pub fn prefetch<T>(s: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = s.as_ptr().cast::<i8>();
        // SAFETY: `_mm_prefetch` has no memory effects and never faults.
        // `p.add(64)` is formed only when `s` spans more than 64 bytes, so it
        // stays inside `s`.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(p);
            if std::mem::size_of_val(s) > 64 {
                _mm_prefetch::<_MM_HINT_T0>(p.add(64));
            }
        }
    }
}

/// Dot product (dispatched).
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    if kernel_path() == KernelPath::Avx2Fma {
        // SAFETY: see l2_sq — feature detection, then the length check.
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Portable squared-L2, written so the compiler can still autovectorize.
#[inline]
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let off = c * 8;
        for lane in 0..8 {
            let d = a[off + lane] - b[off + lane];
            acc[lane] += d * d;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * 8..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Portable dot product with an 8-lane accumulator.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let off = c * 8;
        for lane in 0..8 {
            acc[lane] += a[off + lane] * b[off + lane];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * 8..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

// ---------------------------------------------------------------------------
// SQ8 asymmetric kernels: f32 query vs u8 codes decoded as min + c * step
// ---------------------------------------------------------------------------

/// Asymmetric squared-L2 between an f32 query and one SQ8-coded row
/// (dispatched).
///
/// # Panics
/// Panics unless `codes`, `mins`, `steps` and `q` share one length.
#[inline]
pub fn sq8_l2_sq(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) -> f32 {
    assert_sq8_lengths(codes, mins, steps, q);
    #[cfg(target_arch = "x86_64")]
    if kernel_path() == KernelPath::Avx2Fma {
        // SAFETY: see l2_sq — feature detection, then the length check.
        return unsafe { avx2::sq8_l2_sq(codes, mins, steps, q) };
    }
    sq8_l2_sq_scalar(codes, mins, steps, q)
}

/// Asymmetric dot product between an f32 query and one SQ8-coded row
/// (dispatched).
///
/// # Panics
/// Panics unless `codes`, `mins`, `steps` and `q` share one length.
#[inline]
pub fn sq8_dot(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) -> f32 {
    assert_sq8_lengths(codes, mins, steps, q);
    #[cfg(target_arch = "x86_64")]
    if kernel_path() == KernelPath::Avx2Fma {
        // SAFETY: see l2_sq — feature detection, then the length check.
        return unsafe { avx2::sq8_dot(codes, mins, steps, q) };
    }
    sq8_dot_scalar(codes, mins, steps, q)
}

/// The dispatchers' guard for the SQ8 kernels: the AVX2 bodies load 8
/// lanes of every slice per chunk of `q`, so all four must be `q`'s length.
#[inline]
fn assert_sq8_lengths(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) {
    let n = q.len();
    assert!(
        codes.len() == n && mins.len() == n && steps.len() == n,
        "SQ8 kernel over a {n}-d query and a {}-d row ({} mins, {} steps)",
        codes.len(),
        mins.len(),
        steps.len()
    );
}

/// Portable asymmetric squared-L2 (reference semantics).
#[inline]
pub fn sq8_l2_sq_scalar(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(codes.len(), q.len());
    let mut sum = 0.0f32;
    for d in 0..q.len() {
        let x = mins[d] + codes[d] as f32 * steps[d];
        let diff = q[d] - x;
        sum += diff * diff;
    }
    sum
}

/// Portable asymmetric dot product (reference semantics).
#[inline]
pub fn sq8_dot_scalar(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(codes.len(), q.len());
    let mut sum = 0.0f32;
    for d in 0..q.len() {
        let x = mins[d] + codes[d] as f32 * steps[d];
        sum += q[d] * x;
    }
    sum
}

/// The AVX2/FMA implementations. Everything in here carries
/// `#[target_feature(enable = "avx2,fma")]` and must only be called after
/// runtime detection; the public dispatchers above are the sole callers
/// outside of tests.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of the 8 lanes of `v`.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    /// AVX2+FMA squared-L2.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; slices must have equal length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let off = c * 8;
            let pa = _mm256_loadu_ps(a.as_ptr().add(off));
            let pb = _mm256_loadu_ps(b.as_ptr().add(off));
            let d = _mm256_sub_ps(pa, pb);
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        let mut sum = hsum256(acc);
        for i in chunks * 8..n {
            let d = a[i] - b[i];
            sum += d * d;
        }
        sum
    }

    /// AVX2+FMA squared-L2 of four rows against one query: four
    /// accumulators, each in [`l2_sq`]'s exact operation order.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; every row must have `q`'s length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq_x4(rows: [&[f32]; 4], q: &[f32]) -> [f32; 4] {
        let n = q.len();
        let chunks = n / 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let off = c * 8;
            let pq = _mm256_loadu_ps(q.as_ptr().add(off));
            for (acc, row) in acc.iter_mut().zip(rows) {
                let d = _mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(off)), pq);
                *acc = _mm256_fmadd_ps(d, d, *acc);
            }
        }
        let mut sums = [0.0f32; 4];
        for ((sum, acc), row) in sums.iter_mut().zip(acc).zip(rows) {
            *sum = hsum256(acc);
            for i in chunks * 8..n {
                let d = row[i] - q[i];
                *sum += d * d;
            }
        }
        sums
    }

    /// AVX2+FMA dot product.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; slices must have equal length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let off = c * 8;
            let pa = _mm256_loadu_ps(a.as_ptr().add(off));
            let pb = _mm256_loadu_ps(b.as_ptr().add(off));
            acc = _mm256_fmadd_ps(pa, pb, acc);
        }
        let mut sum = hsum256(acc);
        for i in chunks * 8..n {
            sum += a[i] * b[i];
        }
        sum
    }

    /// Decode 8 u8 codes starting at `p` into f32 lanes.
    ///
    /// # Safety
    /// `p` must be valid for an 8-byte read; requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn load8_codes(p: *const u8) -> __m256 {
        let raw = _mm_loadl_epi64(p as *const __m128i);
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw))
    }

    /// AVX2+FMA asymmetric squared-L2 against SQ8 codes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; all four slices must share one
    /// length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_l2_sq(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) -> f32 {
        debug_assert_eq!(codes.len(), q.len());
        let n = q.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let off = c * 8;
            let x = load8_codes(codes.as_ptr().add(off));
            let mn = _mm256_loadu_ps(mins.as_ptr().add(off));
            let st = _mm256_loadu_ps(steps.as_ptr().add(off));
            let dec = _mm256_fmadd_ps(x, st, mn);
            let d = _mm256_sub_ps(_mm256_loadu_ps(q.as_ptr().add(off)), dec);
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        let mut sum = hsum256(acc);
        for i in chunks * 8..n {
            let x = mins[i] + codes[i] as f32 * steps[i];
            let d = q[i] - x;
            sum += d * d;
        }
        sum
    }

    /// AVX2+FMA asymmetric dot product against SQ8 codes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; all four slices must share one
    /// length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_dot(codes: &[u8], mins: &[f32], steps: &[f32], q: &[f32]) -> f32 {
        debug_assert_eq!(codes.len(), q.len());
        let n = q.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let off = c * 8;
            let x = load8_codes(codes.as_ptr().add(off));
            let mn = _mm256_loadu_ps(mins.as_ptr().add(off));
            let st = _mm256_loadu_ps(steps.as_ptr().add(off));
            let dec = _mm256_fmadd_ps(x, st, mn);
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(q.as_ptr().add(off)), dec, acc);
        }
        let mut sum = hsum256(acc);
        for i in chunks * 8..n {
            let x = mins[i] + codes[i] as f32 * steps[i];
            sum += q[i] * x;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if the AVX2+FMA kernels are callable on this CPU (regardless of
    /// the `ACORN_FORCE_SCALAR` override), so the tests can compare both
    /// paths explicitly.
    #[cfg(target_arch = "x86_64")]
    fn simd_available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    fn vecs(len: usize, seed: f32) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37 + seed).sin()).collect();
        let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.71 - seed).cos()).collect();
        (a, b)
    }

    fn close(x: f32, y: f32, len: usize) -> bool {
        // FMA contraction + reassociation error grows with length; allow a
        // few ULPs per accumulated term.
        let tol = 1e-5 * (len.max(1) as f32) * (1.0 + x.abs().max(y.abs()));
        (x - y).abs() <= tol
    }

    #[test]
    fn dispatched_matches_scalar_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 128] {
            let (a, b) = vecs(len, 0.3);
            assert!(close(l2_sq(&a, &b), l2_sq_scalar(&a, &b), len), "l2 len={len}");
            assert!(close(dot(&a, &b), dot_scalar(&a, &b), len), "dot len={len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_when_available() {
        if !simd_available() {
            return;
        }
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 128] {
            let (a, b) = vecs(len, 1.7);
            // SAFETY: guarded by simd_available().
            let (sl2, sdot) = unsafe { (avx2::l2_sq(&a, &b), avx2::dot(&a, &b)) };
            assert!(close(sl2, l2_sq_scalar(&a, &b), len), "l2 len={len}");
            assert!(close(sdot, dot_scalar(&a, &b), len), "dot len={len}");
        }
    }

    #[test]
    fn sq8_kernels_match_scalar() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 128] {
            let (q, _) = vecs(len, 2.2);
            let codes: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let mins: Vec<f32> = (0..len).map(|i| -1.0 - (i % 3) as f32 * 0.1).collect();
            let steps: Vec<f32> = (0..len).map(|i| 0.007 + (i % 5) as f32 * 1e-3).collect();
            let want_l2 = sq8_l2_sq_scalar(&codes, &mins, &steps, &q);
            let want_dot = sq8_dot_scalar(&codes, &mins, &steps, &q);
            assert!(close(sq8_l2_sq(&codes, &mins, &steps, &q), want_l2, len), "l2 len={len}");
            assert!(close(sq8_dot(&codes, &mins, &steps, &q), want_dot, len), "dot len={len}");
            #[cfg(target_arch = "x86_64")]
            if simd_available() {
                // SAFETY: guarded by simd_available().
                let (sl2, sdot) = unsafe {
                    (
                        avx2::sq8_l2_sq(&codes, &mins, &steps, &q),
                        avx2::sq8_dot(&codes, &mins, &steps, &q),
                    )
                };
                assert!(close(sl2, want_l2, len), "avx2 sq8 l2 len={len}");
                assert!(close(sdot, want_dot, len), "avx2 sq8 dot len={len}");
            }
        }
    }

    #[test]
    fn kernel_path_is_stable_and_named() {
        let p = kernel_path();
        assert_eq!(p, kernel_path(), "dispatch must be cached");
        assert_eq!(p, acorn_predicate::kernels::kernel_path(), "one decision for both crates");
        assert!(matches!(p.name(), "scalar" | "avx2+fma"));
    }
}
