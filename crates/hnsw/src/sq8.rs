//! 8-bit scalar quantization (the SQ8 codec behind Milvus IVF-SQ8).
//!
//! Each dimension is linearly mapped to `0..=255` using a per-dimension
//! `min`/`step` codebook trained on the dataset (`step = (max - min) / 255`,
//! clamped away from zero). Distances are computed asymmetrically: the query
//! stays in f32 and codes are dequantized on the fly inside the
//! [`crate::kernels`] SQ8 kernels, which keeps the recall loss
//! small while cutting vector memory ~4×.
//!
//! [`Sq8Store`] implements [`VectorData`], so IVF-SQ8 scores its lists
//! through the same exact scan ([`crate::search::exact_top_k`]) as the f32
//! baselines do. No ACORN segment traverses codes: the SQ8 kernels are
//! slower than the f32 ones today, and the f32 rows would stay resident.

use crate::kernels;
use crate::vecs::{Metric, VectorData, VectorStore};

/// Smallest permitted quantization step. A constant (or empty) dimension
/// would otherwise train `step = 0`, making `(x - min) / step` divide by
/// zero during encoding; clamping keeps the codec total while the decode
/// error for such dimensions stays at most the clamp itself.
pub const MIN_STEP: f32 = f32::EPSILON;

/// A trained per-dimension scalar quantizer plus the encoded dataset.
#[derive(Debug, Clone)]
pub struct Sq8Store {
    dim: usize,
    mins: Vec<f32>,
    steps: Vec<f32>, // (max - min) / 255, clamped to >= MIN_STEP
    codes: Vec<u8>,
    norms: Vec<f32>, // L2 norm of each decoded row (cosine support)
}

impl Sq8Store {
    /// Train a codebook on `vecs` and encode every row.
    ///
    /// An empty store yields an identity-ish codebook (`min = 0`,
    /// `step = MIN_STEP`) with no rows. Constant dimensions get the clamped
    /// [`MIN_STEP`] instead of a zero step.
    pub fn train(vecs: &VectorStore) -> Self {
        let dim = vecs.dim();
        if vecs.is_empty() {
            return Self {
                dim,
                mins: vec![0.0; dim],
                steps: vec![MIN_STEP; dim],
                codes: Vec::new(),
                norms: Vec::new(),
            };
        }
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for i in 0..vecs.len() as u32 {
            for (d, &x) in vecs.get(i).iter().enumerate() {
                mins[d] = mins[d].min(x);
                maxs[d] = maxs[d].max(x);
            }
        }
        let steps: Vec<f32> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| {
                let s = (hi - lo) / 255.0;
                if s.is_finite() {
                    s.max(MIN_STEP)
                } else {
                    MIN_STEP
                }
            })
            .collect();
        let mut out = Self { dim, mins, steps, codes: Vec::new(), norms: Vec::new() };
        out.codes.reserve(vecs.len() * dim);
        for i in 0..vecs.len() as u32 {
            out.push_after_train(vecs.get(i));
        }
        out
    }

    /// Encode one row with the already-trained codebook and append it:
    /// [`train`](Self::train)'s encoder, clamping values outside the
    /// codebook's range.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    fn push_after_train(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        let id = self.len() as u32;
        let mut norm_sq = 0.0f32;
        for (d, &x) in v.iter().enumerate() {
            let q = ((x - self.mins[d]) / self.steps[d]).round().clamp(0.0, 255.0);
            self.codes.push(q as u8);
            let dec = self.mins[d] + q * self.steps[d];
            norm_sq += dec * dec;
        }
        self.norms.push(norm_sq.sqrt());
        id
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.codes.len() / self.dim
    }

    /// True if nothing is encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-dimension lower bounds of the codebook.
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-dimension quantization steps of the codebook.
    pub fn steps(&self) -> &[f32] {
        &self.steps
    }

    /// Borrow the raw codes of row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn codes_of(&self, i: u32) -> &[u8] {
        let start = i as usize * self.dim;
        &self.codes[start..start + self.dim]
    }

    /// Bytes used by codes + codec tables + cached row norms.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len()
            + (self.mins.len() + self.steps.len() + self.norms.len()) * std::mem::size_of::<f32>()
    }

    /// Decode vector `i` into `out` (test/debug helper).
    pub fn decode_into(&self, i: u32, out: &mut Vec<f32>) {
        out.clear();
        for (d, &c) in self.codes_of(i).iter().enumerate() {
            out.push(self.mins[d] + c as f32 * self.steps[d]);
        }
    }

    /// Metric dispatch against one coded row, given a precomputed query norm
    /// (only used by Cosine; pass anything otherwise).
    #[inline]
    fn distance_with_qnorm(&self, metric: Metric, i: u32, query: &[f32], qnorm: f32) -> f32 {
        let codes = self.codes_of(i);
        match metric {
            Metric::L2 => kernels::sq8_l2_sq(codes, &self.mins, &self.steps, query),
            Metric::InnerProduct => -kernels::sq8_dot(codes, &self.mins, &self.steps, query),
            Metric::Cosine => {
                let n = self.norms[i as usize];
                if qnorm == 0.0 || n == 0.0 {
                    return 0.0;
                }
                -(kernels::sq8_dot(codes, &self.mins, &self.steps, query) / (qnorm * n))
            }
        }
    }
}

impl VectorData for Sq8Store {
    fn len(&self) -> usize {
        Sq8Store::len(self)
    }

    fn is_empty(&self) -> bool {
        Sq8Store::is_empty(self)
    }

    fn dim(&self) -> usize {
        Sq8Store::dim(self)
    }

    fn memory_bytes(&self) -> usize {
        Sq8Store::memory_bytes(self)
    }

    fn distance_to(&self, metric: Metric, i: u32, query: &[f32]) -> f32 {
        let qnorm = if metric == Metric::Cosine { kernels::dot(query, query).sqrt() } else { 0.0 };
        self.distance_with_qnorm(metric, i, query, qnorm)
    }

    fn distances_batch(&self, metric: Metric, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        /// Rows ahead to prefetch; codes are dense, so a short lead suffices.
        const PREFETCH_AHEAD: usize = 4;
        out.clear();
        out.reserve(ids.len());
        let qnorm = if metric == Metric::Cosine { kernels::dot(query, query).sqrt() } else { 0.0 };
        for (i, &id) in ids.iter().enumerate() {
            if let Some(&ahead) = ids.get(i + PREFETCH_AHEAD) {
                // One line covers 64 coded dimensions, so a single hint
                // suffices for typical embedding sizes.
                kernels::prefetch(&self.codes_of(ahead)[..self.dim.min(64)]);
            }
            out.push(self.distance_with_qnorm(metric, id, query, qnorm));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worst-case per-dimension quantization error: half a quantization step.
    fn max_step(sq: &Sq8Store) -> f32 {
        sq.steps().iter().fold(0.0f32, |a, &s| a.max(s)) * 0.5
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let vecs = random_store(200, 16, 1);
        let sq = Sq8Store::train(&vecs);
        let mut decoded = Vec::new();
        for i in 0..vecs.len() as u32 {
            sq.decode_into(i, &mut decoded);
            for (d, (&orig, &dec)) in vecs.get(i).iter().zip(&decoded).enumerate() {
                let step = max_step(&sq);
                assert!(
                    (orig - dec).abs() <= step + 1e-5,
                    "dim {d}: |{orig} - {dec}| > step {step}"
                );
            }
        }
    }

    #[test]
    fn asymmetric_distance_close_to_exact() {
        let vecs = random_store(300, 32, 2);
        let sq = Sq8Store::train(&vecs);
        let q: Vec<f32> = (0..32).map(|i| (i as f32 * 0.1).sin()).collect();
        for i in 0..vecs.len() as u32 {
            let exact = Metric::L2.distance(vecs.get(i), &q);
            let approx = sq.distance_to(Metric::L2, i, &q);
            // Relative error stays small (quantization noise only).
            assert!(
                (exact - approx).abs() <= 0.05 * exact.max(1.0),
                "vector {i}: exact {exact} vs sq8 {approx}"
            );
        }
    }

    #[test]
    fn memory_is_roughly_quarter_of_f32() {
        let vecs = random_store(1000, 64, 3);
        let sq = Sq8Store::train(&vecs);
        let f32_bytes = VectorData::memory_bytes(&vecs);
        assert!(sq.memory_bytes() < f32_bytes / 3, "SQ8 must save ~4x memory");
    }

    #[test]
    fn constant_dimension_gets_clamped_step() {
        let mut s = VectorStore::new(2);
        s.push(&[1.0, 5.0]);
        s.push(&[2.0, 5.0]); // dim 1 is constant: step would be 0
        let sq = Sq8Store::train(&s);
        assert!(sq.steps()[1] >= MIN_STEP, "constant dim must clamp, got {}", sq.steps()[1]);
        let mut out = Vec::new();
        sq.decode_into(0, &mut out);
        assert!((out[1] - 5.0).abs() < 1e-6);
        // Encoding with the clamped step must not produce NaN/inf codes.
        assert!(sq.distance_to(Metric::L2, 0, &[1.0, 5.0]).is_finite());
    }

    #[test]
    fn empty_store_trains_without_panicking() {
        let sq = Sq8Store::train(&VectorStore::new(4));
        assert!(sq.is_empty());
        assert_eq!(sq.dim(), 4);
        assert!(sq.steps().iter().all(|&s| s >= MIN_STEP));
        let mut sq = sq;
        // Rows pushed after an empty train still encode (coarsely) without
        // dividing by zero.
        let id = sq.push_after_train(&[0.5, -0.5, 0.0, 1.0]);
        assert_eq!(id, 0);
        assert!(sq.distance_to(Metric::L2, 0, &[0.0; 4]).is_finite());
    }

    #[test]
    fn push_after_train_matches_train_encoding() {
        let vecs = random_store(50, 8, 7);
        let trained = Sq8Store::train(&vecs);
        let mut incremental = trained.clone();
        let extra: Vec<f32> = (0..8).map(|d| (d as f32 * 0.3).sin()).collect();
        let id = incremental.push_after_train(&extra);
        assert_eq!(id as usize, vecs.len());
        let mut dec = Vec::new();
        incremental.decode_into(id, &mut dec);
        for (d, (&orig, &got)) in extra.iter().zip(&dec).enumerate() {
            let lo = trained.mins()[d];
            let hi = lo + 255.0 * trained.steps()[d];
            let clamped = orig.clamp(lo, hi);
            assert!((clamped - got).abs() <= max_step(&trained) * 2.0 + 1e-5, "dim {d}");
        }
    }

    #[test]
    fn vector_data_batch_matches_distance_to() {
        let vecs = random_store(60, 24, 11);
        let sq = Sq8Store::train(&vecs);
        let q: Vec<f32> = (0..24).map(|d| (d as f32 * 0.17).cos()).collect();
        let ids: Vec<u32> = vec![59, 0, 13, 13, 42, 7];
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let mut out = vec![5.0];
            VectorData::distances_batch(&sq, metric, &q, &ids, &mut out);
            assert_eq!(out.len(), ids.len());
            for (&id, &d) in ids.iter().zip(&out) {
                assert_eq!(d, VectorData::distance_to(&sq, metric, id, &q), "{metric:?} {id}");
            }
        }
    }

    #[test]
    fn top1_neighbor_preserved_under_quantization() {
        let vecs = random_store(500, 16, 4);
        let sq = Sq8Store::train(&vecs);
        let mut rng = StdRng::seed_from_u64(5);
        let mut agree = 0;
        for _ in 0..30 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let exact = (0..vecs.len() as u32)
                .min_by(|&a, &b| {
                    Metric::L2
                        .distance(vecs.get(a), &q)
                        .total_cmp(&Metric::L2.distance(vecs.get(b), &q))
                })
                .unwrap();
            let approx = (0..sq.len() as u32)
                .min_by(|&a, &b| {
                    sq.distance_to(Metric::L2, a, &q).total_cmp(&sq.distance_to(Metric::L2, b, &q))
                })
                .unwrap();
            if exact == approx {
                agree += 1;
            }
        }
        assert!(agree >= 27, "top-1 agreement too low: {agree}/30");
    }
}
