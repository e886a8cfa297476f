//! The stochastic level assignment shared by HNSW and ACORN.
//!
//! Each inserted element receives a maximum layer index drawn from an
//! exponentially decaying distribution: `l = floor(-ln(U) * mL)` with
//! `U ~ Uniform(0,1)` and `mL = 1 / ln(M)`.
//!
//! ACORN-γ deliberately keeps `mL` tied to `M` (not `M·γ`): §5.2 and the
//! related-work discussion of Qdrant explain that densifying the graph while
//! *preserving* the level normalization constant is what keeps predicate
//! subgraphs hierarchical. This module therefore exposes `mL` explicitly so
//! tests can assert it never depends on γ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws maximum-level indices for inserted nodes.
#[derive(Debug, Clone)]
pub struct LevelSampler {
    ml: f64,
    rng: StdRng,
}

impl LevelSampler {
    /// Sampler with `mL = 1/ln(m)` (the HNSW/ACORN default).
    ///
    /// # Panics
    /// Panics if `m < 2` (level normalization is undefined for `m < 2`).
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m >= 2, "level sampler requires M >= 2");
        Self { ml: 1.0 / (m as f64).ln(), rng: StdRng::seed_from_u64(seed) }
    }

    /// The level normalization constant `mL`.
    #[inline]
    pub fn ml(&self) -> f64 {
        self.ml
    }

    /// Draw the maximum level index for the next inserted element.
    #[inline]
    pub fn sample(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        (-u.ln() * self.ml).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml_matches_definition() {
        let s = LevelSampler::new(32, 0);
        assert!((s.ml() - 1.0 / 32f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn level_zero_dominates() {
        let mut s = LevelSampler::new(16, 42);
        let n = 100_000;
        let mut at_zero = 0usize;
        for _ in 0..n {
            if s.sample() == 0 {
                at_zero += 1;
            }
        }
        // P(l = 0) = 1 - M^{-1} = 0.9375 for M = 16.
        let frac = at_zero as f64 / n as f64;
        assert!((frac - 0.9375).abs() < 0.01, "fraction at level 0 was {frac}");
    }

    #[test]
    fn expected_level_matches_geometric_closed_form() {
        // l = floor(Exp(ln M)) is geometric: E[l] = sum_{k>=1} M^{-k} = 1/(M-1).
        // (The paper's §6.1 uses the continuous approximation mL; the floor
        // makes the exact mean 1/(M-1).)
        let mut s = LevelSampler::new(32, 7);
        let n = 200_000;
        let sum: usize = (0..n).map(|_| s.sample()).sum();
        let mean = sum as f64 / n as f64;
        let want = 1.0 / 31.0;
        assert!((mean - want).abs() < 0.005, "mean={mean} want={want}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = LevelSampler::new(8, 99);
        let mut b = LevelSampler::new(8, 99);
        let xs: Vec<usize> = (0..100).map(|_| a.sample()).collect();
        let ys: Vec<usize> = (0..100).map(|_| b.sample()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "M >= 2")]
    fn m_below_two_panics() {
        let _ = LevelSampler::new(1, 0);
    }
}
