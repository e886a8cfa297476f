//! Zipf-distributed rank sampling for skewed query traffic.
//!
//! Production search traffic is never uniform: a small head of hot queries
//! dominates while a long tail of cold ones keeps caches honest. Workload
//! generators (the atomix-style harness in `acorn-bench`) model this with a
//! Zipf distribution over a pool of query templates: rank `r` (0-based, 0 =
//! hottest) is drawn with probability proportional to `1 / (r + 1)^s`.
//!
//! `s = 0` degenerates to the uniform distribution; `s = 1.0` is the
//! classic heavily-skewed web-traffic shape (the same convention as the
//! atomix workload generator's `zipf-exponent`).
//!
//! The sampler precomputes the CDF once (`O(n)` setup, `O(n)` memory) and
//! draws by binary search (`O(log n)` per sample). For the pool sizes
//! workload generation uses (hundreds to a few thousand templates) this is
//! both faster in practice and far easier to verify than rejection
//! inversion, and it is exactly reproducible from a seed across platforms.

use rand::rngs::StdRng;
use rand::Rng;

/// A seeded-RNG sampler over ranks `0..n` with `P(r) ∝ 1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Normalized cumulative probabilities; `cdf[n-1] == 1.0`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with the given exponent (`0` = uniform,
    /// `1.0` = heavily skewed).
    ///
    /// # Panics
    /// Panics when `n == 0`, or when `exponent` is negative or non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "Zipf exponent must be finite and non-negative, got {exponent}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Binary-search safety: the final bucket must cover u -> 1.0 exactly
        // regardless of floating-point rounding in the running sum.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has no ranks (never: construction requires
    /// `n > 0`; provided for clippy's `len`-without-`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank in `0..len()` (0 = most popular). Deterministic for a
    /// deterministic `rng`: one `gen_range` call per sample.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Exact probability mass of `rank` (0-based).
    fn prob(z: &Zipf, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { z.cdf[rank - 1] };
        z.cdf[rank] - lo
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((prob(&z, r) - 0.1).abs() < 1e-12, "rank {r} prob {}", prob(&z, r));
        }
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let z = Zipf::new(100, 1.0);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed must reproduce the sample stream");
        assert_ne!(draw(7), draw(8), "different seeds must diverge");
    }

    #[test]
    fn empirical_head_mass_matches_analytic() {
        // At s = 1.0 over 100 ranks, P(rank 0) = 1/H_100 ≈ 0.1928.
        let n = 100;
        let z = Zipf::new(n, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let samples = 200_000;
        let mut counts = vec![0usize; n];
        for _ in 0..samples {
            counts[z.sample(&mut rng)] += 1;
        }
        let head = counts[0] as f64 / samples as f64;
        assert!((head - prob(&z, 0)).abs() < 0.01, "head mass {head} vs analytic {}", prob(&z, 0));
        // Aggregate monotonicity: the first decile must out-draw the last.
        let first: usize = counts[..n / 10].iter().sum();
        let last: usize = counts[n - n / 10..].iter().sum();
        assert!(first > 10 * last, "skew missing: first decile {first} vs last decile {last}");
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let mild = Zipf::new(50, 0.5);
        let steep = Zipf::new(50, 1.5);
        assert!(prob(&steep, 0) > prob(&mild, 0));
        assert!(prob(&steep, 49) < prob(&mild, 49));
    }

    #[test]
    fn probs_sum_to_one() {
        for s in [0.0, 0.7, 1.0, 2.0] {
            let z = Zipf::new(37, s);
            let total: f64 = (0..z.len()).map(|r| prob(&z, r)).sum();
            assert!((total - 1.0).abs() < 1e-9, "s = {s}: total {total}");
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
