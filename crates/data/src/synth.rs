//! Synthetic vector generators.
//!
//! Graph-index behaviour depends on the *local geometry* of the data —
//! cluster structure and intrinsic dimensionality — not on where the
//! embeddings came from. A Gaussian mixture with tens of clusters reproduces
//! the clustered embedding spaces of SIFT/CLIP/DPR well enough for the
//! relative comparisons the paper's evaluation makes.

use acorn_hnsw::VectorStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a Gaussian-mixture dataset.
#[derive(Debug, Clone, Copy)]
pub struct MixtureSpec {
    /// Number of vectors.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Number of mixture components.
    pub clusters: usize,
    /// Per-coordinate standard deviation around each center.
    pub std: f32,
    /// RNG seed.
    pub seed: u64,
}

/// A generated mixture: vectors plus the component that produced each one.
#[derive(Debug, Clone)]
pub struct Mixture {
    /// The vectors.
    pub vectors: VectorStore,
    /// `cluster_of[i]` = mixture component of vector `i`.
    pub cluster_of: Vec<u32>,
    /// Component centers (row-major, `clusters x dim`).
    pub centers: VectorStore,
}

/// Draw one standard normal via Box–Muller (rand_distr is not available
/// offline, and two uniforms per normal is plenty fast for data generation).
#[inline]
pub fn std_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generate a Gaussian mixture.
///
/// Centers are uniform in `[-1, 1]^dim`; each point picks a component
/// uniformly and adds isotropic noise with the requested std.
///
/// # Panics
/// Panics if `clusters == 0` or `dim == 0`.
pub fn gaussian_mixture(spec: MixtureSpec) -> Mixture {
    assert!(spec.clusters > 0, "need at least one cluster");
    assert!(spec.dim > 0, "dimension must be positive");
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let mut centers = VectorStore::with_capacity(spec.dim, spec.clusters);
    for _ in 0..spec.clusters {
        let c: Vec<f32> = (0..spec.dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        centers.push(&c);
    }

    let mut vectors = VectorStore::with_capacity(spec.dim, spec.n);
    let mut cluster_of = Vec::with_capacity(spec.n);
    let mut buf = vec![0.0f32; spec.dim];
    for _ in 0..spec.n {
        let c = rng.gen_range(0..spec.clusters) as u32;
        let center = centers.get(c);
        for (b, &cv) in buf.iter_mut().zip(center) {
            *b = cv + spec.std * std_normal(&mut rng);
        }
        vectors.push(&buf);
        cluster_of.push(c);
    }

    Mixture { vectors, cluster_of, centers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_hnsw::Metric;

    #[test]
    fn mixture_has_requested_shape() {
        let m = gaussian_mixture(MixtureSpec { n: 100, dim: 8, clusters: 4, std: 0.1, seed: 1 });
        assert_eq!(m.vectors.len(), 100);
        assert_eq!(m.vectors.dim(), 8);
        assert_eq!(m.cluster_of.len(), 100);
        assert_eq!(m.centers.len(), 4);
        assert!(m.cluster_of.iter().all(|&c| c < 4));
    }

    #[test]
    fn points_cluster_around_their_center() {
        let m = gaussian_mixture(MixtureSpec { n: 500, dim: 16, clusters: 5, std: 0.05, seed: 2 });
        // Each point must be closer to its own center than to the average
        // center distance (weak but robust check).
        let mut own = 0.0f64;
        let mut other = 0.0f64;
        let mut count = 0usize;
        for i in 0..m.vectors.len() as u32 {
            let c = m.cluster_of[i as usize];
            own += Metric::L2.distance(m.vectors.get(i), m.centers.get(c)) as f64;
            let oc = (c + 1) % 5;
            other += Metric::L2.distance(m.vectors.get(i), m.centers.get(oc)) as f64;
            count += 1;
        }
        assert!(own / count as f64 * 3.0 < other / count as f64, "clusters not separated");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let samples: Vec<f32> = (0..n).map(|_| std_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gaussian_mixture(MixtureSpec { n: 10, dim: 4, clusters: 2, std: 0.1, seed: 7 });
        let b = gaussian_mixture(MixtureSpec { n: 10, dim: 4, clusters: 2, std: 0.1, seed: 7 });
        assert_eq!(a.vectors.as_flat(), b.vectors.as_flat());
        assert_eq!(a.cluster_of, b.cluster_of);
    }
}
