//! Lloyd's k-means with k-means++ seeding.
//!
//! The coarse-quantizer substrate for [`crate::ivf::IvfFlat`] (the
//! Milvus/FAISS-IVF baseline class in the paper's evaluation).

use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::{Metric, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Centroids (`k x dim`).
    pub centroids: VectorStore,
    /// Assignment of each input vector to its nearest centroid.
    pub assignments: Vec<u32>,
}

/// Run k-means++ seeding followed by `iters` Lloyd iterations.
///
/// # Panics
/// Panics if `k == 0` or the dataset is empty.
pub fn kmeans(vecs: &VectorStore, k: usize, iters: usize, seed: u64) -> KMeans {
    assert!(k > 0, "k must be positive");
    assert!(!vecs.is_empty(), "cannot cluster an empty dataset");
    let n = vecs.len();
    let dim = vecs.dim();
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);

    // --- k-means++ seeding ---
    let mut centroids = VectorStore::with_capacity(dim, k);
    let first = rng.gen_range(0..n) as u32;
    centroids.push(vecs.get(first));
    let mut d2: Vec<f32> =
        (0..n as u32).map(|i| Metric::L2.distance(vecs.get(i), centroids.get(0))).collect();
    for _ in 1..k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n) as u32
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = (n - 1) as u32;
            for (i, &d) in d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i as u32;
                    break;
                }
            }
            chosen
        };
        let c_idx = centroids.len() as u32;
        centroids.push(vecs.get(next));
        for i in 0..n as u32 {
            let d = Metric::L2.distance(vecs.get(i), centroids.get(c_idx));
            if d < d2[i as usize] {
                d2[i as usize] = d;
            }
        }
    }

    // --- Lloyd iterations ---
    let mut assignments = vec![0u32; n];
    for _ in 0..iters {
        // Assign.
        let mut moved = false;
        for i in 0..n as u32 {
            let best = nearest_row(&centroids, Metric::L2, vecs.get(i));
            if assignments[i as usize] != best {
                assignments[i as usize] = best;
                moved = true;
            }
        }
        // Update.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignments.iter().enumerate() {
            let c = c as usize;
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(vecs.get(i as u32)) {
                *s += x as f64;
            }
        }
        let mut new_centroids = VectorStore::with_capacity(dim, k);
        let mut buf = vec![0.0f32; dim];
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at a random point.
                new_centroids.push(vecs.get(rng.gen_range(0..n) as u32));
                continue;
            }
            for (b, &s) in buf.iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
                *b = (s / counts[c] as f64) as f32;
            }
            new_centroids.push(&buf);
        }
        centroids = new_centroids;
        if !moved {
            break;
        }
    }

    // Final assignment against final centroids.
    for (i, a) in assignments.iter_mut().enumerate() {
        *a = nearest_row(&centroids, Metric::L2, vecs.get(i as u32));
    }

    KMeans { centroids, assignments }
}

/// The row of `vecs` nearest `point` (the lowest id on ties): one k = 1
/// exact scan. `vecs` must not be empty.
pub(crate) fn nearest_row(vecs: &VectorStore, metric: Metric, point: &[f32]) -> u32 {
    exact_top_k(vecs, metric, point, 1, 0..vecs.len() as u32).0[0].id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> VectorStore {
        let mut v = VectorStore::new(2);
        for i in 0..20 {
            let x = i as f32 * 0.01;
            v.push(&[x, x]);
            v.push(&[10.0 + x, 10.0 + x]);
        }
        v
    }

    #[test]
    fn separates_obvious_blobs() {
        let v = two_blobs();
        let km = kmeans(&v, 2, 10, 1);
        assert_eq!(km.centroids.len(), 2);
        // All even rows share one cluster, odd rows the other.
        let c0 = km.assignments[0];
        let c1 = km.assignments[1];
        assert_ne!(c0, c1);
        for i in 0..v.len() {
            assert_eq!(km.assignments[i], if i % 2 == 0 { c0 } else { c1 });
        }
    }

    #[test]
    fn centroids_land_on_blob_means() {
        let v = two_blobs();
        let km = kmeans(&v, 2, 20, 2);
        let near_origin =
            (0..2u32).any(|c| Metric::L2.distance(km.centroids.get(c), &[0.1, 0.1]) < 0.1);
        let near_ten =
            (0..2u32).any(|c| Metric::L2.distance(km.centroids.get(c), &[10.1, 10.1]) < 0.1);
        assert!(near_origin && near_ten);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut v = VectorStore::new(1);
        v.push(&[1.0]);
        v.push(&[2.0]);
        let km = kmeans(&v, 10, 3, 3);
        assert!(km.centroids.len() <= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let v = two_blobs();
        let a = kmeans(&v, 3, 5, 7);
        let b = kmeans(&v, 3, 5, 7);
        assert_eq!(a.assignments, b.assignments);
    }
}
