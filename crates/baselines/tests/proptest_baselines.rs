//! Property tests for the baseline algorithms' structural invariants.

use acorn_baselines::kmeans::kmeans;
use acorn_baselines::vamana::{medoid, robust_prune};
use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{Metric, VectorStore};
use proptest::prelude::*;

fn store_from(points: &[Vec<f32>]) -> VectorStore {
    let dim = points.first().map_or(1, Vec::len);
    let mut s = VectorStore::new(dim);
    for p in points {
        s.push(p);
    }
    s
}

fn points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-10.0f32..10.0, dim..=dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Robust prune output: bounded by r, unique, subset of the input, and
    /// the nearest candidate always survives. Under FilteredVamana's relay
    /// rule with a different label on every node, no relay may shadow any
    /// candidate, so the prune keeps `min(r, candidates)` ids.
    #[test]
    fn robust_prune_invariants(pts in points(2, 2..30), r in 1usize..8, alpha in 1.0f32..2.0) {
        let s = store_from(&pts);
        let q = s.get(0).to_vec();
        let cands: Vec<Neighbor> = (1..s.len() as u32)
            .map(|i| Neighbor::new(Metric::L2.distance(s.get(i), &q), i))
            .collect();
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        let kept = robust_prune(&s, Metric::L2, cands.clone(), r, alpha, |_, _| true);
        prop_assert!(kept.len() <= r);
        let set: std::collections::HashSet<u32> = kept.iter().copied().collect();
        prop_assert_eq!(set.len(), kept.len(), "duplicates in prune output");
        prop_assert!(kept.iter().all(|&k| (1..s.len() as u32).contains(&k)));
        if !sorted.is_empty() {
            prop_assert_eq!(kept[0], sorted[0].id, "nearest candidate must survive");
        }

        let label = |v: u32| v; // every node its own label
        let relay = |p_star: u32, c: u32| label(p_star) == label(c) && label(p_star) == label(0);
        let kept = robust_prune(&s, Metric::L2, cands.clone(), r, alpha, relay);
        prop_assert_eq!(kept.len(), r.min(cands.len()), "a relay rule that never holds shadows nothing");
    }

    /// Every point is assigned to its genuinely nearest centroid after the
    /// final assignment pass.
    #[test]
    fn kmeans_assignments_are_nearest(pts in points(3, 5..60), k in 1usize..6, seed in 0u64..100) {
        let s = store_from(&pts);
        let km = kmeans(&s, k, 5, seed);
        for i in 0..s.len() as u32 {
            let assigned = km.assignments[i as usize];
            let d_assigned = Metric::L2.distance(s.get(i), km.centroids.get(assigned));
            for c in 0..km.centroids.len() as u32 {
                let d = Metric::L2.distance(s.get(i), km.centroids.get(c));
                prop_assert!(
                    d_assigned <= d + 1e-4,
                    "point {i} assigned to {assigned} (d={d_assigned}) but {c} is nearer (d={d})"
                );
            }
        }
    }

    /// The medoid minimizes distance to the coordinate mean.
    #[test]
    fn medoid_is_argmin_to_mean(pts in points(2, 1..40)) {
        let s = store_from(&pts);
        let med = medoid(&s, Metric::L2);
        let dim = s.dim();
        let mut mean = vec![0.0f32; dim];
        for i in 0..s.len() as u32 {
            for (m, &x) in mean.iter_mut().zip(s.get(i)) {
                *m += x / s.len() as f32;
            }
        }
        let d_med = Metric::L2.distance(s.get(med), &mean);
        for i in 0..s.len() as u32 {
            let d = Metric::L2.distance(s.get(i), &mean);
            prop_assert!(d_med <= d + 1e-3, "medoid {med} not argmin: {i} is nearer");
        }
    }
}
