//! StitchedVamana (Gollapudi et al., WWW 2023).
//!
//! Build one small Vamana graph per label (`R_small`, `L_small`), union the
//! edges into one global graph, then re-prune any node exceeding
//! `R_stitched` with α-robust pruning. Search is the same label-filtered
//! greedy traversal as FilteredVamana's, from the label's medoid.

use std::collections::HashMap;
use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{Metric, SearchScratch, SearchStats, VectorStore};

use crate::vamana::{beam_search, medoid, robust_prune, Vamana, VamanaParams};

/// StitchedVamana construction parameters (paper §7.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct StitchedParams {
    /// Degree bound of the per-label graphs.
    pub r_small: usize,
    /// Beam width of the per-label builds.
    pub l_small: usize,
    /// Degree bound after stitching.
    pub r_stitched: usize,
    /// Pruning slack.
    pub alpha: f32,
    /// Metric.
    pub metric: Metric,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StitchedParams {
    fn default() -> Self {
        Self { r_small: 32, l_small: 100, r_stitched: 64, alpha: 1.2, metric: Metric::L2, seed: 0 }
    }
}

/// A stitched per-label Vamana index.
#[derive(Debug, Clone)]
pub struct StitchedVamana {
    metric: Metric,
    vecs: Arc<VectorStore>,
    labels: Vec<i64>,
    adj: Vec<Vec<u32>>,
    start_points: HashMap<i64, u32>,
}

impl StitchedVamana {
    /// Build: per-label Vamana graphs, union, re-prune.
    ///
    /// # Panics
    /// Panics if `labels.len() != vecs.len()`.
    pub fn build(vecs: Arc<VectorStore>, labels: Vec<i64>, params: StitchedParams) -> Self {
        assert_eq!(labels.len(), vecs.len(), "one label per vector required");
        let n = vecs.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];

        let mut groups: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(i as u32);
        }

        let mut start_points = HashMap::with_capacity(groups.len());
        for (&label, ids) in &groups {
            let sub = Arc::new(vecs.subset(ids));
            let local_medoid = medoid(&sub, params.metric);
            start_points.insert(label, ids[local_medoid as usize]);

            let sub_index = Vamana::build(
                sub,
                VamanaParams {
                    r: params.r_small,
                    l: params.l_small,
                    alpha: params.alpha,
                    metric: params.metric,
                    seed: params.seed ^ label as u64,
                },
            );
            // Union edges back into the global graph.
            for (local, list) in sub_index.adjacency().iter().enumerate() {
                let g = ids[local] as usize;
                for &w in list {
                    let gw = ids[w as usize];
                    if !adj[g].contains(&gw) {
                        adj[g].push(gw);
                    }
                }
            }
        }

        // Re-prune oversized stitched lists.
        for v in 0..n as u32 {
            if adj[v as usize].len() > params.r_stitched {
                let cands: Vec<Neighbor> = adj[v as usize]
                    .iter()
                    .map(|&w| Neighbor::new(vecs.distance_between(params.metric, v, w), w))
                    .collect();
                let (r, alpha) = (params.r_stitched, params.alpha);
                adj[v as usize] = robust_prune(&vecs, params.metric, cands, r, alpha, |_, _| true);
            }
        }

        Self { metric: params.metric, vecs, labels, adj, start_points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Index-only memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.adj.iter().map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>()).sum()
    }

    /// Search for the `k` nearest points carrying exactly `label` using
    /// caller-provided scratch space (FilteredVamana's label-filtered beam).
    #[allow(clippy::too_many_arguments)]
    pub fn search_with(
        &self,
        query: &[f32],
        label: i64,
        k: usize,
        l: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let Some(&start) = self.start_points.get(&label) else {
            return Vec::new();
        };
        let gate = |nb: u32, stats: &mut SearchStats| {
            stats.npred += 1;
            self.labels[nb as usize] == label
        };
        beam_search(&self.vecs, self.metric, &self.adj, start, query, k, l, scratch, stats, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn labeled_store(
        n: usize,
        dim: usize,
        nlabels: i64,
        seed: u64,
    ) -> (Arc<VectorStore>, Vec<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
            labels.push(rng.gen_range(0..nlabels));
        }
        (Arc::new(s), labels)
    }

    #[test]
    fn results_match_query_label() {
        let (vecs, labels) = labeled_store(600, 8, 3, 1);
        let sv = StitchedVamana::build(
            vecs,
            labels.clone(),
            StitchedParams { r_small: 12, l_small: 32, r_stitched: 24, ..Default::default() },
        );
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        let out = sv.search_with(&[0.0; 8], 1, 10, 32, &mut scratch, &mut stats);
        assert!(!out.is_empty());
        for n in &out {
            assert_eq!(labels[n.id as usize], 1);
        }
    }

    #[test]
    fn stitched_recall_is_high() {
        let (vecs, labels) = labeled_store(1200, 10, 3, 2);
        let sv = StitchedVamana::build(
            vecs.clone(),
            labels.clone(),
            StitchedParams { r_small: 16, l_small: 48, r_stitched: 32, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for t in 0..15 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let label = t % 3;
            let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
            let got: Vec<u32> = sv
                .search_with(&q, label, 10, 64, &mut scratch, &mut stats)
                .iter()
                .map(|n| n.id)
                .collect();
            let mut truth: Vec<(f32, u32)> = (0..vecs.len() as u32)
                .filter(|&i| labels[i as usize] == label)
                .map(|i| (Metric::L2.distance(vecs.get(i), &q), i))
                .collect();
            truth.sort_by(|a, b| a.0.total_cmp(&b.0));
            hits += truth[..10].iter().filter(|&&(_, i)| got.contains(&i)).count();
        }
        let recall = hits as f64 / 150.0;
        assert!(recall >= 0.85, "StitchedVamana recall too low: {recall}");
    }

    #[test]
    fn degree_bound_after_stitching() {
        let (vecs, labels) = labeled_store(500, 6, 4, 4);
        let p = StitchedParams { r_small: 8, l_small: 24, r_stitched: 12, ..Default::default() };
        let sv = StitchedVamana::build(vecs, labels, p);
        for list in &sv.adj {
            assert!(list.len() <= 12, "stitched degree {} exceeds bound", list.len());
        }
    }
}
