//! FilteredVamana (Gollapudi et al., WWW 2023).
//!
//! The specialized low-cardinality baseline of the paper's Figure 7 /
//! Tables 3–5. Each point carries one equality label; search starts from a
//! per-label start point and traverses only matching nodes, and the build's
//! pruning only allows a relay node to shadow a candidate when it shares
//! the label (so every label's subgraph stays navigable).
//!
//! Exactly as the paper notes (§7.3), the method is *restricted*: it
//! supports only equality predicates over a label set fixed at construction
//! time — the restriction ACORN removes.

use std::collections::HashMap;
use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{SearchScratch, SearchStats, VectorStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::vamana::{beam_search, insert_pass, medoid, VamanaParams};

/// A FilteredVamana index over single-label points.
#[derive(Debug, Clone)]
pub struct FilteredVamana {
    params: VamanaParams,
    vecs: Arc<VectorStore>,
    labels: Vec<i64>,
    adj: Vec<Vec<u32>>,
    start_points: HashMap<i64, u32>,
}

impl FilteredVamana {
    /// Build over single-label points: one label-aware re-insertion pass
    /// (filtered candidate search, same-label relay pruning) in a seeded
    /// random order.
    ///
    /// # Panics
    /// Panics if `labels.len() != vecs.len()`.
    pub fn build(vecs: Arc<VectorStore>, labels: Vec<i64>, params: VamanaParams) -> Self {
        assert_eq!(labels.len(), vecs.len(), "one label per vector required");
        let n = vecs.len();

        // Per-label start points: the medoid of each label's subset.
        let mut groups: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(i as u32);
        }
        let start_points: HashMap<i64, u32> = groups
            .iter()
            .map(|(&l, ids)| (l, ids[medoid(&vecs.subset(ids), params.metric) as usize]))
            .collect();

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(params.seed));
        let label = |v: u32| labels[v as usize];
        insert_pass(&vecs, &mut adj, &order, &params, params.alpha, label, |l| start_points[&l]);
        Self { params, vecs, labels, adj, start_points }
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
    /// caller-provided scratch space: a beam from the label's start point
    /// that expands matching nodes only, one `npred` per neighbor scanned.
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
        let (vecs, metric) = (&self.vecs, self.params.metric);
        beam_search(vecs, metric, &self.adj, start, query, k, l, scratch, stats, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_hnsw::Metric;
    use rand::Rng;

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
        let (vecs, labels) = labeled_store(800, 8, 4, 1);
        let fv = FilteredVamana::build(
            vecs,
            labels.clone(),
            VamanaParams { r: 16, l: 32, alpha: 1.2, metric: Metric::L2, seed: 2 },
        );
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        let out = fv.search_with(&[0.0; 8], 2, 10, 32, &mut scratch, &mut stats);
        assert!(!out.is_empty());
        for n in &out {
            assert_eq!(labels[n.id as usize], 2);
        }
    }

    #[test]
    fn filtered_recall_is_high() {
        let (vecs, labels) = labeled_store(1500, 10, 3, 3);
        let fv = FilteredVamana::build(
            vecs.clone(),
            labels.clone(),
            VamanaParams { r: 24, l: 48, alpha: 1.2, metric: Metric::L2, seed: 4 },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        let mut total = 0;
        for t in 0..15 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let label = t % 3;
            let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
            let got: Vec<u32> = fv
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
            total += 10;
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.85, "FilteredVamana recall too low: {recall}");
    }

    #[test]
    fn unknown_label_returns_empty() {
        let (vecs, labels) = labeled_store(100, 4, 2, 6);
        let fv = FilteredVamana::build(vecs, labels, VamanaParams::default());
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        assert!(fv.search_with(&[0.0; 4], 99, 5, 16, &mut scratch, &mut stats).is_empty());
    }
}
