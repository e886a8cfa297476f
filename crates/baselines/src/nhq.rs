//! NHQ-style fusion-distance search (Wang et al. 2022).
//!
//! NHQ encodes structured attributes next to the vectors and searches a
//! single-layer navigable proximity graph with a *fusion distance*:
//!
//! ```text
//! f(q, v) = dist(x_q, x_v) + w · mismatch(a_q, a_v)
//! ```
//!
//! so points failing the (single, equality) attribute constraint are not
//! excluded but pushed away. As the paper notes, the approach "supports only
//! equality query predicates and assumes each dataset entity has only one
//! structured attribute" — reproduced faithfully here, restriction and all.

use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::{gated, search_layer};
use acorn_hnsw::select::select_heuristic;
use acorn_hnsw::{Metric, SearchScratch, SearchStats, VectorData, VectorStore};

/// NHQ construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct NhqParams {
    /// Degree bound of the proximity graph.
    pub m: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    /// Fusion weight `w` (attribute-mismatch penalty, in distance units).
    pub weight: f32,
    /// Metric for the vector component.
    pub metric: Metric,
}

impl Default for NhqParams {
    fn default() -> Self {
        Self { m: 16, ef_construction: 64, weight: 1.0, metric: Metric::L2 }
    }
}

/// An NHQ-style index: single-layer NSW graph + per-point attribute. Both
/// construction and search start from node 0, the first node inserted.
#[derive(Debug, Clone)]
pub struct NhqIndex {
    params: NhqParams,
    vecs: Arc<VectorStore>,
    labels: Vec<i64>,
    adj: Vec<Vec<u32>>,
}

/// The fusion distance `dist + w·[label ≠ target]` as a [`VectorData`], so
/// the shared beam search scores it with the store's batched kernels.
struct Fused<'a> {
    vecs: &'a VectorStore,
    labels: &'a [i64],
    target: i64,
    weight: f32,
}

impl Fused<'_> {
    fn fuse(&self, id: u32, d: f32) -> f32 {
        if self.labels[id as usize] == self.target {
            d
        } else {
            d + self.weight
        }
    }
}

impl VectorData for Fused<'_> {
    fn len(&self) -> usize {
        self.vecs.len()
    }

    fn dim(&self) -> usize {
        self.vecs.dim()
    }

    fn memory_bytes(&self) -> usize {
        self.vecs.memory_bytes()
    }

    fn distance_to(&self, metric: Metric, i: u32, query: &[f32]) -> f32 {
        self.fuse(i, self.vecs.distance_to(metric, i, query))
    }

    fn distances_batch(&self, metric: Metric, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        self.vecs.distances_batch(metric, query, ids, out);
        for (d, &id) in out.iter_mut().zip(ids) {
            *d = self.fuse(id, *d);
        }
    }
}

impl NhqIndex {
    /// Build the proximity graph (vector distance only, like NHQ's NPG).
    ///
    /// # Panics
    /// Panics if `labels.len() != vecs.len()`.
    pub fn build(vecs: Arc<VectorStore>, labels: Vec<i64>, params: NhqParams) -> Self {
        assert_eq!(labels.len(), vecs.len(), "one label per vector required");
        let (n, metric, m) = (vecs.len(), params.metric, params.m);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let (mut scratch, mut stats) = (SearchScratch::new(n), SearchStats::default());
        for p in 1..n as u32 {
            let q = vecs.get(p);
            scratch.begin(n);
            let entry = [Neighbor::new(vecs.distance_to(metric, 0, q), 0)];
            // Only nodes inserted before `p` are linked.
            let hood = gated(&adj[..], 0, |nb, _| nb < p);
            let ef = params.ef_construction.max(1);
            let beam = search_layer(
                &*vecs,
                metric,
                q,
                &entry,
                ef,
                &mut scratch,
                &mut stats,
                |_, _| true,
                hood,
            );
            let kept = select_heuristic(&vecs, metric, &beam, m, 1.0, true, |_, _| true);
            for &s in &kept {
                let list = &mut adj[s as usize];
                list.push(p);
                if list.len() > m * 2 {
                    let mut cands: Vec<Neighbor> = list
                        .iter()
                        .map(|&w| Neighbor::new(vecs.distance_between(metric, s, w), w))
                        .collect();
                    cands.sort_unstable();
                    cands.dedup_by_key(|n| n.id);
                    *list = select_heuristic(&vecs, metric, &cands, m * 2, 1.0, false, |_, _| true);
                }
            }
            adj[p as usize] = kept;
        }
        Self { params, vecs, labels, adj }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Index-only memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.adj.iter().map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>()).sum::<usize>()
            + self.labels.len() * 8
    }

    /// Fusion-distance hybrid search: the `k` best nodes under
    /// `dist + w·[label ≠ target]`. Results that still mismatch the label
    /// are filtered out at the end (they rank behind matching ones). Every
    /// fused distance reads one label: `npred` counts them with `ndis`.
    pub fn search_with(
        &self,
        query: &[f32],
        target_label: i64,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 || self.adj.is_empty() {
            return Vec::new();
        }
        let (labels, metric) = (&self.labels[..], self.params.metric);
        let fused =
            Fused { vecs: &self.vecs, labels, target: target_label, weight: self.params.weight };
        scratch.begin(self.adj.len());
        let ndis_before = stats.ndis;
        let entry = [Neighbor::new(fused.distance_to(metric, 0, query), 0)];
        stats.ndis += 1;
        let all = |_, _: &mut SearchStats| true;
        let hood = gated(&self.adj[..], 0, all);
        let beam =
            search_layer(&fused, metric, query, &entry, ef.max(k), scratch, stats, all, hood);
        stats.npred += stats.ndis - ndis_before;
        beam.into_iter().filter(|n| labels[n.id as usize] == target_label).take(k).collect()
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
    fn fusion_search_returns_matching_labels() {
        let (vecs, labels) = labeled_store(800, 8, 4, 1);
        let nhq = NhqIndex::build(
            vecs,
            labels.clone(),
            NhqParams { m: 12, ef_construction: 48, weight: 4.0, ..Default::default() },
        );
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        let out = nhq.search_with(&[0.0; 8], 2, 10, 64, &mut scratch, &mut stats);
        assert!(!out.is_empty());
        for n in &out {
            assert_eq!(labels[n.id as usize], 2);
        }
    }

    #[test]
    fn fusion_recall_reasonable_with_large_weight() {
        let (vecs, labels) = labeled_store(1200, 10, 3, 2);
        let nhq = NhqIndex::build(
            vecs.clone(),
            labels.clone(),
            NhqParams { m: 16, ef_construction: 64, weight: 10.0, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for t in 0..15 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let label = t % 3;
            let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
            let got: Vec<u32> = nhq
                .search_with(&q, label, 10, 128, &mut scratch, &mut stats)
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
        assert!(recall >= 0.7, "NHQ recall too low: {recall}");
    }

    #[test]
    fn empty_index() {
        let nhq = NhqIndex::build(Arc::new(VectorStore::new(4)), vec![], NhqParams::default());
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        assert!(nhq.search_with(&[0.0; 4], 0, 5, 16, &mut scratch, &mut stats).is_empty());
    }
}
