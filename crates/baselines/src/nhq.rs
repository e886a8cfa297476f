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

use acorn_hnsw::heap::{MinHeap, Neighbor, TopK};
use acorn_hnsw::select::select_heuristic;
use acorn_hnsw::{Metric, SearchScratch, SearchStats, VectorStore, VisitedSet};

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
    /// RNG seed (reserved; construction is currently deterministic).
    pub seed: u64,
}

impl Default for NhqParams {
    fn default() -> Self {
        Self { m: 16, ef_construction: 64, weight: 1.0, metric: Metric::L2, seed: 0 }
    }
}

/// An NHQ-style index: single-layer NSW graph + per-point attribute.
#[derive(Debug, Clone)]
pub struct NhqIndex {
    params: NhqParams,
    vecs: Arc<VectorStore>,
    labels: Vec<i64>,
    adj: Vec<Vec<u32>>,
    entry: u32,
}

impl NhqIndex {
    /// Build the proximity graph (vector distance only, like NHQ's NPG).
    ///
    /// # Panics
    /// Panics if `labels.len() != vecs.len()`.
    pub fn build(vecs: Arc<VectorStore>, labels: Vec<i64>, params: NhqParams) -> Self {
        assert_eq!(labels.len(), vecs.len(), "one label per vector required");
        let n = vecs.len();
        let mut idx = Self { params, vecs, labels, adj: vec![Vec::new(); n], entry: 0 };
        if n == 0 {
            return idx;
        }
        let mut visited = VisitedSet::new(n);
        let mut stats = SearchStats::default();
        for p in 1..n as u32 {
            let q = idx.vecs.get(p).to_vec();
            let beam = idx.beam_search_vec(&q, params.ef_construction, p, &mut visited, &mut stats);
            let kept = select_heuristic(&idx.vecs, params.metric, &beam, params.m, 1.0, true);
            for &s in &kept {
                idx.adj[s as usize].push(p);
                if idx.adj[s as usize].len() > params.m * 2 {
                    idx.shrink(s);
                }
            }
            idx.adj[p as usize] = kept;
        }
        idx
    }

    fn shrink(&mut self, v: u32) {
        let mut cands: Vec<Neighbor> = self.adj[v as usize]
            .iter()
            .map(|&w| Neighbor::new(self.vecs.distance_between(self.params.metric, v, w), w))
            .collect();
        cands.sort_unstable();
        cands.dedup_by_key(|n| n.id);
        self.adj[v as usize] =
            select_heuristic(&self.vecs, self.params.metric, &cands, self.params.m * 2, 1.0, false);
    }

    /// Vector-distance beam search over nodes `< limit` (construction).
    fn beam_search_vec(
        &self,
        query: &[f32],
        ef: usize,
        limit: u32,
        visited: &mut VisitedSet,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        visited.grow(self.adj.len());
        visited.reset();
        let start = self.entry.min(limit.saturating_sub(1));
        let mut beam = TopK::new(ef.max(1));
        let mut cands = MinHeap::with_capacity(ef * 2);
        let d0 = self.vecs.distance_to(self.params.metric, start, query);
        stats.ndis += 1;
        visited.insert(start);
        let e = Neighbor::new(d0, start);
        beam.push(e);
        cands.push(e);
        while let Some(c) = cands.pop() {
            if beam.is_full() {
                if let Some(w) = beam.worst() {
                    if c.dist > w.dist {
                        break;
                    }
                }
            }
            for &nb in &self.adj[c.id as usize] {
                if nb >= limit || !visited.insert(nb) {
                    continue;
                }
                let d = self.vecs.distance_to(self.params.metric, nb, query);
                stats.ndis += 1;
                let n = Neighbor::new(d, nb);
                let admit = match beam.worst() {
                    Some(w) => d < w.dist || !beam.is_full(),
                    None => true,
                };
                if admit {
                    cands.push(n);
                    beam.push(n);
                }
            }
        }
        beam.into_sorted()
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
    /// are filtered out at the end (they rank behind matching ones).
    pub fn search_with(
        &self,
        query: &[f32],
        target_label: i64,
        k: usize,
        ef: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if self.adj.is_empty() {
            return Vec::new();
        }
        let fused = |id: u32, stats: &mut SearchStats| -> f32 {
            let d = self.vecs.distance_to(self.params.metric, id, query);
            stats.ndis += 1;
            stats.npred += 1;
            if self.labels[id as usize] == target_label {
                d
            } else {
                d + self.params.weight
            }
        };
        scratch.begin(self.adj.len());
        let visited = &mut scratch.visited;
        let ef = ef.max(k).max(1);
        let mut beam = TopK::new(ef);
        let cands = &mut scratch.candidates;
        visited.insert(self.entry);
        let e = Neighbor::new(fused(self.entry, stats), self.entry);
        beam.push(e);
        cands.push(e);
        while let Some(c) = cands.pop() {
            if beam.is_full() {
                if let Some(w) = beam.worst() {
                    if c.dist > w.dist {
                        break;
                    }
                }
            }
            stats.nhops += 1;
            for &nb in &self.adj[c.id as usize] {
                if !visited.insert(nb) {
                    continue;
                }
                let f = fused(nb, stats);
                let n = Neighbor::new(f, nb);
                let admit = match beam.worst() {
                    Some(w) => f < w.dist || !beam.is_full(),
                    None => true,
                };
                if admit {
                    cands.push(n);
                    beam.push(n);
                }
            }
        }
        beam.into_sorted()
            .into_iter()
            .filter(|n| self.labels[n.id as usize] == target_label)
            .take(k)
            .collect()
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
