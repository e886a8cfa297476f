//! The assembled HNSW index (Malkov & Yashunin, 2018).
//!
//! Construction inserts points one at a time: draw a maximum level, greedily
//! descend from the entry point to `l+1`, then at each level `min(L,l)..=0`
//! run a beam search with `ef_construction` candidates and connect to at most
//! `M` of them (`2M` at level 0) chosen by the RNG-based heuristic. Search is
//! Algorithm 1 of the ACORN paper: greedy descent to level 1, a beam of width
//! `efs` at level 0, and the `K` closest of that beam as the result.

use std::sync::Arc;

use crate::graph::LayeredGraph;
use crate::heap::Neighbor;
use crate::level::LevelSampler;
use crate::pool::ScratchPool;
use crate::search::{gated, greedy_descend, search_layer, SearchScratch};
use crate::select::select_heuristic;
use crate::stats::SearchStats;
use crate::vecs::{Metric, VectorStore};

/// Construction parameters for [`HnswIndex`].
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Degree bound per level (`2M` is used at level 0).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Distance metric.
    pub metric: Metric,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        // FAISS defaults used throughout the paper's evaluation (§7.2).
        Self { m: 32, ef_construction: 40, metric: Metric::L2, seed: 0 }
    }
}

impl HnswParams {
    /// Degree bound at a given level (level 0 doubles `M`).
    #[inline]
    pub fn max_degree(&self, level: usize) -> usize {
        if level == 0 {
            self.m * 2
        } else {
            self.m
        }
    }
}

/// A hierarchical navigable small-world index over a shared [`VectorStore`].
#[derive(Debug, Clone)]
pub struct HnswIndex {
    params: HnswParams,
    vecs: Arc<VectorStore>,
    graph: LayeredGraph,
    sampler: LevelSampler,
    scratch: SearchScratch,
    pool: ScratchPool,
}

impl HnswIndex {
    /// Create an empty index over `vecs`; call [`insert`](Self::insert) for
    /// ids `0..vecs.len()` or use [`build`](Self::build).
    pub fn new(vecs: Arc<VectorStore>, params: HnswParams) -> Self {
        let n = vecs.len();
        Self {
            sampler: LevelSampler::new(params.m.max(2), params.seed),
            scratch: SearchScratch::new(n),
            graph: LayeredGraph::with_capacity(n),
            vecs,
            params,
            pool: ScratchPool::new(),
        }
    }

    /// Build an index containing every vector in the store.
    pub fn build(vecs: Arc<VectorStore>, params: HnswParams) -> Self {
        let mut idx = Self::new(vecs.clone(), params);
        for id in 0..vecs.len() as u32 {
            idx.insert(id);
        }
        idx
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True if no points have been inserted.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The underlying graph (read-only; used by graph-quality analyses).
    pub fn graph(&self) -> &LayeredGraph {
        &self.graph
    }

    /// The shared vector store.
    pub fn vectors(&self) -> &Arc<VectorStore> {
        &self.vecs
    }

    /// Insert the vector with id `id` (ids must be inserted in order and be
    /// present in the store).
    ///
    /// # Panics
    /// Panics if `id` is not the next unindexed id.
    pub fn insert(&mut self, id: u32) {
        assert_eq!(id as usize, self.graph.len(), "ids must be inserted sequentially");
        assert!((id as usize) < self.vecs.len(), "id not present in vector store");

        let level = self.sampler.sample();
        let prev_entry = self.graph.entry_point();
        let prev_max = self.graph.max_level();
        let new_id = self.graph.add_node(level);

        let Some(entry) = prev_entry else {
            return; // first node: nothing to connect
        };

        // Borrow the query row through a local Arc handle instead of copying
        // it: `q` then borrows from `vecs`, not `self`, so the `&mut self`
        // calls below coexist with it without a per-insert heap allocation.
        let vecs = Arc::clone(&self.vecs);
        let q = vecs.get(new_id);
        let metric = self.params.metric;
        let mut stats = SearchStats::default();
        self.scratch.begin(self.graph.len());

        let mut ep = Neighbor::new(vecs.distance_to(metric, entry, q), entry);
        if prev_max > level {
            ep =
                greedy_descend(&*vecs, &self.graph, metric, q, ep, prev_max, level + 1, &mut stats);
        }

        let top = level.min(prev_max);
        let mut entries = vec![ep];
        for lev in (0..=top).rev() {
            let candidates = search_layer(
                &*vecs,
                metric,
                q,
                &entries,
                self.params.ef_construction,
                &mut self.scratch,
                &mut stats,
                |_, _| true,
                gated(&self.graph, lev, |_, _| true),
            );
            let m_level = self.params.max_degree(lev);
            let selected =
                select_heuristic(&self.vecs, metric, &candidates, m_level, 1.0, true, |_, _| true);
            for &s in &selected {
                self.graph.push_edge(s, new_id, lev);
                self.shrink_if_needed(s, lev);
            }
            self.graph.set_neighbors(new_id, lev, selected);
            entries = candidates;
            // Re-begin visited tracking per level to keep semantics simple.
            self.scratch.visited.reset();
        }
    }

    /// Re-prune `v`'s neighbor list at `lev` if it exceeds the degree bound.
    fn shrink_if_needed(&mut self, v: u32, lev: usize) {
        let cap = self.params.max_degree(lev);
        if self.graph.neighbors(v, lev).len() <= cap {
            return;
        }
        let metric = self.params.metric;
        let mut cands: Vec<Neighbor> = self
            .graph
            .neighbors(v, lev)
            .iter()
            .map(|&w| Neighbor::new(self.vecs.distance_between(metric, v, w), w))
            .collect();
        cands.sort_unstable();
        // No keep_pruned backfill here: leaving the list below capacity
        // amortizes future shrinks (one heuristic pass per ~M backlinks
        // instead of one per backlink), matching FAISS's shrink behavior.
        let kept = select_heuristic(&self.vecs, metric, &cands, cap, 1.0, false, |_, _| true);
        self.graph.set_neighbors(v, lev, kept);
    }

    /// The index's internal scratch pool (shared by [`search`](Self::search)
    /// calls; external drivers may check scratches out of it too).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// ANN search: the `k` (approximately) nearest vectors to `query`.
    ///
    /// `efs` is the beam width at level 0 (quality/latency knob). Results are
    /// sorted nearest-first. Scratch space comes from the index's internal
    /// [`ScratchPool`], so repeated calls do not re-allocate visited sets.
    pub fn search(&self, query: &[f32], k: usize, efs: usize) -> Vec<Neighbor> {
        let mut scratch = self.pool.checkout(self.graph.len());
        let mut stats = SearchStats::default();
        self.search_with(query, k, efs, &mut scratch, &mut stats)
    }

    /// ANN search (Algorithm 1) using caller-provided scratch space and
    /// stats counters (the form used by the benchmark harness and thread
    /// pools). `k = 0` answers empty.
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let graph = &self.graph;
        let Some(entry) = graph.entry_point().filter(|_| k > 0) else {
            return Vec::new();
        };
        scratch.begin(graph.len());
        let metric = self.params.metric;
        let mut ep = Neighbor::new(self.vecs.distance_to(metric, entry, query), entry);
        stats.ndis += 1;
        if graph.max_level() > 0 {
            ep = greedy_descend(&*self.vecs, graph, metric, query, ep, graph.max_level(), 1, stats);
        }
        scratch.visited.reset();
        let ef = efs.max(k);
        let all = |_, _: &mut SearchStats| true;
        let hood = gated(graph, 0, all);
        let mut found =
            search_layer(&*self.vecs, metric, query, &[ep], ef, scratch, stats, all, hood);
        found.truncate(k);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    fn brute_force(vecs: &VectorStore, q: &[f32], k: usize) -> Vec<u32> {
        let mut all: Vec<Neighbor> = (0..vecs.len() as u32)
            .map(|i| Neighbor::new(Metric::L2.distance(vecs.get(i), q), i))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all.iter().map(|n| n.id).collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let vecs = random_store(0, 4, 0);
        let idx = HnswIndex::new(vecs, HnswParams::default());
        assert!(idx.search(&[0.0; 4], 5, 16).is_empty());
    }

    #[test]
    fn single_point_index() {
        let vecs = random_store(1, 4, 1);
        let idx = HnswIndex::build(vecs, HnswParams::default());
        let out = idx.search(&[0.0; 4], 5, 16);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    fn recall_on_small_random_data() {
        let n = 2000;
        let vecs = random_store(n, 16, 42);
        let params = HnswParams { m: 16, ef_construction: 64, metric: Metric::L2, seed: 7 };
        let idx = HnswIndex::build(vecs.clone(), params);

        let mut rng = StdRng::seed_from_u64(999);
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let truth = brute_force(&vecs, &q, 10);
            let got = idx.search(&q, 10, 64);
            let got_ids: std::collections::HashSet<u32> = got.iter().map(|n| n.id).collect();
            hits += truth.iter().filter(|t| got_ids.contains(t)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn k_zero_answers_empty() {
        let params = HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 1 };
        let idx = HnswIndex::build(random_store(300, 4, 2), params);
        for efs in [0, 16] {
            assert!(idx.search(&[0.0; 4], 0, efs).is_empty(), "efs = {efs}");
            let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
            assert!(idx.search_with(&[0.0; 4], 0, efs, &mut scratch, &mut stats).is_empty());
        }
    }

    #[test]
    fn degree_bounds_hold() {
        let vecs = random_store(1000, 8, 3);
        let params = HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 5 };
        let idx = HnswIndex::build(vecs, params);
        let g = idx.graph();
        for v in 0..g.len() as u32 {
            for lev in 0..=g.level_of(v) {
                let cap = params.max_degree(lev);
                assert!(
                    g.neighbors(v, lev).len() <= cap,
                    "node {v} level {lev} degree {} > cap {cap}",
                    g.neighbors(v, lev).len()
                );
            }
        }
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let vecs = random_store(500, 8, 11);
        let idx = HnswIndex::build(
            vecs,
            HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 2 },
        );
        let out = idx.search(&[0.1; 8], 10, 50);
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist, "results must be sorted");
            assert_ne!(w[0].id, w[1].id, "results must be unique");
        }
    }

    #[test]
    fn deterministic_build_for_fixed_seed() {
        let vecs = random_store(300, 8, 17);
        let p = HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 4 };
        let a = HnswIndex::build(vecs.clone(), p);
        let b = HnswIndex::build(vecs, p);
        let qa = a.search(&[0.0; 8], 5, 32);
        let qb = b.search(&[0.0; 8], 5, 32);
        assert_eq!(
            qa.iter().map(|n| n.id).collect::<Vec<_>>(),
            qb.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
}
