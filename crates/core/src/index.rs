//! The ACORN graph of one segment: predicate-agnostic construction (§5.2,
//! Algorithm 1), predicate-subgraph search (§5.1, Algorithm 2) and the exact
//! pre-filter scan. Which of the two a hybrid query takes is the planner's
//! decision ([`crate::plan`]), made per segment of a
//! [`SegmentedAcornIndex`](crate::segment::SegmentedAcornIndex) — the index
//! a user builds, queries and saves.
//!
//! An [`AcornIndex`] holds one graph at a time. It is *growing* — a nested
//! [`LayeredGraph`] that accepts inserts — until [`AcornIndex::seal`] turns
//! it into its *sealed* form: the same graph as one immutable [`CsrGraph`],
//! with the build state dropped.

use std::ops::RangeInclusive;
use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::{
    CsrGraph, GraphView, LayeredGraph, LevelSampler, SearchScratch, SearchStats, VectorStore,
};
use acorn_predicate::NodeFilter;

use crate::params::{AcornParams, AcornVariant};
use crate::prune::{self, PruneStrategy};
use crate::search::{acorn_search_layer, LookupMode};

/// Everything only construction needs; [`AcornIndex::seal`] drops it.
#[derive(Debug)]
struct Growing {
    graph: LayeredGraph,
    sampler: LevelSampler,
    /// Scratch of the insert-time searches.
    scratch: SearchScratch,
    /// Node labels for the metadata-aware pruning ablation (Figure 12).
    labels: Option<Vec<i64>>,
}

impl Clone for Growing {
    fn clone(&self) -> Self {
        Self {
            graph: self.graph.clone(),
            sampler: self.sampler.clone(),
            // Visited stamps and heaps of the last insert: transient state,
            // regrown on first use like the pool's scratches.
            scratch: SearchScratch::default(),
            labels: self.labels.clone(),
        }
    }
}

/// The one graph an index holds: the nested build-time layout while it
/// accepts inserts, the flat CSR once sealed.
///
/// Not boxed despite the size gap: an index holds one `State`, and a box
/// would cost the writer an allocation on every publication's clone.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum State {
    Growing(Growing),
    Sealed(CsrGraph),
}

impl State {
    fn growing(&self) -> &Growing {
        match self {
            State::Growing(g) => g,
            State::Sealed(_) => panic!("a sealed index has no build-time graph"),
        }
    }

    fn growing_mut(&mut self) -> &mut Growing {
        match self {
            State::Growing(g) => g,
            State::Sealed(_) => panic!("a sealed index accepts no inserts"),
        }
    }
}

/// An ACORN-γ or ACORN-1 graph over a shared vector store: what one segment
/// of a [`SegmentedAcornIndex`](crate::segment::SegmentedAcornIndex) holds.
///
/// An index is **growing** from [`new`](Self::new) / [`build`](Self::build)
/// on — a nested [`LayeredGraph`] that [`insert`](Self::insert) extends,
/// traversed over the exact f32 rows — until [`seal`](Self::seal) turns it
/// into its immutable **sealed** form: the same graph as one [`CsrGraph`].
/// It holds exactly one of the two graphs at any time, and answers
/// bit-identically from either.
///
/// [`clone`](Clone::clone) of a growing index shares rather than copies: the
/// vector rows and every neighbor list stay in buffers common to both
/// indices, and an insert into either writes past what the other reaches
/// (see [`LayeredGraph`] and [`VectorStore`]); the clone starts with empty
/// search scratch. The cost is one `Arc` bump per buffer and a copy of the
/// graph's span and level tables (~18 B per node), with no per-node atomic.
#[derive(Debug, Clone)]
pub struct AcornIndex {
    params: AcornParams,
    variant: AcornVariant,
    vecs: Arc<VectorStore>,
    state: State,
    /// Total candidate edges pruned during construction (Figure 12c).
    edges_pruned: u64,
}

/// The `M` used for level sampling: tied to `M` (never `M·γ`, §5.2) unless
/// the Qdrant flattening ablation is explicitly requested. Shared by
/// [`AcornIndex::new`] and [`AcornIndex::from_parts`] so a deserialized
/// index resumes inserts with the same level distribution it was built with.
fn sampler_m(params: &AcornParams) -> usize {
    if params.flatten_hierarchy {
        (params.m * params.gamma).max(2)
    } else {
        params.m.max(2)
    }
}

impl AcornIndex {
    /// Create an empty index; insert ids `0..vecs.len()` in order or use
    /// [`build`](Self::build).
    ///
    /// For [`AcornVariant::One`], `γ` and `M_β` in `params` are overridden
    /// to `1` and `M` per §5.3.
    ///
    /// # Panics
    /// Panics if the parameters are inconsistent (see
    /// [`AcornParams::validate`]).
    pub fn new(vecs: Arc<VectorStore>, mut params: AcornParams, variant: AcornVariant) -> Self {
        if variant == AcornVariant::One {
            // Preserve the intended serving threshold before forcing the
            // construction parameters to γ = 1, M_β = M (§5.3): ACORN-1
            // approximates an ACORN-γ index, including its fallback point.
            if params.s_min_override.is_none() {
                params.s_min_override = Some(1.0 / params.gamma as f64);
            }
            params.gamma = 1;
            params.m_beta = params.m;
        }
        params.validate();
        let graph = LayeredGraph::with_capacity(vecs.len());
        Self::from_parts(params, variant, vecs, graph, 0)
    }

    /// Build an index over every vector in the store.
    ///
    /// # Panics
    /// Panics if the parameters are inconsistent (see
    /// [`AcornParams::validate`]). An ACORN-γ build under
    /// [`PruneStrategy::RngMetadataAware`] panics at its second insert,
    /// because that strategy prunes by node labels: build it with
    /// [`build_with_labels`](Self::build_with_labels).
    pub fn build(vecs: Arc<VectorStore>, params: AcornParams, variant: AcornVariant) -> Self {
        let mut idx = Self::new(vecs.clone(), params, variant);
        for id in 0..vecs.len() as u32 {
            idx.insert(id);
        }
        idx
    }

    /// Build with per-node labels available to the
    /// [`PruneStrategy::RngMetadataAware`] ablation.
    ///
    /// # Panics
    /// Panics if `labels.len() != vecs.len()`.
    pub fn build_with_labels(
        vecs: Arc<VectorStore>,
        params: AcornParams,
        variant: AcornVariant,
        labels: Vec<i64>,
    ) -> Self {
        assert_eq!(labels.len(), vecs.len(), "one label per vector required");
        let mut idx = Self::new(vecs.clone(), params, variant);
        idx.state.growing_mut().labels = Some(labels);
        for id in 0..vecs.len() as u32 {
            idx.insert(id);
        }
        idx
    }

    /// A growing index over an already-built graph (validated parameters):
    /// the empty one of [`new`](Self::new), or the decoded one of an active
    /// segment block.
    pub(crate) fn from_parts(
        params: AcornParams,
        variant: AcornVariant,
        vecs: Arc<VectorStore>,
        graph: LayeredGraph,
        edges_pruned: u64,
    ) -> Self {
        // One level draw was consumed per inserted node: fast-forward the
        // fresh sampler past them so resumed inserts continue the exact
        // stream the original builder was on (load-then-insert must stay
        // bit-identical to never-having-saved — crash recovery relies on
        // this).
        let mut sampler = LevelSampler::new(sampler_m(&params), params.seed);
        sampler.skip(graph.len());
        let scratch = SearchScratch::new(vecs.len());
        Self {
            state: State::Growing(Growing { graph, sampler, scratch, labels: None }),
            vecs,
            params,
            variant,
            edges_pruned,
        }
    }

    /// The graph held, in whichever layout.
    pub(crate) fn graph_view(&self) -> &dyn GraphView {
        match &self.state {
            State::Growing(g) => &g.graph,
            State::Sealed(csr) => csr,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.graph_view().len()
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Construction parameters.
    pub fn params(&self) -> &AcornParams {
        &self.params
    }

    /// Which ACORN variant this index implements.
    pub fn variant(&self) -> AcornVariant {
        self.variant
    }

    /// The build-time layered graph of a growing index (graph-quality
    /// analyses, Figure 13); `None` once sealed, when the index holds only
    /// its [`csr`](Self::csr).
    pub fn graph(&self) -> Option<&LayeredGraph> {
        match &self.state {
            State::Growing(g) => Some(&g.graph),
            State::Sealed(_) => None,
        }
    }

    /// The CSR graph of a sealed index; `None` while the index is growing.
    pub fn csr(&self) -> Option<&CsrGraph> {
        match &self.state {
            State::Growing(_) => None,
            State::Sealed(csr) => Some(csr),
        }
    }

    /// Seal the index: freeze the graph into its flat CSR form and drop
    /// everything only construction needed — the nested graph, the level
    /// sampler, the insert scratch and the labels. The sealed index is
    /// immutable and answers every search bit-identically to the growing one
    /// it came from.
    ///
    /// # Panics
    /// Panics if the index is already sealed.
    pub fn seal(self) -> Self {
        let csr = self.state.growing().graph.freeze();
        Self { state: State::Sealed(csr), ..self }
    }

    /// A sealed index over an already-frozen graph — what
    /// [`seal`](Self::seal) makes of a growing one, for a loader that
    /// decoded the CSR directly. `csr` must have one node per row of `vecs`.
    pub(crate) fn from_sealed_parts(
        params: AcornParams,
        variant: AcornVariant,
        vecs: Arc<VectorStore>,
        csr: CsrGraph,
        edges_pruned: u64,
    ) -> Self {
        debug_assert_eq!(csr.len(), vecs.len());
        Self { state: State::Sealed(csr), vecs, params, variant, edges_pruned }
    }

    /// The shared vector store.
    pub fn vectors(&self) -> &Arc<VectorStore> {
        &self.vecs
    }

    /// Total candidate edges pruned during construction (Figure 12c).
    pub fn edges_pruned(&self) -> u64 {
        self.edges_pruned
    }

    /// Bytes of the graph this index holds — the nested layout while
    /// growing, the CSR once sealed (index-only: excludes the vector rows,
    /// which [`VectorStore::memory_bytes`] reports).
    pub fn memory_bytes(&self) -> usize {
        match &self.state {
            State::Growing(g) => g.graph.memory_bytes(),
            State::Sealed(csr) => csr.memory_bytes(),
        }
    }

    /// The search-time lookup mode for this index.
    fn lookup_mode(&self) -> LookupMode {
        match self.variant {
            AcornVariant::Gamma => LookupMode::GammaSearch {
                m_beta: self.params.m_beta,
                compressed_levels: self.params.compressed_levels,
            },
            AcornVariant::One => LookupMode::TwoHop,
        }
    }

    /// Append `v` to the owned vector store and index it, returning the new
    /// row id. This is the write path of a *growing* index (the segmented
    /// index's active segment): unlike [`insert`](Self::insert), the vector
    /// does not need to pre-exist in the store.
    ///
    /// The store may be shared — with a clone of this index, or with whoever
    /// passed it to [`new`](Self::new): this index then continues on its own
    /// handle, and no other holder sees the new row. Taking that handle
    /// copies no row (see [`VectorStore`]).
    ///
    /// # Panics
    /// Panics if `v` has the wrong dimension or the index is
    /// [`seal`](Self::seal)ed.
    pub fn insert_vector(&mut self, v: &[f32]) -> u32 {
        let id = Arc::make_mut(&mut self.vecs).push(v);
        self.insert(id);
        id
    }

    /// Insert vector `id` (ids must be inserted sequentially).
    ///
    /// # Panics
    /// Panics if the index is [`seal`](Self::seal)ed, or if `id` is not the
    /// next unindexed id or is absent from the vector store.
    pub fn insert(&mut self, id: u32) {
        let g = self.state.growing_mut();
        assert_eq!(id as usize, g.graph.len(), "ids must be inserted sequentially");
        assert!((id as usize) < self.vecs.len(), "id not present in vector store");

        let level = g.sampler.sample();
        let prev_entry = g.graph.entry_point();
        let prev_max = g.graph.max_level();
        let new_id = g.graph.add_node(level);

        let Some(entry) = prev_entry else {
            return;
        };

        // Borrow the query row through a local Arc handle instead of copying
        // it: `q` then borrows from `vecs`, not `self`, so the `&mut self`
        // calls below coexist with it without a per-insert heap allocation
        // of `dim` floats on the build hot path.
        let vecs = Arc::clone(&self.vecs);
        let q = vecs.get(new_id);
        let metric = self.params.metric;
        let budget = self.params.edge_budget();
        let mut stats = SearchStats::default();
        g.scratch.begin(g.graph.len());

        // Phase 1 (§2.1): greedy descent with ef = 1 down to level l + 1,
        // using the metadata-agnostic truncated lookup.
        let mut entries = descend(
            &vecs,
            &g.graph,
            &self.params,
            q,
            &acorn_predicate::AllPass,
            LookupMode::Truncate,
            vec![Neighbor::new(vecs.distance_to(metric, entry, q), entry)],
            (level + 1)..=prev_max,
            &mut g.scratch,
            &mut stats,
        );

        // Phase 2: collect M·γ candidate edges per level and connect.
        let ef = self.params.ef_construction.max(budget);
        for lev in (0..=level.min(prev_max)).rev() {
            let g = self.state.growing_mut();
            // The level before left its compression's `H` in the stamps.
            g.scratch.visited.reset();
            let candidates = acorn_search_layer(
                &*vecs,
                &g.graph,
                metric,
                q,
                &acorn_predicate::AllPass,
                &entries,
                ef,
                lev,
                self.params.m,
                LookupMode::Truncate,
                &mut g.scratch,
                &mut stats,
            );
            let kept = self.keep(new_id, lev, &candidates);
            for &s in &kept {
                self.state.growing_mut().graph.push_edge(s, new_id, lev);
                self.shrink_if_needed(s, lev);
            }
            self.state.growing_mut().graph.set_neighbors(new_id, lev, kept);
            entries = candidates;
        }
    }

    /// The edges `v` keeps on `level` out of `cands` (sorted nearest-first):
    /// the one rule for a new node's list and for an overflowing one.
    ///
    /// ACORN-1 is HNSW without pruning (§5.3): the nearest `2M` on level 0,
    /// the nearest `M` above. It never compresses, whatever
    /// [`compressed_levels`](AcornParams::compressed_levels) says. ACORN-γ
    /// keeps the nearest `M·γ` on an uncompressed level and runs the
    /// configured [`PruneStrategy`] over them on a compressed one (§5.2,
    /// generalized to the bottom `n_c` levels by §6.1), counting what it
    /// prunes in [`edges_pruned`](Self::edges_pruned).
    fn keep(&mut self, v: u32, level: usize, cands: &[Neighbor]) -> Vec<u32> {
        let budget = self.params.edge_budget();
        let nearest = |n: usize| cands.iter().take(n).map(|c| c.id).collect();
        match self.variant {
            AcornVariant::One if level == 0 => nearest(2 * self.params.m),
            AcornVariant::Gamma if level < self.params.compressed_levels => {
                let g = self.state.growing_mut();
                let outcome = prune::apply(
                    &self.params.prune,
                    &self.vecs,
                    self.params.metric,
                    &g.graph,
                    level,
                    &cands[..cands.len().min(budget)],
                    self.params.m_beta,
                    budget,
                    g.labels.as_deref(),
                    v,
                    &mut g.scratch.visited,
                );
                self.edges_pruned += outcome.pruned as u64;
                outcome.kept
            }
            _ => nearest(budget),
        }
    }

    /// The length past which a list on `level` is chosen again by
    /// [`keep`](Self::keep): `2M` on ACORN-1's level 0 (§5.3);
    /// `M_β + M` (at most `M·γ`) on an ACORN-γ compressed level under
    /// [`PruneStrategy::AcornCompress`], which holds the stored footprint at
    /// the `M_β + O(M)` the paper reports in Table 6 (§5.2); `M·γ`
    /// everywhere else — `M` for ACORN-1, which never compresses.
    fn list_cap(&self, level: usize) -> usize {
        let p = &self.params;
        let compress = level < p.compressed_levels && p.prune == PruneStrategy::AcornCompress;
        match self.variant {
            AcornVariant::One if level == 0 => 2 * p.m,
            AcornVariant::Gamma if compress => (p.m_beta + p.m).min(p.edge_budget()),
            _ => p.edge_budget(),
        }
    }

    /// Past [`list_cap`](Self::list_cap), rank `v`'s list on `level` by
    /// distance to `v` and let [`keep`](Self::keep) choose it again.
    ///
    /// The ranking ([`rank`]) merges the list's sorted run with the back
    /// edges appended since instead of sorting it from scratch, and gives
    /// the order `sort_unstable` gave, so every graph stays the same.
    fn shrink_if_needed(&mut self, v: u32, level: usize) {
        let list = self.state.growing().graph.neighbors(v, level);
        if list.len() <= self.list_cap(level) {
            return;
        }
        let metric = self.params.metric;
        let mut cands: Vec<Neighbor> = list
            .iter()
            .map(|&w| Neighbor::new(self.vecs.distance_between(metric, v, w), w))
            .collect();
        rank(&mut cands);
        let kept = self.keep(v, level, &cands);
        self.state.growing_mut().graph.set_neighbors(v, level, kept);
    }

    /// Hybrid search over the predicate subgraph (Algorithm 2): the `k`
    /// nearest passing nodes, without the pre-filter fallback.
    ///
    /// Use this when the caller already decided graph search is appropriate
    /// (e.g. the benchmark sweeps);
    /// [`SegmentSnapshot::hybrid_search`](crate::snapshot::SegmentSnapshot::hybrid_search)
    /// adds ACORN's cost-model routing. `k = 0` answers empty. The
    /// bottom-level beam, `max(efs, k)`, is clamped to the node count: a
    /// beam as wide as the graph explores what any wider one would.
    pub fn search_filtered<F: NodeFilter>(
        &self,
        query: &[f32],
        filter: &F,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let mut found = match &self.state {
            State::Growing(g) => {
                self.search_filtered_on(&g.graph, query, filter, k, efs, scratch, stats)
            }
            State::Sealed(csr) => {
                self.search_filtered_on(csr, query, filter, k, efs, scratch, stats)
            }
        };
        found.truncate(k);
        found
    }

    /// Algorithm 2 over either [`GraphView`] layout (nested or CSR). Returns
    /// the full bottom-level beam (up to `max(efs, k)` results); the caller
    /// truncates to `k`.
    #[allow(clippy::too_many_arguments)]
    fn search_filtered_on<G: GraphView, F: NodeFilter>(
        &self,
        graph: &G,
        query: &[f32],
        filter: &F,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let Some(entry) = graph.entry_point() else {
            return Vec::new();
        };
        scratch.begin(graph.len());
        let vecs = &*self.vecs;
        let metric = self.params.metric;
        let mode = self.lookup_mode();
        let m = self.params.m;

        let entry = Neighbor::new(vecs.distance_to(metric, entry, query), entry);
        stats.ndis += 1;

        // Stage 1 + upper predicate-subgraph traversal: ef = 1 per level.
        let entries = descend(
            vecs,
            graph,
            &self.params,
            query,
            filter,
            mode,
            vec![entry],
            1..=graph.max_level(),
            scratch,
            stats,
        );

        // Bottom level with the full beam (never wider than the graph).
        let ef = efs.max(k).min(graph.len());
        acorn_search_layer(
            vecs, graph, metric, query, filter, &entries, ef, 0, m, mode, scratch, stats,
        )
    }

    /// Exact pre-filtered scan over every row `filter` passes: the
    /// fallback for highly selective queries (§5.2), for callers holding a
    /// filter rather than a bitmap of the rows. Each row is asked once, in
    /// id order, so `stats.npred` gains one check per row asked, bitmap or
    /// not. Passing ids are scored by the shared [`exact_top_k`]: batched,
    /// prefetched, and bit-identical to one `distance_to` per row. `k = 0`
    /// answers empty, asking nothing; a `k` past the row count is clamped
    /// to it, so no top-`k` is ever sized past the rows it could hold. The
    /// planner's own scan route feeds
    /// the same driver a segment's bitmap directly.
    pub fn prefilter_scan<F: NodeFilter>(
        &self,
        query: &[f32],
        filter: &F,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        stats.npred += self.len() as u64;
        stats.fallback = true;
        let passing = (0..self.len() as u32).filter(|&id| filter.passes(id));
        let k = k.min(self.len());
        let (out, ndis) = exact_top_k(&*self.vecs, self.params.metric, query, k, passing);
        stats.ndis += ndis;
        out
    }
}

/// Sort an overflowing list's candidates nearest-first and drop repeated
/// ids.
///
/// A list is the nearest-first run its last [`keep`](AcornIndex::keep)
/// stored, followed by the back edges appended since, so its candidates
/// arrive as one long sorted run and a short unsorted tail. The stable
/// `slice::sort` finds that run in one pass, sorts the tail and merges the
/// two, where `sort_unstable` sorted the whole list again to drop a single
/// entry. Both sort by `Neighbor`'s total order (distance by `total_cmp`,
/// then id), under which two entries compare equal only when they are the
/// same id at the same distance: equal entries are identical, so the
/// sorted list, and with it the list `dedup` leaves, is the same whatever
/// the sort, and whether or not the run really is sorted.
fn rank(cands: &mut Vec<Neighbor>) {
    cands.sort();
    cands.dedup_by_key(|n| n.id);
}

/// ACORN's ef = 1 walk down `levels`, top first: each level's nearest
/// passing node becomes the next level's entry, and a level that finds none
/// keeps the previous entries. The visited marks are cleared after every
/// level. Insertion walks it with [`LookupMode::Truncate`] and no filter
/// (phase 1 of §2.1), search with the query's filter and the index's lookup
/// (stage 1 of §6.3.2).
#[allow(clippy::too_many_arguments)]
fn descend<G: GraphView, F: NodeFilter>(
    vecs: &VectorStore,
    graph: &G,
    params: &AcornParams,
    query: &[f32],
    filter: &F,
    mode: LookupMode,
    mut entries: Vec<Neighbor>,
    levels: RangeInclusive<usize>,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let (metric, m) = (params.metric, params.m);
    for lev in levels.rev() {
        let found = acorn_search_layer(
            vecs, graph, metric, query, filter, &entries, 1, lev, m, mode, scratch, stats,
        );
        if !found.is_empty() {
            entries = found;
        }
        scratch.visited.reset();
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_hnsw::Metric;
    use acorn_predicate::{BitmapFilter, Bitset};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The ranking as it was before [`rank`]: `sort_unstable` over the whole
    /// list, then `dedup` by id. The oracle of
    /// `rank_equals_the_sort_unstable_reference`.
    fn rank_sort_unstable(cands: &mut Vec<Neighbor>) {
        cands.sort_unstable();
        cands.dedup_by_key(|n| n.id);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// [`rank`] orders and thins a list exactly as `sort_unstable` +
        /// `dedup` did: a sorted run (sometimes with a few entries out of
        /// place) then a random tail, over few distances (ties between
        /// ids, `-0.0` and `0.0` included) and few ids (an id repeats, at
        /// its one distance).
        #[test]
        fn rank_equals_the_sort_unstable_reference(
            seed in 0u64..u64::MAX,
            run_len in 0usize..200,
            tail_len in 0usize..40,
            ids in 1u32..300,
            swaps in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = [-0.0f32, 0.0, 0.5, 1.0, 1.0, 2.0, f32::MAX];
            let dist: Vec<f32> =
                (0..ids).map(|_| levels[rng.gen_range(0..levels.len())]).collect();
            let mut draw = |len: usize| -> Vec<Neighbor> {
                (0..len)
                    .map(|_| rng.gen_range(0..ids))
                    .map(|id| Neighbor::new(dist[id as usize], id))
                    .collect()
            };
            let mut list = draw(run_len);
            list.sort_unstable();
            list.dedup_by_key(|n| n.id);
            list.extend(draw(tail_len));
            for _ in 0..swaps {
                let (a, b) = (rng.gen_range(0..=list.len()), rng.gen_range(0..=list.len()));
                if a < list.len() && b < list.len() {
                    list.swap(a, b);
                }
            }
            let mut want = list.clone();
            rank_sort_unstable(&mut want);
            rank(&mut list);
            prop_assert_eq!(list, want);
        }
    }

    fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    fn small_params(m: usize, gamma: usize) -> AcornParams {
        AcornParams {
            m,
            gamma,
            m_beta: m,
            ef_construction: 48,
            metric: Metric::L2,
            seed: 7,
            prune: PruneStrategy::AcornCompress,
            s_min_override: None,
            compressed_levels: 1,
            flatten_hierarchy: false,
        }
    }

    /// Pure ANN search (no predicate) with throwaway scratch.
    fn pure_search(idx: &AcornIndex, query: &[f32], k: usize, efs: usize) -> Vec<Neighbor> {
        let mut scratch = SearchScratch::new(idx.len());
        let mut stats = SearchStats::default();
        idx.search_filtered(query, &acorn_predicate::AllPass, k, efs, &mut scratch, &mut stats)
    }

    fn brute_force_filtered(
        vecs: &VectorStore,
        q: &[f32],
        pass: &dyn Fn(u32) -> bool,
        k: usize,
    ) -> Vec<u32> {
        let mut all: Vec<Neighbor> = (0..vecs.len() as u32)
            .filter(|&i| pass(i))
            .map(|i| Neighbor::new(Metric::L2.distance(vecs.get(i), q), i))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all.iter().map(|n| n.id).collect()
    }

    #[test]
    fn empty_and_single_point() {
        let vecs = random_store(0, 4, 0);
        let idx = AcornIndex::new(vecs, small_params(4, 2), AcornVariant::Gamma);
        assert!(pure_search(&idx, &[0.0; 4], 3, 8).is_empty());

        let vecs = random_store(1, 4, 1);
        let idx = AcornIndex::build(vecs, small_params(4, 2), AcornVariant::Gamma);
        let out = pure_search(&idx, &[0.0; 4], 3, 8);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn k_zero_answers_empty_at_every_door() {
        let growing =
            AcornIndex::build(random_store(200, 4, 1), small_params(4, 2), AcornVariant::Gamma);
        let sealed = growing.clone().seal();
        for idx in [&growing, &sealed] {
            for efs in [0, 16] {
                assert!(pure_search(idx, &[0.0; 4], 0, efs).is_empty(), "efs = {efs}");
            }
            let mut stats = SearchStats::default();
            assert!(idx
                .prefilter_scan(&[0.0; 4], &acorn_predicate::AllPass, 0, &mut stats)
                .is_empty());
        }
    }

    #[test]
    fn acorn1_overrides_params() {
        let vecs = random_store(10, 4, 2);
        let idx = AcornIndex::new(
            vecs,
            AcornParams { gamma: 9, m_beta: 13, ..small_params(4, 9) },
            AcornVariant::One,
        );
        assert_eq!(idx.params().gamma, 1);
        assert_eq!(idx.params().m_beta, 4);
    }

    #[test]
    fn gamma_upper_levels_are_denser_than_m() {
        let vecs = random_store(3000, 8, 3);
        let idx = AcornIndex::build(vecs, small_params(8, 4), AcornVariant::Gamma);
        let stats = idx.graph().unwrap().level_stats();
        if stats.len() > 1 && stats[1].nodes > 30 {
            assert!(
                stats[1].avg_out_degree > 8.0,
                "upper level should exceed M = 8 on average, got {}",
                stats[1].avg_out_degree
            );
            assert!(stats[1].max_out_degree <= 32, "upper level must respect M·γ");
        }
    }

    #[test]
    fn level0_lists_stay_compressed() {
        let p = AcornParams { m_beta: 12, ..small_params(8, 4) };
        let vecs = random_store(2000, 8, 4);
        let idx = AcornIndex::build(vecs, p.clone(), AcornVariant::Gamma);
        let stats = idx.graph().unwrap().level_stats();
        // Re-compression triggers past M_β + M, so lists stay near that cap.
        assert!(
            stats[0].avg_out_degree <= (p.m_beta + p.m) as f64,
            "level-0 average degree {} exceeds M_β + M",
            stats[0].avg_out_degree
        );
        assert!(idx.edges_pruned() > 0, "compression must have pruned something");
    }

    #[test]
    fn hybrid_recall_beats_090_on_random_labels() {
        // SIFT-style workload: label ∈ 1..=6, equality predicate (s ≈ 0.17).
        let n = 3000;
        let vecs = random_store(n, 16, 5);
        let mut rng = StdRng::seed_from_u64(99);
        let labels: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=6)).collect();
        let idx = AcornIndex::build(
            vecs.clone(),
            AcornParams { m: 16, gamma: 6, m_beta: 32, ef_construction: 64, ..small_params(16, 6) },
            AcornVariant::Gamma,
        );

        let mut scratch = SearchScratch::new(n);
        let mut hits = 0;
        let mut total = 0;
        for t in 0..25 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want: i64 = (t % 6) + 1;
            let pass = |i: u32| labels[i as usize] == want;
            let truth = brute_force_filtered(&vecs, &q, &pass, 10);
            let bits = Bitset::from_ids(n, (0..n as u32).filter(|&i| pass(i)));
            let filter = BitmapFilter::new(bits);
            let mut stats = SearchStats::default();
            let got = idx.search_filtered(&q, &filter, 10, 80, &mut scratch, &mut stats);
            let got_ids: std::collections::HashSet<u32> = got.iter().map(|n| n.id).collect();
            for g in &got {
                assert_eq!(labels[g.id as usize], want, "result fails predicate");
            }
            hits += truth.iter().filter(|t| got_ids.contains(t)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "ACORN-γ filtered recall@10 too low: {recall}");
    }

    #[test]
    fn acorn1_recall_reasonable() {
        let n = 2000;
        let vecs = random_store(n, 12, 6);
        let mut rng = StdRng::seed_from_u64(11);
        let labels: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        // `AcornVariant::One` builds with γ = 1, M_β = M whatever γ says.
        let params = AcornParams { m: 16, ef_construction: 64, seed: 3, ..AcornParams::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::One);
        let mut scratch = SearchScratch::new(n);
        let mut hits = 0;
        let mut total = 0;
        for t in 0..20 {
            let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = t % 4;
            let pass = |i: u32| labels[i as usize] == want;
            let truth = brute_force_filtered(&vecs, &q, &pass, 10);
            let bits = Bitset::from_ids(n, (0..n as u32).filter(|&i| pass(i)));
            let filter = BitmapFilter::new(bits);
            let mut stats = SearchStats::default();
            let got = idx.search_filtered(&q, &filter, 10, 80, &mut scratch, &mut stats);
            let got_ids: std::collections::HashSet<u32> = got.iter().map(|n| n.id).collect();
            hits += truth.iter().filter(|t| got_ids.contains(t)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.85, "ACORN-1 filtered recall@10 too low: {recall}");
    }

    #[test]
    fn prefilter_scan_is_exact() {
        let n = 500;
        let vecs = random_store(n, 8, 8);
        let idx = AcornIndex::build(vecs.clone(), small_params(8, 2), AcornVariant::Gamma);
        let pass = |i: u32| i.is_multiple_of(7);
        let bits = Bitset::from_ids(n, (0..n as u32).filter(|&i| pass(i)));
        let filter = BitmapFilter::new(bits);
        let q = vec![0.25; 8];
        let mut stats = SearchStats::default();
        let got = idx.prefilter_scan(&q, &filter, 5, &mut stats);
        let want = brute_force_filtered(&vecs, &q, &pass, 5);
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), want);
        assert!(stats.fallback);
    }

    #[test]
    fn prefilter_scan_batches_bit_identically_across_dims() {
        // Chunked `distances_batch` scoring must reproduce one `distance_to`
        // per row exactly: odd dims (scalar tail), the AVX2 widths, and
        // passing counts below, at and across the chunk size.
        for (dim, n) in [(7usize, 300usize), (32, 300), (512, 150)] {
            let vecs = random_store(n, dim, dim as u64);
            let idx = AcornIndex::build(vecs.clone(), small_params(8, 2), AcornVariant::Gamma);
            let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
            for keep_mod in [1u32, 2, 5, 40] {
                let pass = |i: u32| i % keep_mod == 0;
                let mut want: Vec<Neighbor> = (0..n as u32)
                    .filter(|&i| pass(i))
                    .map(|i| Neighbor::new(vecs.distance_to(Metric::L2, i, &q), i))
                    .collect();
                want.sort_unstable();
                let bits =
                    BitmapFilter::new(Bitset::from_ids(n, (0..n as u32).filter(|&i| pass(i))));
                struct Lazy(u32);
                impl NodeFilter for Lazy {
                    fn passes(&self, id: u32) -> bool {
                        id % self.0 == 0
                    }
                }
                for k in [1usize, 10, n] {
                    let expect: Vec<(u32, u32)> =
                        want.iter().take(k).map(|x| (x.id, x.dist.to_bits())).collect();
                    let mut stats = SearchStats::default();
                    let got = idx.prefilter_scan(&q, &bits, k, &mut stats);
                    let got: Vec<(u32, u32)> =
                        got.iter().map(|x| (x.id, x.dist.to_bits())).collect();
                    assert_eq!(got, expect, "bitmap filter, dim {dim}, 1/{keep_mod}, k {k}");
                    assert_eq!(stats.ndis, want.len() as u64, "every passing row is scored once");
                    assert_eq!(stats.npred, n as u64, "one bit test per row");

                    let mut stats = SearchStats::default();
                    let got = idx.prefilter_scan(&q, &Lazy(keep_mod), k, &mut stats);
                    let got: Vec<(u32, u32)> =
                        got.iter().map(|x| (x.id, x.dist.to_bits())).collect();
                    assert_eq!(got, expect, "lazy filter, dim {dim}, 1/{keep_mod}, k {k}");
                    assert_eq!(stats.npred, n as u64, "a lazy filter is asked about every row");
                }
            }
        }
    }

    #[test]
    fn from_parts_matches_new_sampler_for_flattened_hierarchy() {
        // Regression: from_parts rebuilt the level sampler from M alone,
        // ignoring flatten_hierarchy, so a loaded flattening-ablation index
        // resumed inserts with the wrong level distribution.
        let params = AcornParams { flatten_hierarchy: true, ..small_params(4, 8) };
        let vecs = random_store(10, 4, 20);
        let built = AcornIndex::new(vecs.clone(), params.clone(), AcornVariant::Gamma);
        let loaded = AcornIndex::from_parts(
            params,
            AcornVariant::Gamma,
            vecs,
            LayeredGraph::with_capacity(10),
            0,
        );
        let ml = |idx: &AcornIndex| idx.state.growing().sampler.ml();
        assert_eq!(ml(&built), ml(&loaded));
        // Flattening ties mL to M·γ = 32, the Qdrant-ablation behaviour.
        assert!((ml(&loaded) - 1.0 / 32f64.ln()).abs() < 1e-12);

        // The non-flattened default stays tied to M.
        let params = small_params(4, 8);
        let loaded = AcornIndex::from_parts(
            params,
            AcornVariant::Gamma,
            random_store(10, 4, 21),
            LayeredGraph::with_capacity(10),
            0,
        );
        assert!((ml(&loaded) - 1.0 / 4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn insert_vector_grows_store_and_matches_prefilled_build() {
        let n = 300;
        let prefilled = random_store(n, 8, 17);
        let built = AcornIndex::build(prefilled.clone(), small_params(8, 2), AcornVariant::Gamma);

        // Grow an index row by row from an empty, exclusively-owned store.
        let mut grown =
            AcornIndex::new(Arc::new(VectorStore::new(8)), small_params(8, 2), AcornVariant::Gamma);
        for id in 0..n as u32 {
            assert_eq!(grown.insert_vector(prefilled.get(id)), id);
        }
        assert_eq!(grown.len(), n);
        let q = vec![0.2; 8];
        let pairs = |idx: &AcornIndex| -> Vec<(u32, u32)> {
            pure_search(idx, &q, 10, 64).iter().map(|x| (x.id, x.dist.to_bits())).collect()
        };
        assert_eq!(pairs(&built), pairs(&grown), "grown and prefilled construction must agree");

        // The same growth with a clone of the index alive across every push
        // (the segmented writer's published view): the clone is frozen at
        // the length it was taken at, and the grower ends up identical.
        let mut shared =
            AcornIndex::new(Arc::new(VectorStore::new(8)), small_params(8, 2), AcornVariant::Gamma);
        let mut view = shared.clone();
        for id in 0..n as u32 {
            assert_eq!(shared.insert_vector(prefilled.get(id)), id);
            assert_eq!(view.len(), id as usize, "a clone never sees a later insert");
            assert_eq!(view.vectors().len(), id as usize);
            view = shared.clone();
        }
        assert_eq!(pairs(&built), pairs(&shared));
        // And the other way round: a clone that keeps inserting.
        let mut halfway =
            AcornIndex::new(Arc::new(VectorStore::new(8)), small_params(8, 2), AcornVariant::Gamma);
        for id in 0..n as u32 / 2 {
            halfway.insert_vector(prefilled.get(id));
        }
        let mut fork = halfway.clone();
        for id in n as u32 / 2..n as u32 {
            fork.insert_vector(prefilled.get(id));
        }
        assert_eq!(pairs(&built), pairs(&fork), "a clone grows into the same index");
        assert_eq!(halfway.len(), n / 2, "and leaves the index it was cloned from alone");
        for v in 0..halfway.len() as u32 {
            assert_eq!(halfway.vectors().get(v), prefilled.get(v));
            for lev in 0..=halfway.graph().unwrap().level_of(v) {
                for &w in halfway.graph().unwrap().neighbors(v, lev) {
                    assert!((w as usize) < halfway.len(), "edge {v}->{w} leaked from the fork");
                }
            }
        }
    }

    #[test]
    fn sealing_reports_the_csrs_memory_bytes() {
        let vecs = random_store(400, 8, 18);
        let idx = AcornIndex::build(vecs, small_params(8, 2), AcornVariant::Gamma);
        let graph = idx.graph().unwrap();
        let nested_bytes = graph.memory_bytes();
        assert_eq!(idx.memory_bytes(), nested_bytes, "nested until sealed");
        assert!(idx.csr().is_none());
        // Both layouts count the same edge words. The nested one adds a
        // 12 B span per list, a 4 B upper-level index and a level tag per
        // node; the CSR one offset per node and level (and one more per
        // level) and a level tag per node.
        let n = graph.len();
        let lists = |v: u32| 0..=graph.level_of(v);
        let words: usize =
            (0..n as u32).flat_map(|v| lists(v).map(move |l| graph.neighbors(v, l).len())).sum();
        let upper: usize = (0..n as u32).map(|v| graph.level_of(v)).sum();
        let levels = graph.max_level() + 1;
        assert_eq!(nested_bytes, 4 * words + 12 * (n + upper) + 4 * n + n);
        let sealed = idx.seal();
        let csr_bytes = sealed.csr().expect("a sealed index holds its CSR").memory_bytes();
        assert_eq!(sealed.memory_bytes(), csr_bytes);
        assert_eq!(csr_bytes, 4 * words + 4 * (n + 1) * levels + n);
    }

    #[test]
    #[should_panic(expected = "a sealed index accepts no inserts")]
    fn insert_into_a_sealed_index_panics() {
        let vecs = random_store(40, 4, 19);
        let mut idx = AcornIndex::new(vecs, small_params(4, 2), AcornVariant::Gamma);
        for id in 0..39 {
            idx.insert(id);
        }
        let mut sealed = idx.seal();
        sealed.insert(39);
    }

    #[test]
    fn graph_of_a_sealed_index_is_none() {
        let idx =
            AcornIndex::build(random_store(40, 4, 19), small_params(4, 2), AcornVariant::Gamma);
        assert!(idx.graph().is_some() && idx.csr().is_none());
        let sealed = idx.seal();
        assert!(sealed.graph().is_none() && sealed.csr().is_some());
    }

    #[test]
    fn a_clone_taken_before_seal_still_grows() {
        // The segmented writer's published view outlives the freeze that
        // seals the writer's own index: sealing one handle must leave the
        // other a complete growing index.
        let n = 200;
        let prefilled = random_store(n, 8, 23);
        let built = AcornIndex::build(prefilled.clone(), small_params(8, 2), AcornVariant::Gamma);
        let mut writer =
            AcornIndex::new(Arc::new(VectorStore::new(8)), small_params(8, 2), AcornVariant::Gamma);
        for id in 0..n as u32 / 2 {
            writer.insert_vector(prefilled.get(id));
        }
        let mut view = writer.clone();
        let sealed = writer.seal();
        assert_eq!(sealed.len(), n / 2);
        assert!(view.csr().is_none());
        for id in n as u32 / 2..n as u32 {
            view.insert_vector(prefilled.get(id));
        }
        let q = vec![0.2; 8];
        let pairs = |idx: &AcornIndex| -> Vec<(u32, u32)> {
            pure_search(idx, &q, 10, 64).iter().map(|x| (x.id, x.dist.to_bits())).collect()
        };
        assert_eq!(pairs(&built), pairs(&view), "the clone grows into the same index");
        assert_eq!(sealed.len(), n / 2, "and the sealed index never sees its rows");
        assert_eq!(sealed.vectors().len(), n / 2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let vecs = random_store(400, 8, 10);
        let a = AcornIndex::build(vecs.clone(), small_params(8, 3), AcornVariant::Gamma);
        let b = AcornIndex::build(vecs, small_params(8, 3), AcornVariant::Gamma);
        let qa = pure_search(&a, &[0.0; 8], 5, 32);
        let qb = pure_search(&b, &[0.0; 8], 5, 32);
        assert_eq!(
            qa.iter().map(|n| n.id).collect::<Vec<_>>(),
            qb.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stats_counters_accumulate() {
        let n = 800;
        let vecs = random_store(n, 8, 12);
        let idx = AcornIndex::build(vecs, small_params(8, 2), AcornVariant::Gamma);
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let _ = idx.search_filtered(
            &[0.0; 8],
            &acorn_predicate::AllPass,
            10,
            64,
            &mut scratch,
            &mut stats,
        );
        assert!(stats.ndis > 10);
        assert!(stats.nhops > 0);
        assert!(stats.npred > 0);
    }
}
