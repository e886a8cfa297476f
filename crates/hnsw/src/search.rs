//! The workspace's one best-first graph traversal (SEARCH-LAYER of the HNSW
//! paper) and its one exact nearest-`k` scan.
//!
//! [`search_layer`] is the loop behind HNSW, ACORN and every graph baseline
//! (Vamana, FilteredVamana, StitchedVamana, NHQ). They differ only in the
//! neighborhood a hop expands and in which entries may be reported, and
//! both are arguments: [`gated`] turns a graph level and a neighbor gate
//! into a neighborhood (HNSW and the baselines, whose label filters ride on
//! the gate), and `acorn-core` passes ACORN's predicate-aware GET-NEIGHBORS
//! (Algorithm 2 of the ACORN paper). A new lookup rule is a new
//! neighborhood function, not a new loop. [`scan_into`] is the one exact
//! scan: the segmented planner's pre-filter route feeds it each segment's
//! bitmap into one top-`k` per query, and [`exact_top_k`] wraps it for
//! `AcornIndex::prefilter_scan`, the pre-filter and IVF baselines, k-means,
//! medoids and the exact ground truth.

use acorn_predicate::{Bitset, MemoTable};

use crate::graph::GraphView;
use crate::heap::{MinHeap, Neighbor, Scored, TopK};
use crate::stats::SearchStats;
use crate::vecs::{Metric, VectorData};
use crate::visited::{ResumeMemo, VisitedSet};

/// Reusable per-thread scratch space for graph searches.
///
/// Allocating a visited set per query would dominate small-query latency;
/// create one scratch per worker thread (or check one out of a
/// [`ScratchPool`](crate::pool::ScratchPool)) and pass it to every search
/// call.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Visited-node stamps.
    pub visited: VisitedSet,
    /// Candidate min-heap (reused allocation).
    pub candidates: MinHeap,
    /// The neighborhood [`search_layer`] collects for the node it expands.
    pub expansion: Vec<u32>,
    /// Expanded-node log: every traversal runs [`search_layer`], which
    /// clears it on entry and appends every node it expands, in expansion
    /// order (Vamana's construction robust-prunes over that set).
    pub frontier: Vec<Neighbor>,
    /// Per-hood distance buffer filled by
    /// [`VectorData::distances_batch`] (reused allocation).
    pub dist_buf: Vec<f32>,
    /// Per-query predicate memo (tri-state known/pass words), recycled with
    /// the scratch through the [`ScratchPool`](crate::pool::ScratchPool).
    /// Not touched by [`begin`](Self::begin): whoever uses it checks it out
    /// with [`take_memo`](Self::take_memo) (which resets it). The engine no
    /// longer does — the hybrid query planner materializes every segment
    /// into [`bitmap`](Self::bitmap) — so this field and its two accessors
    /// stay public only for the repo benchmark's staged replay, which binds
    /// them; ROADMAP item 2(b) retires them with it.
    pub memo: MemoTable,
    /// Pooled words for the segment-local predicate bitmap the hybrid query
    /// planner materializes: it moves the bitset out for one segment's
    /// search (`std::mem::take`) and stores it back afterwards, so steady
    /// state allocates no bitmap words per query. Whoever takes it refills
    /// it completely; nothing here resets it.
    pub bitmap: Bitset,
    /// Pooled resume memo of ACORN's two-hop expansion: where each node's
    /// neighbor list was left off, and how many fresh entries of the walked
    /// prefix failed the filter. ACORN's layer search moves it out
    /// (`std::mem::take`) and [`begins`](ResumeMemo::begin) it, an O(1)
    /// tick bump that forgets every mark, so no mark outlives the layer
    /// search that wrote it. Only searches whose lookups expand lists and
    /// whose filter is a bit test use it; it stays empty (no bytes) for
    /// every other search. Nothing here resets it.
    pub resume: ResumeMemo,
    /// Pooled words for the store-wide candidate bitmap the hybrid query
    /// planner fills once per query when the predicate's ordered index
    /// serves it, and cuts each segment's [`bitmap`](Self::bitmap) out of.
    /// Moved out and back like `bitmap`; whoever takes it refills it
    /// completely.
    pub store_bits: Bitset,
}

impl SearchScratch {
    /// Scratch sized for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            visited: VisitedSet::new(n),
            candidates: MinHeap::new(),
            expansion: Vec::new(),
            frontier: Vec::new(),
            dist_buf: Vec::new(),
            memo: MemoTable::new(),
            bitmap: Bitset::default(),
            resume: ResumeMemo::default(),
            store_bits: Bitset::default(),
        }
    }

    /// Take the predicate memo out of the scratch, reset for a query over
    /// rows `0..n`. Moving it out lets a `MemoFilter` own it while the same
    /// scratch is mutably borrowed by the search; return it afterwards with
    /// [`put_memo`](Self::put_memo) so the allocation keeps recycling
    /// through the pool. The engine no longer calls it (see
    /// [`memo`](Self::memo)).
    pub fn take_memo(&mut self, n: usize) -> MemoTable {
        let mut memo = std::mem::take(&mut self.memo);
        memo.reset_for(n);
        memo
    }

    /// Return a memo previously taken with [`take_memo`](Self::take_memo).
    /// The engine no longer calls it (see [`memo`](Self::memo)).
    pub fn put_memo(&mut self, memo: MemoTable) {
        self.memo = memo;
    }

    /// Prepare this scratch for a query over a graph of `n` nodes: grow the
    /// visited set if the index has grown since the scratch was created, and
    /// clear all per-query state while keeping the allocations.
    ///
    /// Searches call it at query start, and
    /// [`ScratchPool`](crate::pool::ScratchPool) at checkout, which is how a
    /// pooled scratch sized for an older, smaller index is rehabilitated
    /// rather than reallocated. The double reset when a pooled scratch
    /// enters a search is an O(1) epoch bump, not a wipe.
    pub fn begin(&mut self, n: usize) {
        self.visited.grow(n);
        self.visited.reset();
        self.candidates.clear();
        self.expansion.clear();
        self.frontier.clear();
        self.dist_buf.clear();
    }
}

/// Greedy beam search from `entry`, returning the `ef` closest reported
/// nodes found (sorted nearest-first).
///
/// This is SEARCH-LAYER from the HNSW paper: a best-first expansion that
/// stops when the closest unexpanded candidate is further than the worst of
/// the `ef` results. It is the workspace's one such loop; callers differ
/// only in the two callbacks.
///
/// * `reports` is asked once about each entry not yet visited, and says
///   whether it may enter the result list. An entry it turns away is still
///   expanded. Pass `|_, _| true` to report every entry.
/// * `hood` is called once per expanded node with the node, the visited set
///   as it stands and a cleared buffer, and appends the node's candidates.
///   The loop then drops visited ids and repeats, marks the rest visited,
///   scores them with one [`VectorData::distances_batch`] call, and admits
///   each that beats the worst result into both the candidates and the
///   results, so a neighborhood must yield only nodes that may be reported.
///   [`gated`] builds the plain one.
/// * Every expanded node is logged in `scratch.frontier` (cleared first), so
///   it ends with one entry per `stats.nhops` this call added.
///
/// Generic over [`VectorData`], so the same traversal serves the exact f32
/// rows and NHQ's fusion distance; the neighborhood decides which graph
/// layout ([`GraphView`]) it walks.
#[allow(clippy::too_many_arguments)]
pub fn search_layer<V, R, H>(
    vecs: &V,
    metric: Metric,
    query: &[f32],
    entry: &[Neighbor],
    ef: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    mut reports: R,
    mut hood: H,
) -> Vec<Neighbor>
where
    V: VectorData + ?Sized,
    R: FnMut(u32, &mut SearchStats) -> bool,
    H: FnMut(u32, &VisitedSet, &mut Vec<u32>, &mut SearchStats),
{
    debug_assert!(ef > 0);
    scratch.candidates.clear();
    scratch.frontier.clear();
    let mut results = TopK::new(ef);

    for &e in entry {
        if scratch.visited.insert(e.id) {
            scratch.candidates.push(e);
            if reports(e.id, stats) {
                results.push(e);
            }
        }
    }

    while let Some(c) = scratch.candidates.pop() {
        if c.dist > results.bound() {
            break;
        }
        stats.nhops += 1;
        scratch.frontier.push(c);
        // Gather the unvisited neighborhood, then compute all its distances
        // in one batched, prefetched pass over the vector store.
        scratch.expansion.clear();
        hood(c.id, &scratch.visited, &mut scratch.expansion, stats);
        let visited = &mut scratch.visited;
        scratch.expansion.retain(|&nb| visited.insert(nb));
        vecs.distances_batch(metric, query, &scratch.expansion, &mut scratch.dist_buf);
        stats.ndis += scratch.expansion.len() as u64;
        for (&nb, &d) in scratch.expansion.iter().zip(&scratch.dist_buf) {
            let cand = Neighbor::new(d, nb);
            if !results.is_full() || d < results.bound() {
                scratch.candidates.push(cand);
                results.push(cand);
            }
        }
    }

    results.into_sorted()
}

/// The plain neighborhood for [`search_layer`]: `v`'s list on `level`,
/// through `gate`.
///
/// `gate` is asked about every neighbor in list order *before* the visited
/// check: a rejected node stays unvisited, so a later expansion asks about
/// it again (FilteredVamana counts one predicate evaluation per neighbor
/// scanned this way). Pass `|_, _| true` for an unfiltered walk.
pub fn gated<'g, G, P>(
    graph: &'g G,
    level: usize,
    mut gate: P,
) -> impl FnMut(u32, &VisitedSet, &mut Vec<u32>, &mut SearchStats) + 'g
where
    G: GraphView + ?Sized,
    P: FnMut(u32, &mut SearchStats) -> bool + 'g,
{
    move |v, _, out, stats| {
        out.extend(graph.neighbors(v, level).iter().copied().filter(|&nb| gate(nb, stats)));
    }
}

/// Exact nearest-`k` scan over `ids`: returns the `k` nearest,
/// nearest-first, and the number of distances computed (one per id). `k = 0`
/// answers empty without drawing an id. The scan itself is [`scan_into`].
pub fn exact_top_k<V: VectorData + ?Sized>(
    vecs: &V,
    metric: Metric,
    query: &[f32],
    k: usize,
    ids: impl IntoIterator<Item = u32>,
) -> (Vec<Neighbor>, u64) {
    if k == 0 {
        return (Vec::new(), 0);
    }
    let mut top = TopK::new(k);
    let ndis = scan_into(vecs, metric, query, ids, &mut Vec::new(), &mut top, Neighbor::new);
    (top.into_sorted(), ndis)
}

/// The workspace's one exact scan: every id `ids` yields is scored into a
/// top-`k` the caller owns, and each row the skip below lets through is
/// offered to `top` as `item(dist, id)` (`item` runs for no other row).
/// Returns the number of distances computed, one per id.
///
/// Ids are scored 64 at a time through [`VectorData::distances_batch`]
/// (into `dists`), whose prefetch look-ahead hides the row fetches a sparse
/// scan would otherwise wait on. Distances are those of one `distance_to`
/// per row, and a total order on `(dist, id)` makes the answer independent
/// of the order ids arrive in.
///
/// Once `top` is full, a row is turned away with one IEEE compare,
/// `d > bound` against the `k`-th distance ([`TopK::bound`]), before it
/// touches the heap. The skip keeps the total order's answer: an IEEE
/// `d > bound` holds only between two ordered values with `d` the larger,
/// so `d` sorts after the worst held row under `total_cmp` too. NaN (either
/// sign) compares false on either side and `-0.0 > +0.0` is false, so those
/// rows and every exact tie fall through to the total-order push, which
/// settles them by `(dist, id)`. `top` carries its bound from call to call,
/// so a scan over several row sets — the segmented planner's, one segment's
/// bitmap after another — starts each set from the `k`-th distance the sets
/// before it left.
pub fn scan_into<V: VectorData + ?Sized, T: Scored>(
    vecs: &V,
    metric: Metric,
    query: &[f32],
    ids: impl IntoIterator<Item = u32>,
    dists: &mut Vec<f32>,
    top: &mut TopK<T>,
    mut item: impl FnMut(f32, u32) -> T,
) -> u64 {
    let (mut ids, mut batch, mut ndis) = (ids.into_iter(), [0u32; 64], 0u64);
    loop {
        let mut filled = 0;
        for (slot, id) in batch.iter_mut().zip(&mut ids) {
            *slot = id;
            filled += 1;
        }
        vecs.distances_batch(metric, query, &batch[..filled], dists);
        let mut bound = top.bound();
        for (&id, &d) in batch.iter().zip(dists.iter()) {
            if d > bound {
                continue;
            }
            if top.push(item(d, id)) {
                bound = top.bound();
            }
        }
        ndis += filled as u64;
        if filled < batch.len() {
            return ndis;
        }
    }
}

/// Greedy descent: at each level choose the single closest node (`ef = 1`).
/// Returns the entry point for the next level.
#[allow(clippy::too_many_arguments)]
pub fn greedy_descend<V: VectorData + ?Sized, G: GraphView>(
    vecs: &V,
    graph: &G,
    metric: Metric,
    query: &[f32],
    mut entry: Neighbor,
    from_level: usize,
    to_level: usize,
    stats: &mut SearchStats,
) -> Neighbor {
    debug_assert!(from_level >= to_level);
    let mut level = from_level;
    loop {
        // Simple hill climbing: move to any strictly closer neighbor.
        let mut improved = true;
        while improved {
            improved = false;
            stats.nhops += 1;
            for &nb in graph.neighbors(entry.id, level) {
                let d = vecs.distance_to(metric, nb, query);
                stats.ndis += 1;
                if d < entry.dist {
                    entry = Neighbor::new(d, nb);
                    improved = true;
                }
            }
        }
        if level == to_level {
            break;
        }
        level -= 1;
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LayeredGraph;
    use crate::vecs::VectorStore;

    /// The unfiltered gate.
    fn all(_: u32, _: &mut SearchStats) -> bool {
        true
    }

    /// Build a tiny single-level graph: a path 0 - 1 - 2 - 3 on a line.
    fn line_world() -> (VectorStore, LayeredGraph) {
        let mut vecs = VectorStore::new(1);
        for i in 0..4 {
            vecs.push(&[i as f32]);
        }
        let mut g = LayeredGraph::new();
        for _ in 0..4 {
            g.add_node(0);
        }
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
            g.push_edge(a, b, 0);
            g.push_edge(b, a, 0);
        }
        (vecs, g)
    }

    #[test]
    fn search_layer_walks_to_target() {
        let (vecs, g) = line_world();
        let mut scratch = SearchScratch::new(4);
        scratch.begin(4);
        let mut stats = SearchStats::default();
        let entry = vec![Neighbor::new(vecs.distance_to(Metric::L2, 0, &[3.0]), 0)];
        let out = search_layer(
            &vecs,
            Metric::L2,
            &[3.0],
            &entry,
            2,
            &mut scratch,
            &mut stats,
            all,
            gated(&g, 0, all),
        );
        assert_eq!(out[0].id, 3);
        assert_eq!(out[1].id, 2);
        assert!(stats.ndis > 0);
        assert!(stats.nhops > 0);
    }

    #[test]
    fn search_layer_respects_ef() {
        let (vecs, g) = line_world();
        let mut scratch = SearchScratch::new(4);
        scratch.begin(4);
        let mut stats = SearchStats::default();
        let entry = vec![Neighbor::new(vecs.distance_to(Metric::L2, 0, &[0.0]), 0)];
        let out = search_layer(
            &vecs,
            Metric::L2,
            &[0.0],
            &entry,
            1,
            &mut scratch,
            &mut stats,
            all,
            gated(&g, 0, all),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    fn greedy_descend_hill_climbs() {
        let (vecs, g) = line_world();
        let mut scratch = SearchScratch::new(4);
        scratch.begin(4);
        let mut stats = SearchStats::default();
        let start = Neighbor::new(vecs.distance_to(Metric::L2, 0, &[2.9]), 0);
        let got = greedy_descend(&vecs, &g, Metric::L2, &[2.9], start, 0, 0, &mut stats);
        assert_eq!(got.id, 3);
    }

    #[test]
    fn gate_is_asked_before_the_visited_mark() {
        // Flat adjacency 0 -> {1, 2}, 1 -> {2}; the gate turns node 2 away
        // the first time only. Rejected, it must stay unvisited, so the
        // expansion of node 1 offers it again and it is found.
        let mut vecs = VectorStore::new(1);
        for x in [0.0, 1.0, 2.0] {
            vecs.push(&[x]);
        }
        let adj: Vec<Vec<u32>> = vec![vec![1, 2], vec![2], vec![]];
        let mut scratch = SearchScratch::new(3);
        scratch.begin(3);
        let mut stats = SearchStats::default();
        let mut asked_about_2 = 0;
        let gate = |nb: u32, _: &mut SearchStats| {
            if nb == 2 {
                asked_about_2 += 1;
                return asked_about_2 > 1;
            }
            true
        };
        let entry = [Neighbor::new(vecs.distance_to(Metric::L2, 0, &[2.0]), 0)];
        let out = search_layer(
            &vecs,
            Metric::L2,
            &[2.0],
            &entry,
            3,
            &mut scratch,
            &mut stats,
            all,
            gated(&adj[..], 0, gate),
        );
        assert_eq!(asked_about_2, 2);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), [2, 1, 0]);
    }

    #[test]
    fn frontier_logs_one_node_per_hop() {
        let (vecs, g) = line_world();
        let mut scratch = SearchScratch::new(4);
        scratch.begin(4);
        scratch.frontier.push(Neighbor::new(9.0, 3)); // stale: cleared on entry
        let mut stats = SearchStats::default();
        let entry = [Neighbor::new(vecs.distance_to(Metric::L2, 0, &[3.0]), 0)];
        let hood = gated(&g, 0, all);
        search_layer(&vecs, Metric::L2, &[3.0], &entry, 2, &mut scratch, &mut stats, all, hood);
        assert_eq!(scratch.frontier.len() as u64, stats.nhops);
        assert_eq!(scratch.frontier[0], entry[0]);
    }

    #[test]
    fn rejecting_gate_returns_only_the_entries() {
        let (vecs, g) = line_world();
        let mut scratch = SearchScratch::new(4);
        scratch.begin(4);
        let mut stats = SearchStats::default();
        let entry = [Neighbor::new(vecs.distance_to(Metric::L2, 1, &[3.0]), 1)];
        let none = |_: u32, _: &mut SearchStats| false;
        let out = search_layer(
            &vecs,
            Metric::L2,
            &[3.0],
            &entry,
            4,
            &mut scratch,
            &mut stats,
            all,
            gated(&g, 0, none),
        );
        assert_eq!(out, entry);
        assert_eq!(stats.ndis, 0);
    }

    #[test]
    fn a_fresh_scratch_needs_no_begin() {
        let (vecs, g) = line_world();
        let mut scratch = SearchScratch::new(4);
        let mut stats = SearchStats::default();
        let entry = [Neighbor::new(vecs.distance_to(Metric::L2, 2, &[2.0]), 2)];
        let hood = gated(&g, 0, all);
        let out =
            search_layer(&vecs, Metric::L2, &[2.0], &entry, 1, &mut scratch, &mut stats, all, hood);
        assert_eq!(out, entry);
    }
}
