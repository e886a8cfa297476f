//! ACORN's greedy layer search (Algorithm 2 of the paper).
//!
//! The traversal is HNSW's SEARCH-LAYER with one structural change, and the
//! code has that shape: [`acorn_search_layer`] runs the workspace's one
//! best-first loop, [`acorn_hnsw::search::search_layer`], with neighbor
//! lookups that go through a predicate-aware strategy ([`crate::lookup`]),
//! so the dynamic result list `W` only ever contains nodes that pass the
//! query predicate. The fixed entry point may *fail* the
//! predicate — stage 1 of the search (§6.3.2) expands it anyway, dropping
//! through levels until the predicate subgraph is reached.
//!
//! The layer search is generic over [`NodeFilter`], so the cost of a
//! predicate check is whatever the filter makes it: an interpreted AST walk
//! (`PredicateFilter`), one compiled-program run (`CompiledFilter`), a
//! memoized check that evaluates each distinct row at most once per query,
//! or a bit test against a block-materialized bitmap (`BitmapFilter`). The
//! query planner ([`crate::plan`]) materializes every segment and hands the
//! traversal a `BitmapFilter`. Results are identical for any filter that
//! answers `passes` the same way.

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::search_layer;
use acorn_hnsw::{
    GraphView, Metric, ResumeMemo, SearchScratch, SearchStats, VectorData, VisitedSet,
};
use acorn_predicate::NodeFilter;

use crate::lookup;

/// Which GET-NEIGHBORS strategy a layer search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupMode {
    /// Return the first `M` stored entries passing the filter (Figure 4a).
    /// With an all-pass filter this is the *metadata-agnostic truncated*
    /// lookup ACORN uses during construction (§5.2).
    Truncate,
    /// ACORN-γ search: Figure 4(a) on uncompressed levels, Figure 4(b)
    /// (with the stored `m_beta`) on the compressed bottom levels.
    GammaSearch {
        /// The construction-time compression parameter `M_β`.
        m_beta: usize,
        /// How many bottom levels were compressed (`n_c`, §6.1).
        compressed_levels: usize,
    },
    /// ACORN-1 search: full one-hop + two-hop expansion (Figure 4c).
    TwoHop,
}

/// Collect the (filtered, truncated) neighborhood of `v` according to `mode`.
#[allow(clippy::too_many_arguments)]
fn get_neighbors<G: GraphView, F: NodeFilter>(
    graph: &G,
    v: u32,
    level: usize,
    filter: &F,
    m: usize,
    mode: LookupMode,
    visited: &VisitedSet,
    memo: &mut ResumeMemo,
    out: &mut Vec<u32>,
    stats: &mut SearchStats,
) {
    match mode {
        LookupMode::Truncate => lookup::filtered(graph, v, level, filter, m, visited, out, stats),
        LookupMode::GammaSearch { m_beta, compressed_levels } => {
            if level < compressed_levels {
                lookup::compressed(graph, v, level, filter, m, m_beta, visited, memo, out, stats);
            } else {
                lookup::filtered(graph, v, level, filter, m, visited, out, stats);
            }
        }
        LookupMode::TwoHop => {
            lookup::two_hop(graph, v, level, filter, m, visited, memo, out, stats)
        }
    }
}

/// Greedy beam search at `level` returning up to `ef` passing nodes,
/// sorted nearest-first (ACORN-SEARCH-LAYER, Algorithm 2).
///
/// `entries` seed the candidate set; entries that fail the predicate are
/// expanded but never reported. Returns an empty vector when no passing node
/// is reachable (the caller then drops to the next level with its previous
/// entry point, per stage 1 of §6.3.2).
///
/// An adapter over the workspace's one best-first loop,
/// [`search_layer`]: each fresh entry is reported if it passes `filter`
/// (one `npred` apiece), and the neighborhood is the `mode`'s
/// GET-NEIGHBORS, which admits only passing nodes. Generic over
/// [`VectorData`] like the rest of the workspace's scans; the engine
/// traverses the exact f32 rows of its
/// [`VectorStore`](acorn_hnsw::VectorStore) for both the
/// growing and the sealed graph layout.
///
/// The layer search owns `scratch.resume` for its duration (moved out and
/// back, as the planner does with `scratch.bitmap`): with a `BRANCH_FREE`
/// filter and an expanding lookup it starts the memo empty, so the
/// expansion resumes each neighbor list where an earlier hop of this layer
/// search left it ([`crate::lookup`]). [`LookupMode::Truncate`] never
/// touches it.
#[allow(clippy::too_many_arguments)]
pub fn acorn_search_layer<V: VectorData + ?Sized, G: GraphView, F: NodeFilter>(
    vecs: &V,
    graph: &G,
    metric: Metric,
    query: &[f32],
    filter: &F,
    entries: &[Neighbor],
    ef: usize,
    level: usize,
    m: usize,
    mode: LookupMode,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let reports = |e: u32, stats: &mut SearchStats| {
        stats.npred += 1;
        filter.passes(e)
    };
    let mut memo = std::mem::take(&mut scratch.resume);
    if F::BRANCH_FREE && mode != LookupMode::Truncate {
        memo.begin(graph.len());
    }
    let hood = |v: u32, visited: &VisitedSet, out: &mut Vec<u32>, stats: &mut SearchStats| {
        get_neighbors(graph, v, level, filter, m, mode, visited, &mut memo, out, stats)
    };
    let found = search_layer(vecs, metric, query, entries, ef, scratch, stats, reports, hood);
    scratch.resume = memo;
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_hnsw::{LayeredGraph, VectorStore};
    use acorn_predicate::{AllPass, BitmapFilter, Bitset};

    /// A line of points 0..6 at x = 0..6, chained bidirectionally, level 0.
    fn line() -> (VectorStore, LayeredGraph) {
        let mut vecs = VectorStore::new(1);
        for i in 0..7 {
            vecs.push(&[i as f32]);
        }
        let mut g = LayeredGraph::new();
        for _ in 0..7 {
            g.add_node(0);
        }
        for i in 0..6u32 {
            g.push_edge(i, i + 1, 0);
            g.push_edge(i + 1, i, 0);
        }
        (vecs, g)
    }

    fn entry(vecs: &VectorStore, id: u32, q: &[f32]) -> Vec<Neighbor> {
        vec![Neighbor::new(Metric::L2.distance(vecs.get(id), q), id)]
    }

    #[test]
    fn unfiltered_search_reaches_target() {
        let (vecs, g) = line();
        let mut scratch = SearchScratch::new(7);
        scratch.begin(7);
        let mut stats = SearchStats::default();
        let q = [6.0];
        let out = acorn_search_layer(
            &vecs,
            &g,
            Metric::L2,
            &q,
            &AllPass,
            &entry(&vecs, 0, &q),
            2,
            0,
            3,
            LookupMode::Truncate,
            &mut scratch,
            &mut stats,
        );
        assert_eq!(out[0].id, 6);
    }

    #[test]
    fn results_contain_only_passing_nodes() {
        let (vecs, g) = line();
        let f = BitmapFilter::new(Bitset::from_ids(7, [1u32, 3, 5]));
        let mut scratch = SearchScratch::new(7);
        scratch.begin(7);
        let mut stats = SearchStats::default();
        let q = [6.0];
        let out = acorn_search_layer(
            &vecs,
            &g,
            Metric::L2,
            &q,
            &f,
            &entry(&vecs, 0, &q),
            10,
            0,
            3,
            LookupMode::TwoHop,
            &mut scratch,
            &mut stats,
        );
        assert!(!out.is_empty());
        for n in &out {
            assert!([1, 3, 5].contains(&n.id), "node {} fails the predicate", n.id);
        }
    }

    #[test]
    fn failing_entry_is_expanded_but_not_reported() {
        let (vecs, g) = line();
        // Entry 0 fails; only node 2 passes. Plain filtered lookup can't hop
        // the gap (node 1 fails), but two-hop expansion reaches 2.
        let f = BitmapFilter::new(Bitset::from_ids(7, [2u32]));
        let mut scratch = SearchScratch::new(7);
        scratch.begin(7);
        let mut stats = SearchStats::default();
        let q = [2.0];
        let out = acorn_search_layer(
            &vecs,
            &g,
            Metric::L2,
            &q,
            &f,
            &entry(&vecs, 0, &q),
            4,
            0,
            3,
            LookupMode::TwoHop,
            &mut scratch,
            &mut stats,
        );
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn empty_when_no_passing_node_reachable() {
        let (vecs, g) = line();
        let f = BitmapFilter::new(Bitset::new(7)); // nothing passes
        let mut scratch = SearchScratch::new(7);
        scratch.begin(7);
        let mut stats = SearchStats::default();
        let q = [3.0];
        let out = acorn_search_layer(
            &vecs,
            &g,
            Metric::L2,
            &q,
            &f,
            &entry(&vecs, 0, &q),
            4,
            0,
            3,
            LookupMode::TwoHop,
            &mut scratch,
            &mut stats,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn truncate_mode_limits_fanout() {
        // Star: node 0 connects to 1..=5; with m = 2 only the first two are
        // scanned by the construction-time truncated lookup.
        let mut vecs = VectorStore::new(1);
        for i in 0..6 {
            vecs.push(&[i as f32]);
        }
        let mut g = LayeredGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        for w in 1..=5u32 {
            g.push_edge(0, w, 0);
        }
        let mut scratch = SearchScratch::new(6);
        scratch.begin(6);
        let mut stats = SearchStats::default();
        let q = [0.0];
        let out = acorn_search_layer(
            &vecs,
            &g,
            Metric::L2,
            &q,
            &AllPass,
            &entry(&vecs, 0, &q),
            10,
            0,
            2,
            LookupMode::Truncate,
            &mut scratch,
            &mut stats,
        );
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert!(ids.contains(&0) && ids.contains(&1) && ids.contains(&2));
        assert!(!ids.contains(&5), "truncated lookup must not reach entry 5");
    }
}
