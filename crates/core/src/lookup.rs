//! Neighbor lookup strategies (GET-NEIGHBORS of Algorithm 2, Figure 4).
//!
//! At each visited node ACORN recovers "an appropriate neighborhood for the
//! given search predicate" rather than the raw adjacency list:
//!
//! * [`filtered`] — Figure 4(a): scan the list, keep entries passing the
//!   predicate, truncate to `M`. Used by ACORN-γ on uncompressed levels.
//! * [`compressed`] — Figure 4(b): scan the first `M_β` entries with the
//!   simple filter; entries beyond `M_β` are *expanded* to include their
//!   one-hop neighbors (recovering edges removed by the construction-time
//!   compression) before filtering and truncation. Used by ACORN-γ on
//!   level 0.
//! * [`two_hop`] — Figure 4(c): expand the full one-hop and two-hop
//!   neighborhood, filter, truncate to `M`. Used by ACORN-1 on every level.
//!
//! All lookups skip nodes already visited in this query and stop once `M`
//! *new* passing neighbors are found. The degree bound `M` exists to cap
//! the distance computations performed per expanded node (§6.3.1 "Bounded
//! Degree"); already-visited nodes incur no distance computation, so
//! truncating on new nodes preserves exactly that invariant while keeping
//! the search frontier from collapsing onto previously seen nodes.
//! Predicate checks are counted into `SearchStats::npred`.
//!
//! **The admit step.** Every candidate goes through one step: write it into
//! slot `len` of the output, add `fresh & passes` to `len`, add `fresh` to
//! `npred`, and stop once `len == m`, where `fresh` means "not visited"
//! (and, in an expansion, "not `v`"). The output is sized to `m` slots once
//! and truncated to `len` at the end, so the write is unconditional: a
//! candidate that is not admitted is overwritten by the next one.
//!
//! For a filter whose check is a side-effect-free bit test
//! ([`NodeFilter::BRANCH_FREE`]: `AllPass`, `BitmapFilter`) the step asks the
//! filter about every candidate, visited ones included, and masks the
//! verdict, so no jump depends on it. At low dimension that is where a
//! filtered query's time goes: at 32-d and 20 % selectivity a query makes
//! ~15 checks per distance, and a verdict that steered a branch taken 20 %
//! of the time would mispredict often. A lazy filter (a predicate walk, or a
//! memo that counts its hits) keeps the default and is asked only about
//! fresh candidates (`fresh && passes`), so its evaluations and memo hits
//! are exactly the checks the lookup counts. Either way the output, the
//! stop point and `npred` are the same.
//!
//! Note that "visited" is a property of the *beam*, not of predicate
//! evaluation: overlapping one-/two-hop neighborhoods legitimately present
//! the same unexpanded row to `filter.passes` dozens of times per query.
//! The lookups stay oblivious to that — deduplicating evaluations is the
//! filter's job (a bitmap answers every revisit with a bit test, and
//! `SearchStats::npred_cached` records how many checks a cache absorbed).

use acorn_hnsw::{kernels, GraphView, SearchStats, VisitedSet};
use acorn_predicate::NodeFilter;

/// One lookup's output while it fills: `len` candidates admitted into the
/// `m` slots of `out`, and the predicate checks made so far.
struct Hood<'a> {
    out: &'a mut Vec<u32>,
    len: usize,
    m: usize,
    npred: u64,
}

impl<'a> Hood<'a> {
    /// Append to whatever `out` already holds, up to `m` entries in all;
    /// `None` when it already holds `m` and there is nothing to look up.
    fn new(out: &'a mut Vec<u32>, m: usize) -> Option<Self> {
        let len = out.len();
        if len >= m {
            return None;
        }
        out.resize(m, 0);
        Some(Self { out, len, m, npred: 0 })
    }

    /// The admit step (see the module doc); true once the output is full.
    #[inline(always)]
    fn admit<F: NodeFilter>(&mut self, filter: &F, id: u32, fresh: bool) -> bool {
        let passes =
            if F::BRANCH_FREE { fresh & filter.passes(id) } else { fresh && filter.passes(id) };
        self.out[self.len] = id;
        self.len += usize::from(passes);
        self.npred += u64::from(fresh);
        self.len == self.m
    }

    fn finish(self, stats: &mut SearchStats) {
        self.out.truncate(self.len);
        stats.npred += self.npred;
    }
}

/// Simple predicate filter over the neighbor list (Figure 4a).
///
/// Appends up to `m` unvisited passing neighbor ids to `out`.
#[allow(clippy::too_many_arguments)]
pub fn filtered<G: GraphView, F: NodeFilter>(
    graph: &G,
    v: u32,
    level: usize,
    filter: &F,
    m: usize,
    visited: &VisitedSet,
    out: &mut Vec<u32>,
    stats: &mut SearchStats,
) {
    let Some(mut hood) = Hood::new(out, m) else { return };
    for &nb in graph.neighbors(v, level) {
        if hood.admit(filter, nb, !visited.contains(nb)) {
            break;
        }
    }
    hood.finish(stats);
}

/// Compression-aware lookup (Figure 4b): simple filtering over the first
/// `m_beta` entries, then expansion of the remaining entries' one-hop
/// neighborhoods before filtering.
#[allow(clippy::too_many_arguments)]
pub fn compressed<G: GraphView, F: NodeFilter>(
    graph: &G,
    v: u32,
    level: usize,
    filter: &F,
    m: usize,
    m_beta: usize,
    visited: &VisitedSet,
    out: &mut Vec<u32>,
    stats: &mut SearchStats,
) {
    let list = graph.neighbors(v, level);
    let (head, tail) = list.split_at(list.len().min(m_beta));
    let Some(mut hood) = Hood::new(out, m) else { return };
    'fill: {
        // Phase 1: the M_β nearest stored neighbors, filter only.
        for &nb in head {
            if hood.admit(filter, nb, !visited.contains(nb)) {
                break 'fill;
            }
        }
        // Phase 2: remaining entries plus their one-hop expansions. Their
        // lists are scattered across the graph; ask for all of them before
        // walking the first.
        for &y in tail {
            kernels::prefetch(graph.neighbors(y, level));
        }
        for &y in tail {
            if hood.admit(filter, y, !visited.contains(y)) {
                break 'fill;
            }
            for &z in graph.neighbors(y, level) {
                if hood.admit(filter, z, (z != v) & !visited.contains(z)) {
                    break 'fill;
                }
            }
        }
    }
    hood.finish(stats);
}

/// Full two-hop expansion (Figure 4c, ACORN-1): all one-hop and two-hop
/// neighbors, filtered, truncated to `m`.
#[allow(clippy::too_many_arguments)]
pub fn two_hop<G: GraphView, F: NodeFilter>(
    graph: &G,
    v: u32,
    level: usize,
    filter: &F,
    m: usize,
    visited: &VisitedSet,
    out: &mut Vec<u32>,
    stats: &mut SearchStats,
) {
    let list = graph.neighbors(v, level);
    let Some(mut hood) = Hood::new(out, m) else { return };
    'fill: {
        for &nb in list {
            if hood.admit(filter, nb, !visited.contains(nb)) {
                break 'fill;
            }
        }
        for &y in list {
            for &z in graph.neighbors(y, level) {
                if hood.admit(filter, z, (z != v) & !visited.contains(z)) {
                    break 'fill;
                }
            }
        }
    }
    hood.finish(stats);
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use acorn_hnsw::LayeredGraph;
    use acorn_predicate::{AllPass, BitmapFilter, Bitset};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Star graph: 0 -> 1..=6; 1 -> 7, 2 -> 8.
    fn star() -> LayeredGraph {
        let mut g = LayeredGraph::new();
        for _ in 0..9 {
            g.add_node(0);
        }
        for w in 1..=6u32 {
            g.push_edge(0, w, 0);
        }
        g.push_edge(1, 7, 0);
        g.push_edge(2, 8, 0);
        g
    }

    fn filter_of(ids: &[u32]) -> BitmapFilter {
        BitmapFilter::new(Bitset::from_ids(9, ids.iter().copied()))
    }

    fn fresh_visited() -> VisitedSet {
        let mut v = VisitedSet::new(9);
        v.reset();
        v
    }

    #[test]
    fn filtered_truncates_to_m() {
        let g = star();
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        filtered(&g, 0, 0, &AllPass, 3, &visited, &mut out, &mut stats);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.npred, 3);
    }

    #[test]
    fn filtered_skips_failing_nodes() {
        let g = star();
        let f = filter_of(&[2, 4, 6]);
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        filtered(&g, 0, 0, &f, 10, &visited, &mut out, &mut stats);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(stats.npred, 6, "all six entries must be evaluated");
    }

    #[test]
    fn filtered_skips_visited_nodes() {
        let g = star();
        let mut visited = fresh_visited();
        visited.insert(1);
        visited.insert(2);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        filtered(&g, 0, 0, &AllPass, 3, &visited, &mut out, &mut stats);
        assert_eq!(out, vec![3, 4, 5], "visited entries must not consume the budget");
        assert_eq!(stats.npred, 3, "visited entries must not be evaluated");
    }

    #[test]
    fn compressed_expands_only_beyond_mbeta() {
        let g = star();
        // m_beta = 4: entries 1..=4 are head (no expansion); 5, 6 are tail.
        // Node 7 is reachable only via 1 (head) => NOT expanded.
        let f = filter_of(&[7, 8]);
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        compressed(&g, 0, 0, &f, 10, 4, &visited, &mut out, &mut stats);
        assert!(out.is_empty(), "head entries must not be expanded, got {out:?}");

        // m_beta = 1: now 2..=6 are tail; expansion of 2 reaches 8.
        let mut out = Vec::new();
        compressed(&g, 0, 0, &f, 10, 1, &visited, &mut out, &mut stats);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn compressed_recovers_pruned_edge() {
        // Simulate compression: v=0 kept tail neighbor 1; the pruned node 7
        // lives in 1's list. The lookup must surface 7.
        let g = star();
        let f = filter_of(&[1, 7]);
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        compressed(&g, 0, 0, &f, 10, 0, &visited, &mut out, &mut stats);
        assert!(out.contains(&1));
        assert!(out.contains(&7), "two-hop expansion must recover pruned edge");
    }

    #[test]
    fn two_hop_covers_full_neighborhood() {
        let g = star();
        let f = filter_of(&[7, 8]);
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        two_hop(&g, 0, 0, &f, 10, &visited, &mut out, &mut stats);
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn two_hop_truncates_and_skips_self() {
        let mut g = LayeredGraph::new();
        for _ in 0..3 {
            g.add_node(0);
        }
        g.push_edge(0, 1, 0);
        g.push_edge(1, 0, 0); // back-edge to self must be skipped
        g.push_edge(1, 2, 0);
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        two_hop(&g, 0, 0, &AllPass, 10, &visited, &mut out, &mut stats);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn early_exit_limits_predicate_evals() {
        let g = star();
        let visited = fresh_visited();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        two_hop(&g, 0, 0, &AllPass, 2, &visited, &mut out, &mut stats);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.npred, 2, "must stop evaluating once M found");
    }

    #[test]
    fn entries_already_in_out_count_toward_m() {
        let g = star();
        let visited = fresh_visited();
        let mut stats = SearchStats::default();
        let mut out = vec![42];
        filtered(&g, 0, 0, &AllPass, 3, &visited, &mut out, &mut stats);
        assert_eq!((out, stats.npred), (vec![42, 1, 2], 2));
        let mut out = vec![42];
        compressed(&g, 0, 0, &AllPass, 1, 0, &visited, &mut out, &mut stats);
        assert_eq!((out, stats.npred), (vec![42], 2), "a full output asks nothing");
    }

    /// A bitmap behind the default `BRANCH_FREE = false`, recording every id
    /// it is asked about.
    struct Recording<'a>(&'a BitmapFilter, RefCell<Vec<u32>>);

    impl NodeFilter for Recording<'_> {
        fn passes(&self, id: u32) -> bool {
            self.1.borrow_mut().push(id);
            self.0.passes(id)
        }
    }

    /// The three lookups, by index: `filtered`, `compressed`, `two_hop`.
    #[allow(clippy::too_many_arguments)]
    fn lookup<G: GraphView, F: NodeFilter>(
        which: usize,
        graph: &G,
        v: u32,
        filter: &F,
        m: usize,
        m_beta: usize,
        visited: &VisitedSet,
    ) -> (Vec<u32>, u64) {
        let (mut out, mut stats) = (Vec::new(), SearchStats::default());
        match which {
            0 => filtered(graph, v, 0, filter, m, visited, &mut out, &mut stats),
            1 => compressed(graph, v, 0, filter, m, m_beta, visited, &mut out, &mut stats),
            _ => two_hop(graph, v, 0, filter, m, visited, &mut out, &mut stats),
        }
        (out, stats.npred)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The branch-free admit step and the short-circuit one return the
        /// same neighborhood and count the same checks, on both graph
        /// layouts, and the short-circuit one never asks about a visited row
        /// or about `v` itself.
        #[test]
        fn branch_free_admission_is_the_short_circuit_one(
            seed in 0u64..u64::MAX,
            n in 2usize..80,
            m in 1usize..=20,
            m_beta in 0usize..=40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut growing = LayeredGraph::new();
            for _ in 0..n {
                growing.add_node(0);
            }
            for v in 0..n as u32 {
                // Up to 48 entries, repeats allowed; the CSR caps a list at n.
                for _ in 0..rng.gen_range(0..=48.min(n)) {
                    // No self-loops, so an expansion reaches `v` only by a
                    // back edge, where the lookups must skip it.
                    let w = rng.gen_range(0..n as u32 - 1);
                    growing.push_edge(v, w + u32::from(w >= v), 0);
                }
            }
            let sealed = growing.freeze();
            let bits = Bitset::from_ids(n, (0..n as u32).filter(|_| rng.gen_bool(0.3)));
            let bitmap = BitmapFilter::new(bits);
            let mut visited = VisitedSet::new(n);
            visited.reset();
            for id in 0..n as u32 {
                if rng.gen_bool(0.25) {
                    visited.insert(id);
                }
            }
            let v = rng.gen_range(0..n as u32);

            for which in 0..3 {
                let recording = Recording(&bitmap, RefCell::new(Vec::new()));
                let want = lookup(which, &growing, v, &recording, m, m_beta, &visited);
                let asked = recording.1.take();
                prop_assert_eq!(asked.len() as u64, want.1, "one call per counted check");
                prop_assert!(
                    asked.iter().all(|&id| id != v && !visited.contains(id)),
                    "lookup {} asked about a visited row or v: {:?}", which, asked
                );
                prop_assert_eq!(&lookup(which, &growing, v, &bitmap, m, m_beta, &visited), &want);
                prop_assert_eq!(&lookup(which, &sealed, v, &bitmap, m, m_beta, &visited), &want);
                prop_assert_eq!(&lookup(which, &sealed, v, &recording, m, m_beta, &visited), &want);
            }
        }
    }
}
