//! Level-0 edge pruning strategies.
//!
//! ACORN-γ's expanded candidate lists (`M·γ` per node) would blow up the
//! memory footprint of the bottom level, which holds every node. §5.2
//! introduces a *predicate-agnostic* compression rule; Figure 12 of the
//! paper ablates it against HNSW's metadata-blind RNG pruning and a
//! metadata-*aware* RNG pruning (the FilteredDiskANN approach). All three
//! are implemented here so the ablation can be reproduced.
//!
//! Every insert runs the compression once per compressed level, and once
//! more for each neighbor whose list overflows, so its set `H` is kept where
//! it costs least: in the epoch stamps of the insert scratch's
//! [`VisitedSet`], idle once the level's search has returned. Membership,
//! insertion and `|H|` are then one load, one store and one counter, and
//! what the rule keeps and prunes is exactly what a sorted `Vec` gives (a
//! property test holds it to one).

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::select::select_heuristic;
use acorn_hnsw::vecs::{Metric, VectorStore};
use acorn_hnsw::{LayeredGraph, VisitedSet};

/// Strategy used to compress level-0 candidate edge lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PruneStrategy {
    /// ACORN's predicate-agnostic compression (§5.2): keep the nearest
    /// `M_β` candidates verbatim; over the remaining ordered candidates keep
    /// `c` only if `c` is not already a one-hop neighbor of a kept tail
    /// candidate, stopping once `|H| + kept` exceeds `M·γ`. Every pruned
    /// edge is recoverable through a kept neighbor with index ≥ `M_β`
    /// (the search-time expansion relies on this).
    #[default]
    AcornCompress,
    /// HNSW's metadata-blind RNG heuristic, truncated to `M_β` edges.
    /// Degrades hybrid search (Fig. 12d): a pruned triangle's relay node may
    /// fail the query predicate, severing the predicate subgraph.
    RngBlind,
    /// Metadata-aware RNG pruning à la FilteredDiskANN: the triangle
    /// `v–a–b` may only be pruned when `a` shares `v` and `b`'s label, so
    /// relays survive within every (equality-label) predicate subgraph.
    /// Requires per-node labels; only valid for low-cardinality equality
    /// predicate sets.
    RngMetadataAware,
}

/// Outcome of pruning one candidate list.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// The retained neighbor ids, in (approximate) nearest-first order.
    pub kept: Vec<u32>,
    /// How many candidates were pruned.
    pub pruned: usize,
}

/// Apply ACORN's predicate-agnostic compression to `candidates`
/// (sorted nearest-first) for a node at level 0.
///
/// `graph` supplies the one-hop neighborhoods of tail candidates (the
/// dynamic set `H`); `budget = M·γ` bounds `|H| + kept`.
///
/// `H` lives in `h`'s epoch stamps: one [`reset`](VisitedSet::reset)
/// empties it in O(1), a membership test is one load and an insert one
/// store, and an insert that returns `true` is exactly one more distinct id,
/// so a counter beside the set is `|H|`. That is the same set, tested and
/// counted the same way, as a sorted `Vec` with a binary search and an
/// insert per one-hop id, so `kept` and `pruned` are the same too. The set
/// is grown to cover `graph`; whatever it held before is forgotten.
fn acorn_compress(
    candidates: &[Neighbor],
    graph: &LayeredGraph,
    level: usize,
    m_beta: usize,
    budget: usize,
    h: &mut VisitedSet,
) -> PruneOutcome {
    let head = candidates.len().min(m_beta);
    let mut kept: Vec<u32> = candidates[..head].iter().map(|n| n.id).collect();
    let mut pruned = 0usize;
    h.grow(graph.len());
    h.reset();
    let mut h_len = 0usize;

    for c in &candidates[head..] {
        // Past the budget, or reachable through a kept tail neighbor.
        if h_len + kept.len() >= budget || h.contains(c.id) {
            pruned += 1;
            continue;
        }
        kept.push(c.id);
        for &nb in graph.neighbors(c.id, level) {
            h_len += usize::from(h.insert(nb));
        }
    }

    PruneOutcome { kept, pruned }
}

/// Apply the configured strategy to a candidate list (sorted nearest-first)
/// belonging to node `v` at `level`.
///
/// `labels` must be `Some` for [`PruneStrategy::RngMetadataAware`].
/// [`PruneStrategy::AcornCompress`] keeps its set `H` in `h`, which it
/// resets first; the other strategies leave `h` alone.
#[allow(clippy::too_many_arguments)]
pub fn apply(
    strategy: &PruneStrategy,
    vecs: &VectorStore,
    metric: Metric,
    graph: &LayeredGraph,
    level: usize,
    candidates: &[Neighbor],
    m_beta: usize,
    budget: usize,
    labels: Option<&[i64]>,
    v: u32,
    h: &mut VisitedSet,
) -> PruneOutcome {
    match strategy {
        PruneStrategy::AcornCompress => acorn_compress(candidates, graph, level, m_beta, budget, h),
        PruneStrategy::RngBlind => {
            let kept = select_heuristic(vecs, metric, candidates, m_beta, 1.0, false, |_, _| true);
            PruneOutcome { pruned: candidates.len() - kept.len(), kept }
        }
        PruneStrategy::RngMetadataAware => {
            let labels = labels.expect("RngMetadataAware pruning requires node labels");
            // Only a relay sharing the label of both endpoints may shadow.
            let label = |id: u32| labels[id as usize];
            let relay = |s: u32, c: u32| label(s) == label(c) && label(s) == label(v);
            let kept = select_heuristic(vecs, metric, candidates, m_beta, 1.0, false, relay);
            PruneOutcome { pruned: candidates.len() - kept.len(), kept }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The compression as it was before `H` moved into a [`VisitedSet`]:
    /// `H` a sorted `Vec`, a binary search per tail candidate and a binary
    /// search + insert per one-hop id. The oracle of
    /// `compression_equals_the_sorted_vec_reference`.
    fn acorn_compress_sorted_vec(
        candidates: &[Neighbor],
        graph: &LayeredGraph,
        level: usize,
        m_beta: usize,
        budget: usize,
    ) -> PruneOutcome {
        let head = candidates.len().min(m_beta);
        let mut kept: Vec<u32> = candidates[..head].iter().map(|n| n.id).collect();
        let mut pruned = 0usize;
        let mut h: Vec<u32> = Vec::new();
        for c in &candidates[head..] {
            if h.len() + kept.len() >= budget {
                pruned += 1;
                continue;
            }
            match h.binary_search(&c.id) {
                Ok(_) => pruned += 1,
                Err(_) => {
                    kept.push(c.id);
                    for &nb in graph.neighbors(c.id, level) {
                        if let Err(pos) = h.binary_search(&nb) {
                            h.insert(pos, nb);
                        }
                    }
                }
            }
        }
        PruneOutcome { kept, pruned }
    }

    /// Level-0 compression with a set of its own.
    fn compress(c: &[Neighbor], g: &LayeredGraph, m_beta: usize, budget: usize) -> PruneOutcome {
        acorn_compress(c, g, 0, m_beta, budget, &mut VisitedSet::default())
    }

    fn grid() -> (VectorStore, LayeredGraph) {
        // Points on a line: 0,1,2,3,4 at x = 0..4, all on level 0.
        let mut vecs = VectorStore::new(1);
        for i in 0..5 {
            vecs.push(&[i as f32]);
        }
        let mut g = LayeredGraph::new();
        for _ in 0..5 {
            g.add_node(0);
        }
        (vecs, g)
    }

    fn cands(vecs: &VectorStore, v: &[f32], ids: &[u32]) -> Vec<Neighbor> {
        let mut c: Vec<Neighbor> =
            ids.iter().map(|&id| Neighbor::new(Metric::L2.distance(vecs.get(id), v), id)).collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn compress_keeps_mbeta_head_verbatim() {
        let (vecs, g) = grid();
        let c = cands(&vecs, &[0.0], &[1, 2, 3, 4]);
        let out = compress(&c, &g, 2, 100);
        // Head = [1, 2]; tail nodes 3,4 have empty neighbor lists so H stays
        // empty and both are kept.
        assert_eq!(out.kept, vec![1, 2, 3, 4]);
        assert_eq!(out.pruned, 0);
    }

    #[test]
    fn compress_prunes_two_hop_reachable_tail() {
        let (vecs, mut g) = grid();
        // Node 3's neighbor list contains 4, so once 3 is kept (as a tail
        // candidate), 4 ∈ H and must be pruned.
        g.push_edge(3, 4, 0);
        let c = cands(&vecs, &[0.0], &[1, 2, 3, 4]);
        let out = compress(&c, &g, 2, 100);
        assert_eq!(out.kept, vec![1, 2, 3]);
        assert_eq!(out.pruned, 1);
    }

    #[test]
    fn compress_respects_budget() {
        let (vecs, mut g) = grid();
        // Give node 2 a big neighbor list so H grows past the budget fast.
        for w in [0u32, 1, 3, 4] {
            g.push_edge(2, w, 0);
        }
        let c = cands(&vecs, &[0.0], &[1, 2, 3, 4]);
        // m_beta = 1 head; tail = [2,3,4]; keeping 2 puts 4 ids in H.
        // budget 5: after keeping 2, |H| + kept = 4 + 2 = 6 > 5 → stop.
        let out = compress(&c, &g, 1, 5);
        assert_eq!(out.kept, vec![1, 2]);
        assert_eq!(out.pruned, 2);
    }

    #[test]
    fn two_hop_recoverability_invariant() {
        // Every pruned tail candidate must be a one-hop neighbor of some
        // kept candidate with index >= m_beta (paper §5.2). Randomized graph.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 60u32;
        let mut vecs = VectorStore::new(2);
        for _ in 0..n {
            vecs.push(&[rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
        }
        let mut g = LayeredGraph::new();
        for _ in 0..n {
            g.add_node(0);
        }
        for v in 0..n {
            for _ in 0..6 {
                let w = rng.gen_range(0..n);
                if w != v {
                    g.push_edge(v, w, 0);
                }
            }
        }
        let q = [0.0, 0.0];
        let ids: Vec<u32> = (1..n).collect();
        let c = cands(&vecs, &q, &ids);
        let m_beta = 4;
        let out = compress(&c, &g, m_beta, 64);
        let kept_tail: Vec<u32> = out.kept[m_beta.min(out.kept.len())..].to_vec();
        // Determine which candidates were pruned by H-membership (not budget):
        // each must appear in the neighbor list of a kept tail node.
        let kept_set: std::collections::HashSet<u32> = out.kept.iter().copied().collect();
        let mut h_all: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &t in &kept_tail {
            h_all.extend(g.neighbors(t, 0).iter().copied());
        }
        for cand in &c {
            if !kept_set.contains(&cand.id) {
                // Pruned either by membership in H or by budget exhaustion;
                // when pruned by membership it must be recoverable.
                if h_all.contains(&cand.id) {
                    let recoverable =
                        kept_tail.iter().any(|&t| g.neighbors(t, 0).contains(&cand.id));
                    assert!(recoverable, "pruned candidate {} not two-hop recoverable", cand.id);
                }
            }
        }
    }

    #[test]
    fn rng_blind_prunes_collinear_points() {
        let (vecs, g) = grid();
        let c = cands(&vecs, &[0.0], &[1, 2, 3, 4]);
        let out = apply(
            &PruneStrategy::RngBlind,
            &vecs,
            Metric::L2,
            &g,
            0,
            &c,
            4,
            100,
            None,
            0,
            &mut VisitedSet::default(),
        );
        // On a line, node 1 shadows everything beyond it.
        assert_eq!(out.kept, vec![1]);
    }

    #[test]
    fn label_aware_keeps_cross_label_edges() {
        let (vecs, g) = grid();
        let c = cands(&vecs, &[0.0], &[1, 2]);
        // v = 0. Labels: v and 2 share label 7, but relay 1 has label 9 →
        // the triangle 0–1–2 may NOT be pruned.
        let labels = vec![7i64, 9, 7, 0, 0];
        let out = apply(
            &PruneStrategy::RngMetadataAware,
            &vecs,
            Metric::L2,
            &g,
            0,
            &c,
            4,
            100,
            Some(&labels),
            0,
            &mut VisitedSet::default(),
        );
        assert_eq!(out.kept, vec![1, 2], "cross-label relay must not shadow");

        // Same-label relay: now 1 shares the label → 2 is pruned.
        let labels = vec![7i64, 7, 7, 0, 0];
        let out = apply(
            &PruneStrategy::RngMetadataAware,
            &vecs,
            Metric::L2,
            &g,
            0,
            &c,
            4,
            100,
            Some(&labels),
            0,
            &mut VisitedSet::default(),
        );
        assert_eq!(out.kept, vec![1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `H` in epoch stamps keeps and prunes exactly what the sorted
        /// `Vec` did. Each case runs several compressions through one set,
        /// left dirty in between as the insert's search leaves it, over
        /// graphs of changing size whose lists hold self loops, repeated
        /// targets and more ids than the budget; `m_beta` may exceed the
        /// candidates and the budget, and small budgets stop early.
        #[test]
        fn compression_equals_the_sorted_vec_reference(seed in 0u64..u64::MAX, calls in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = VisitedSet::default();
            for _ in 0..calls {
                let n = rng.gen_range(1..150u32);
                let level = rng.gen_range(0..2usize);
                let mut g = LayeredGraph::new();
                for _ in 0..n {
                    g.add_node(level);
                }
                for v in 0..n {
                    for _ in 0..rng.gen_range(0..=40) {
                        // Every id may appear, `v` itself and repeats included.
                        g.push_edge(v, rng.gen_range(0..n), level);
                    }
                }
                let budget = rng.gen_range(1..=96);
                let m_beta = rng.gen_range(0..=budget + 8);
                let mut candidates: Vec<Neighbor> = (0..rng.gen_range(0..=120))
                    .map(|_| Neighbor::new(rng.gen_range(0.0f32..4.0), rng.gen_range(0..n)))
                    .collect();
                candidates.sort_unstable();
                h.grow(n as usize);
                for _ in 0..rng.gen_range(0..n) {
                    h.insert(rng.gen_range(0..n));
                }
                let want = acorn_compress_sorted_vec(&candidates, &g, level, m_beta, budget);
                let got = acorn_compress(&candidates, &g, level, m_beta, budget, &mut h);
                prop_assert_eq!(got, want);
            }
        }
    }
}
