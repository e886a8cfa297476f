//! Neighbor selection strategies for graph construction.
//!
//! HNSW prunes each node's candidate edges with an RNG-approximation
//! heuristic: iterate candidates nearest-first and keep a candidate only if
//! it is closer to the inserted node than to every already-kept neighbor
//! (equivalently, prune the longest edge of each triangle). Vamana's "robust
//! prune" is the same rule with a slack factor `alpha >= 1`.
//!
//! The ACORN paper's Figure 12 compares this *metadata-blind* pruning against
//! ACORN's predicate-agnostic compression, which lives in `acorn-core`.

use crate::heap::Neighbor;
use crate::vecs::{Metric, VectorStore};

/// HNSW's RNG-based heuristic selection (Algorithm 4 of the HNSW paper),
/// generalized with Vamana's `alpha` slack.
///
/// `candidates` must be sorted nearest-first with distances measured to the
/// node being inserted. A candidate `c` is kept iff for every already-kept
/// neighbor `s`: `alpha * dist(c, s) > dist(c, v)`; i.e. no kept neighbor is
/// substantially closer to `c` than `v` itself.
///
/// When `keep_pruned` is true, pruned candidates are appended (nearest-first)
/// until `m` edges are chosen, matching HNSW's `extendCandidates=false,
/// keepPrunedConnections=true` configuration used by FAISS.
///
/// A kept `s` may prune `c` only when `shadows(s, c)`: HNSW passes
/// `|_, _| true`, ACORN's metadata-aware ablation its same-label relay rule.
pub fn select_heuristic(
    vecs: &VectorStore,
    metric: Metric,
    candidates: &[Neighbor],
    m: usize,
    alpha: f32,
    keep_pruned: bool,
    shadows: impl Fn(u32, u32) -> bool,
) -> Vec<u32> {
    debug_assert!(alpha >= 1.0, "alpha must be >= 1");
    let mut kept: Vec<Neighbor> = Vec::with_capacity(m);
    let mut pruned: Vec<Neighbor> = Vec::new();

    for &c in candidates {
        if kept.len() >= m {
            break;
        }
        let mut good = true;
        for s in &kept {
            if shadows(s.id, c.id) && vecs.distance_between(metric, c.id, s.id) * alpha < c.dist {
                good = false;
                break;
            }
        }
        if good {
            kept.push(c);
        } else if keep_pruned {
            pruned.push(c);
        }
    }

    if keep_pruned {
        for p in pruned {
            if kept.len() >= m {
                break;
            }
            kept.push(p);
        }
    }

    kept.iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(points: &[[f32; 2]]) -> VectorStore {
        let mut s = VectorStore::new(2);
        for p in points {
            s.push(p);
        }
        s
    }

    fn cands(vecs: &VectorStore, v: &[f32], ids: &[u32]) -> Vec<Neighbor> {
        let mut c: Vec<Neighbor> =
            ids.iter().map(|&id| Neighbor::new(Metric::L2.distance(vecs.get(id), v), id)).collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn heuristic_prunes_triangle_long_edge() {
        // v at origin; a = (1, 0); b = (1.2, 0.1) is close to a, so b should
        // be pruned: dist(b, a) << dist(b, v).
        let vecs = store(&[[0.0, 0.0], [1.0, 0.0], [1.2, 0.1]]);
        let v = vecs.get(0).to_vec();
        let c = cands(&vecs, &v, &[1, 2]);
        let kept = select_heuristic(&vecs, Metric::L2, &c, 3, 1.0, false, |_, _| true);
        assert_eq!(kept, vec![1]);
    }

    #[test]
    fn heuristic_keeps_diverse_directions() {
        let vecs = store(&[[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]);
        let v = vecs.get(0).to_vec();
        let c = cands(&vecs, &v, &[1, 2, 3]);
        let kept = select_heuristic(&vecs, Metric::L2, &c, 3, 1.0, false, |_, _| true);
        assert_eq!(kept.len(), 3, "orthogonal/opposite points must all survive");
    }

    #[test]
    fn keep_pruned_backfills_to_m() {
        let vecs = store(&[[0.0, 0.0], [1.0, 0.0], [1.2, 0.1]]);
        let v = vecs.get(0).to_vec();
        let c = cands(&vecs, &v, &[1, 2]);
        let kept = select_heuristic(&vecs, Metric::L2, &c, 2, 1.0, true, |_, _| true);
        assert_eq!(kept, vec![1, 2], "pruned candidate must backfill");
    }

    #[test]
    fn alpha_relaxes_pruning() {
        // Borderline case: with alpha large enough the near-duplicate survives.
        let vecs = store(&[[0.0, 0.0], [1.0, 0.0], [1.6, 0.0]]);
        let v = vecs.get(0).to_vec();
        let c = cands(&vecs, &v, &[1, 2]);
        let strict = select_heuristic(&vecs, Metric::L2, &c, 3, 1.0, false, |_, _| true);
        // dist(2 -> 1) = 0.36 (sq), dist(2 -> v) = 2.56: pruned at alpha=1.
        assert_eq!(strict, vec![1]);
        let relaxed = select_heuristic(&vecs, Metric::L2, &c, 3, 8.0, false, |_, _| true);
        assert_eq!(relaxed, vec![1, 2]);
    }
}
