//! The query-correlation statistic `C(D, Q)` (§3.2.1 of the paper).
//!
//! For each query `(x, p)` the statistic compares the distance from `x` to
//! its true hybrid target set `X_p` against the expected distance to a
//! hypothetical no-clustering set `R` of the same size drawn uniformly from
//! `X`:
//!
//! ```text
//! C(D, Q) = E_{(x,p) ∈ Q} [ E_R[g(x, R)] − g(x, X_p) ]
//! ```
//!
//! with `g(x, S) = min_{y ∈ S} dist(x, y)`. Positive values mean the
//! workload is positively correlated (targets nearer than chance), negative
//! values the opposite.

use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::{Metric, VectorStore};
use acorn_predicate::AttrStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::HybridQuery;

/// Monte-Carlo estimate of `C(D, Q)`.
///
/// `r_draws` controls how many uniform sets `R_i` are sampled per query to
/// estimate `E_R[g(x, R)]` (the paper's inner expectation).
pub fn query_correlation(
    vectors: &VectorStore,
    attrs: &AttrStore,
    metric: Metric,
    queries: &[HybridQuery],
    r_draws: usize,
    seed: u64,
) -> f64 {
    assert!(r_draws > 0, "need at least one R draw");
    if queries.is_empty() {
        return 0.0;
    }
    let n = vectors.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0f64;
    let mut counted = 0usize;

    for q in queries {
        // g(x, X_p): nearest passing record, one distance per passing row.
        let passing = (0..n as u32).filter(|&id| q.predicate.eval(attrs, id));
        let (nearest, pass_count) = exact_top_k(vectors, metric, &q.vector, 1, passing);
        let Some(g_true) = nearest.first().map(|nb| nb.dist) else {
            continue; // no targets; the statistic is undefined for this query
        };

        // E_R[g(x, R)] over r_draws uniform samples of size |X_p|.
        let mut g_rand_sum = 0.0f64;
        for _ in 0..r_draws {
            let mut best = f32::INFINITY;
            for _ in 0..pass_count {
                let id = rng.gen_range(0..n) as u32;
                let d = vectors.distance_to(metric, id, &q.vector);
                best = best.min(d);
            }
            g_rand_sum += best as f64;
        }
        let g_rand = g_rand_sum / r_draws as f64;
        total += g_rand - g_true as f64;
        counted += 1;
    }

    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::laion_like;
    use crate::workloads::{keyword_workload, Correlation};

    #[test]
    fn correlation_sign_matches_workload_regime() {
        let ds = laion_like(2500, 1);
        let pos_w = keyword_workload(&ds, Correlation::Positive, 12, 2);
        let neg_w = keyword_workload(&ds, Correlation::Negative, 12, 2);
        let pos = query_correlation(&ds.vectors, &ds.attrs, Metric::L2, &pos_w.queries, 3, 3);
        let neg = query_correlation(&ds.vectors, &ds.attrs, Metric::L2, &neg_w.queries, 3, 3);
        assert!(pos > neg, "positive workload must score higher correlation: pos={pos} neg={neg}");
    }

    #[test]
    fn empty_workload_is_zero() {
        let ds = laion_like(100, 4);
        assert_eq!(query_correlation(&ds.vectors, &ds.attrs, Metric::L2, &[], 2, 5), 0.0);
    }
}
