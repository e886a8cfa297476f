//! Exact filtered K-nearest-neighbor ground truth.
//!
//! Recall@K (§3.1) compares retrieved sets against the true `K` nearest
//! passing records. This module computes them by parallel brute force:
//! queries are sharded across threads with `std::thread::scope`, each thread
//! feeding the rows that pass to the workspace's one exact scan,
//! [`acorn_hnsw::search::exact_top_k`]. Row verdicts come from the AST
//! interpreter (`Predicate::eval`), not the compiled program the engine
//! runs, so the truth stays independent of the path it grades.

use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::{Metric, VectorStore};
use acorn_predicate::AttrStore;

use crate::workloads::HybridQuery;

/// Exact top-`k` passing neighbors for each query, sorted nearest-first.
///
/// `threads = 0` means "use all available parallelism".
pub fn ground_truth(
    vectors: &VectorStore,
    attrs: &AttrStore,
    metric: Metric,
    queries: &[HybridQuery],
    k: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    };
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];

    if queries.is_empty() {
        return out;
    }
    let chunk = queries.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (qchunk, ochunk) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (q, slot) in qchunk.iter().zip(ochunk.iter_mut()) {
                    *slot = single_query(vectors, attrs, metric, q, k);
                }
            });
        }
    });
    out
}

/// Exact top-`k` for one query (`k = 0` answers empty).
pub fn single_query(
    vectors: &VectorStore,
    attrs: &AttrStore,
    metric: Metric,
    query: &HybridQuery,
    k: usize,
) -> Vec<u32> {
    let passing = (0..vectors.len() as u32).filter(|&id| query.predicate.eval(attrs, id));
    let (top, _) = exact_top_k(vectors, metric, &query.vector, k, passing);
    top.iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::sift_like;
    use crate::workloads::equality_workload;

    #[test]
    fn parallel_matches_sequential() {
        let ds = sift_like(800, 1);
        let w = equality_workload(&ds, 12, 2);
        let par = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 10, 4);
        for (q, got) in w.queries.iter().zip(&par) {
            let want = single_query(&ds.vectors, &ds.attrs, Metric::L2, q, 10);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn results_pass_predicate_and_are_sorted() {
        let ds = sift_like(600, 3);
        let w = equality_workload(&ds, 5, 4);
        let gt = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 10, 2);
        for (q, ids) in w.queries.iter().zip(&gt) {
            let mut prev = f32::NEG_INFINITY;
            for &id in ids {
                assert!(q.predicate.eval(&ds.attrs, id));
                let d = Metric::L2.distance(ds.vectors.get(id), &q.vector);
                assert!(d >= prev);
                prev = d;
            }
        }
    }

    #[test]
    fn k_zero_answers_empty() {
        let ds = sift_like(200, 8);
        let w = equality_workload(&ds, 3, 9);
        for q in &w.queries {
            assert!(single_query(&ds.vectors, &ds.attrs, Metric::L2, q, 0).is_empty());
        }
        let gt = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 0, 2);
        assert!(gt.iter().all(Vec::is_empty));
    }

    #[test]
    fn empty_queries_ok() {
        let ds = sift_like(100, 5);
        let gt = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &[], 10, 2);
        assert!(gt.is_empty());
    }

    #[test]
    fn k_larger_than_matches_returns_all() {
        let ds = sift_like(200, 6);
        let w = equality_workload(&ds, 3, 7);
        let gt = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 10_000, 1);
        for (q, ids) in w.queries.iter().zip(&gt) {
            let expect = (q.selectivity * ds.len() as f64).round() as usize;
            assert_eq!(ids.len(), expect);
        }
    }
}
