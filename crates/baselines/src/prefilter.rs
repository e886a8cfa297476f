//! Pre-filtering: materialize the passing set, then exact search over it.
//!
//! Always returns perfect recall; cost is `O(s·n)` distance computations
//! (§3.2), which makes it the method of choice only for highly selective
//! predicates — exactly the regime ACORN's cost model routes to it.

use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::{Metric, SearchStats, VectorStore};
use acorn_predicate::NodeFilter;

/// The pre-filtering baseline.
#[derive(Debug, Clone)]
pub struct PreFilter {
    vecs: Arc<VectorStore>,
    metric: Metric,
}

impl PreFilter {
    /// Wrap a vector store (no index construction is needed).
    pub fn new(vecs: Arc<VectorStore>, metric: Metric) -> Self {
        Self { vecs, metric }
    }

    /// The underlying vectors.
    pub fn vectors(&self) -> &Arc<VectorStore> {
        &self.vecs
    }

    /// Exact top-`k` among rows passing `filter`, one predicate evaluation
    /// per row (`k = 0` answers empty).
    pub fn search<F: NodeFilter>(
        &self,
        query: &[f32],
        filter: &F,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        stats.npred += self.vecs.len() as u64;
        let passing = (0..self.vecs.len() as u32).filter(|&id| filter.passes(id));
        let (top, ndis) = exact_top_k(&*self.vecs, self.metric, query, k, passing);
        stats.ndis += ndis;
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_predicate::{BitmapFilter, Bitset};

    fn store() -> Arc<VectorStore> {
        let mut s = VectorStore::new(1);
        for i in 0..10 {
            s.push(&[i as f32]);
        }
        Arc::new(s)
    }

    #[test]
    fn returns_exact_filtered_topk() {
        let pf = PreFilter::new(store(), Metric::L2);
        let filter = BitmapFilter::new(Bitset::from_ids(10, [1u32, 4, 7, 9]));
        let mut stats = SearchStats::default();
        let out = pf.search(&[5.0], &filter, 2, &mut stats);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![4, 7]);
        assert_eq!(stats.ndis, 4, "one distance per passing row");
        assert_eq!(stats.npred, 10, "one predicate eval per row");
    }

    #[test]
    fn empty_filter_returns_nothing() {
        let pf = PreFilter::new(store(), Metric::L2);
        let filter = BitmapFilter::new(Bitset::new(10));
        let mut stats = SearchStats::default();
        assert!(pf.search(&[0.0], &filter, 3, &mut stats).is_empty());
    }

    #[test]
    fn k_exceeding_matches_returns_all_matches() {
        let pf = PreFilter::new(store(), Metric::L2);
        let filter = BitmapFilter::new(Bitset::from_ids(10, [2u32, 3]));
        let mut stats = SearchStats::default();
        let out = pf.search(&[0.0], &filter, 8, &mut stats);
        assert_eq!(out.len(), 2);
    }
}
