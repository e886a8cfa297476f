//! HNSW post-filtering with `K/s` over-search (§7.2 of the paper).
//!
//! Search the (unfiltered) HNSW index for `ceil(K/s)` candidates — the
//! expected number needed so that `K` of them pass a selectivity-`s`
//! predicate under no correlation — then filter and keep the passing `K`.
//! The paper is explicit that this is a *stronger* baseline than the naive
//! post-filter that gathers only `K` candidates.
//!
//! Its weakness (§3.2): under negative query correlation the nearest
//! candidates mostly fail the predicate, so recall collapses no matter how
//! large the beam — exactly what Figure 10(a) shows.

use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{HnswIndex, HnswParams, Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::NodeFilter;

/// HNSW post-filtering baseline.
#[derive(Debug, Clone)]
pub struct PostFilterHnsw {
    hnsw: HnswIndex,
}

impl PostFilterHnsw {
    /// Build the underlying HNSW index.
    pub fn build(vecs: Arc<VectorStore>, params: HnswParams) -> Self {
        Self { hnsw: HnswIndex::build(vecs, params) }
    }

    /// The wrapped index.
    pub fn index(&self) -> &HnswIndex {
        &self.hnsw
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.hnsw.params().metric
    }

    /// Hybrid search: over-search for `max(efs, ceil(k/selectivity))`
    /// candidates, then filter. The `K/s` floor implements the paper's
    /// over-search rule; letting `efs` push the candidate count beyond it
    /// is what generates the method's recall-QPS curve.
    ///
    /// `selectivity` is the query predicate's (estimated) selectivity; pass
    /// the exact value when known. Values ≤ 0 are clamped so the expansion
    /// never divides by zero (the expansion is then capped at `n`). `k = 0`
    /// answers empty.
    #[allow(clippy::too_many_arguments)]
    pub fn search<F: NodeFilter>(
        &self,
        query: &[f32],
        filter: &F,
        k: usize,
        efs: usize,
        selectivity: f64,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let n = self.hnsw.len().max(1);
        let s = selectivity.max(1.0 / n as f64);
        let expanded = ((k as f64 / s).ceil() as usize).max(efs).min(n).max(k);
        let candidates = self.hnsw.search_with(query, expanded, expanded, scratch, stats);
        let mut out = Vec::with_capacity(k);
        for c in candidates {
            stats.npred += 1;
            if filter.passes(c.id) {
                out.push(c);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_predicate::{BitmapFilter, Bitset};
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

    #[test]
    fn results_pass_the_filter() {
        let n = 1000;
        let vecs = random_store(n, 8, 1);
        let pf = PostFilterHnsw::build(
            vecs,
            HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 2 },
        );
        let bits = Bitset::from_ids(n, (0..n as u32).filter(|i| i % 3 == 0));
        let filter = BitmapFilter::new(bits);
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let out = pf.search(&[0.0; 8], &filter, 10, 40, 1.0 / 3.0, &mut scratch, &mut stats);
        assert!(!out.is_empty());
        for nb in &out {
            assert_eq!(nb.id % 3, 0, "result fails predicate");
        }
    }

    #[test]
    fn oversearch_recovers_selective_targets() {
        // Selectivity 5%: naive K-candidate post-filter would almost surely
        // return < k results; the K/s expansion must do much better.
        let n = 2000;
        let vecs = random_store(n, 8, 3);
        let pf = PostFilterHnsw::build(
            vecs.clone(),
            HnswParams { m: 16, ef_construction: 64, metric: Metric::L2, seed: 4 },
        );
        let pass = |i: u32| i.is_multiple_of(20);
        let filter = BitmapFilter::new(Bitset::from_ids(n, (0..n as u32).filter(|&i| pass(i))));
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let out = pf.search(&[0.1; 8], &filter, 10, 50, 0.05, &mut scratch, &mut stats);
        assert!(out.len() >= 8, "expected most of k=10 with over-search, got {}", out.len());
    }

    #[test]
    fn zero_selectivity_does_not_panic() {
        let n = 200;
        let vecs = random_store(n, 4, 5);
        let pf = PostFilterHnsw::build(
            vecs,
            HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 6 },
        );
        let filter = BitmapFilter::new(Bitset::new(n));
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let out = pf.search(&[0.0; 4], &filter, 5, 16, 0.0, &mut scratch, &mut stats);
        assert!(out.is_empty());
    }
}
