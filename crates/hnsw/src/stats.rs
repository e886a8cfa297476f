//! Per-query search statistics.
//!
//! Table 3 of the ACORN paper compares methods by the number of distance
//! computations needed to reach a recall target, and §6 reasons about hop
//! counts and predicate-evaluation overhead. Every search routine in this
//! workspace therefore reports a [`SearchStats`].

/// Counters accumulated over a single query (or summed over a batch).
///
/// What the predicate counters mean, branch by branch of the hybrid query
/// planner (`acorn_core::plan`):
///
/// | work | `npred` | `npred_cached` |
/// |---|---|---|
/// | materializing a segment's bitmap | + the rows the block kernel ran over (the segment's global-id span) | — |
/// | enumerating a bitmap's set bits in the pre-filter scan | — | — |
/// | a traversal check answered by a bitmap bit | +1 | +1 |
/// | a traversal check answered by a per-query memo (`MemoFilter`, outside the planner) | +1 | +1 |
/// | a traversal check that ran the predicate program (a lazy filter, outside the planner) | +1 | — |
///
/// So [`npred_evaluated`](Self::npred_evaluated) is exactly the number of
/// rows the predicate program executed on, and `ndis` counts every distance
/// kernel call — graph traversal and the pre-filter scan's batched scoring
/// alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of vector distance computations performed.
    pub ndis: u64,
    /// Number of graph nodes expanded (greedy hops).
    pub nhops: u64,
    /// Number of per-row predicate checks charged to the query: every
    /// `NodeFilter::passes` call the search issues, plus any rows the
    /// hybrid query planner evaluated up front (block materialization).
    pub npred: u64,
    /// The subset of [`npred`](Self::npred) answered from a per-query cache
    /// — a memoized verdict (`MemoFilter`) or a materialized bitmap — rather
    /// than by running the predicate program. The remainder,
    /// [`npred_evaluated`](Self::npred_evaluated), is the number of rows the
    /// predicate actually executed on; `npred_cached / npred` is the
    /// cache-hit rate the figure/table binaries report.
    pub npred_cached: u64,
    /// Whether the query was answered by the pre-filter fallback
    /// (ACORN §5.2: queries below `s_min` selectivity).
    pub fallback: bool,
}

impl SearchStats {
    /// Per-row predicate evaluations actually performed:
    /// [`npred`](Self::npred) minus the checks answered from a cache.
    pub fn npred_evaluated(&self) -> u64 {
        self.npred.saturating_sub(self.npred_cached)
    }

    /// Element-wise sum (fallback is OR-ed).
    pub fn merge(&mut self, other: &SearchStats) {
        self.ndis += other.ndis;
        self.nhops += other.nhops;
        self.npred += other.npred;
        self.npred_cached += other.npred_cached;
        self.fallback |= other.fallback;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = SearchStats { ndis: 1, nhops: 2, npred: 3, npred_cached: 1, fallback: false };
        let b = SearchStats { ndis: 10, nhops: 20, npred: 30, npred_cached: 4, fallback: true };
        a.merge(&b);
        assert_eq!(
            a,
            SearchStats { ndis: 11, nhops: 22, npred: 33, npred_cached: 5, fallback: true }
        );
        assert_eq!(a.npred_evaluated(), 28);
    }

    #[test]
    fn evaluated_never_underflows() {
        let s = SearchStats { npred: 2, npred_cached: 5, ..Default::default() };
        assert_eq!(s.npred_evaluated(), 0);
    }
}
