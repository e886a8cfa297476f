//! The multi-threaded query driver.
//!
//! QPS is measured by sharding a workload's queries across worker threads
//! (`std::thread::scope` workers; each checks one [`SearchScratch`] out of
//! a shared [`ScratchPool`] so visited sets and heaps are reused across
//! queries *and* across runs) and dividing total queries by wall time.

use std::time::Duration;

use acorn_hnsw::{ScratchPool, SearchScratch, SearchStats};

/// Output of one timed workload run.
#[derive(Debug, Clone)]
pub struct QpsResult {
    /// Wall time of the whole batch.
    pub elapsed: Duration,
    /// Queries per second.
    pub qps: f64,
    /// Retrieved ids per query (indexed like the input workload).
    pub results: Vec<Vec<u32>>,
    /// Summed search statistics across queries.
    pub stats: SearchStats,
}

/// Run `nq` queries across `threads` workers (`0` = all available cores)
/// and measure throughput.
///
/// `f(query_index, scratch)` executes one query and returns the retrieved
/// ids plus its [`SearchStats`]. Every query runs `repeats` times so that
/// wall time dwarfs thread start-up on small workloads: results are taken
/// from the final repetition, QPS counts every execution. Worker scratches
/// come from the caller-owned [`ScratchPool`], so consecutive runs (e.g. the
/// points of a beam-width sweep) reuse the same allocations.
pub fn run_queries_pooled<F>(
    pool: &ScratchPool,
    nq: usize,
    threads: usize,
    repeats: usize,
    f: F,
) -> QpsResult
where
    F: Fn(usize, &mut SearchScratch) -> (Vec<u32>, SearchStats) + Sync,
{
    // One shared driver (acorn_hnsw::pool::run_sharded) defines the
    // chunking, repeat-averaging, and timing semantics for the whole
    // workspace; this wrapper only adapts the closure shape.
    let run = acorn_hnsw::pool::run_sharded(pool, nq, threads, repeats, 0, |i, scratch, tstat| {
        let (ids, st) = f(i, scratch);
        tstat.merge(&st);
        ids
    });
    let qps = run.throughput();
    QpsResult { elapsed: run.elapsed, qps, results: run.results, stats: run.stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One execution per query over a fresh pool.
    fn run_queries<F>(nq: usize, threads: usize, f: F) -> QpsResult
    where
        F: Fn(usize, &mut SearchScratch) -> (Vec<u32>, SearchStats) + Sync,
    {
        run_queries_pooled(&ScratchPool::new(), nq, threads, 1, f)
    }

    #[test]
    fn runs_every_query_exactly_once() {
        let out = run_queries(37, 4, |i, _scratch| {
            (vec![i as u32], SearchStats { ndis: 1, ..Default::default() })
        });
        assert_eq!(out.results.len(), 37);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r, &vec![i as u32]);
        }
        assert_eq!(out.stats.ndis, 37);
        assert!(out.qps > 0.0);
    }

    #[test]
    fn zero_queries_ok() {
        let out = run_queries(0, 2, |_, _| (vec![], SearchStats::default()));
        assert!(out.results.is_empty());
    }

    #[test]
    fn single_thread_matches_multi_thread_results() {
        let f = |i: usize, _s: &mut SearchScratch| (vec![(i * 3) as u32], SearchStats::default());
        let a = run_queries(20, 1, f);
        let b = run_queries(20, 8, f);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn pooled_runs_reuse_scratches_across_runs() {
        let pool = ScratchPool::new();
        let f = |i: usize, s: &mut SearchScratch| {
            s.visited.grow(64);
            s.visited.insert(i as u32 % 64);
            (vec![i as u32], SearchStats::default())
        };
        // Workers return scratches on completion; a worker that starts after
        // another finished may reuse its scratch, so the pool holds between
        // 1 and `threads` scratches — never zero, never more.
        let _ = run_queries_pooled(&pool, 16, 2, 1, f);
        let after_first = pool.idle();
        assert!((1..=2).contains(&after_first), "expected 1..=2 pooled scratches");
        let _ = run_queries_pooled(&pool, 16, 2, 1, f);
        assert!(pool.idle() <= 2, "the second run must reuse, not endlessly grow, the pool");
    }
}
