//! A checkout/return pool of reusable [`SearchScratch`] instances.
//!
//! Every graph search needs a visited set and candidate heaps; allocating
//! them per query is an O(n) cost that dominates small-query latency and
//! trashes the allocator under concurrent load. A [`ScratchPool`] keeps a
//! free list of scratches behind a mutex: workers check one out for the
//! duration of a query (or a whole batch shard) and the guard returns it on
//! drop. Checked-out scratches are re-sized via
//! [`SearchScratch::begin`], so one pool keeps serving an index that has
//! grown since the scratches were first allocated.
//!
//! The lock is held only for the `Vec` push/pop — never across a search —
//! so contention stays negligible even with one checkout per query.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::search::SearchScratch;
use crate::stats::SearchStats;

/// A thread-safe free list of [`SearchScratch`] instances.
///
/// Cloning a pool yields a fresh, empty pool (scratch contents are
/// transient per-query state, never data), which keeps index types that
/// embed a pool cheaply cloneable.
#[derive(Default)]
pub struct ScratchPool {
    free: Mutex<Vec<SearchScratch>>,
}

impl ScratchPool {
    /// An empty pool; scratches are created lazily on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a scratch prepared for a graph of `n` nodes (pass the
    /// index's current length, or `0` when the first search call will
    /// `begin(n)` itself). Reuses a pooled scratch when available, otherwise
    /// allocates a new one. The guard returns the scratch on drop.
    pub fn checkout(&self, n: usize) -> PooledScratch<'_> {
        let mut scratch = self.lock().pop().unwrap_or_default();
        scratch.begin(n);
        PooledScratch { pool: self, scratch: Some(scratch) }
    }

    /// Number of idle scratches currently in the pool.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SearchScratch>> {
        // A panic mid-search leaves only transient query state behind; the
        // scratch is still structurally sound, so poisoning is ignorable.
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool").field("idle", &self.idle()).finish()
    }
}

/// RAII guard for a checked-out [`SearchScratch`]; derefs to the scratch
/// and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<SearchScratch>,
}

impl Deref for PooledScratch<'_> {
    type Target = SearchScratch;

    fn deref(&self) -> &SearchScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut SearchScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.lock().push(scratch);
        }
    }
}

/// Output of [`run_sharded`] — and so the answer to every batch in the
/// workspace: per-item results in input order plus merged, repeat-averaged
/// statistics and batch timing.
#[derive(Debug, Clone)]
pub struct ShardedRun<R> {
    /// Result slot `i` holds item `i`'s answer (from the final repetition),
    /// whatever the thread count.
    pub results: Vec<R>,
    /// Statistics merged across workers, averaged back to one-execution
    /// scale when `repeats > 1` (so per-item averages are
    /// repeat-independent). `fallback` is OR-ed.
    pub stats: SearchStats,
    /// Wall time of the whole batch.
    pub elapsed: Duration,
    /// Total item executions (`nq × repeats`).
    pub executions: u64,
    /// Executions per second over the batch wall time (0 when no time
    /// elapsed).
    pub qps: f64,
}

/// The one shard/repeat/measure driver behind every batch executor in the
/// workspace (`acorn-eval`'s `sweep` and `acorn-core`'s
/// `SegmentedQueryEngine`, which returns its [`ShardedRun`] as the batch's
/// answer): split `nq` items into contiguous chunks across
/// `std::thread::scope` workers (`threads = 0` uses all cores; the worker
/// count never exceeds `nq`), give each worker one pooled scratch prepared
/// for `capacity` ids, execute every item `repeats` times (results kept
/// from the final pass; QPS counts every execution), and merge per-worker
/// stats.
///
/// Keeping this in one place keeps the measurement semantics — chunking,
/// repeat averaging, timing boundaries — identical everywhere they are
/// compared.
pub fn run_sharded<R, F>(
    pool: &ScratchPool,
    nq: usize,
    threads: usize,
    repeats: usize,
    capacity: usize,
    f: F,
) -> ShardedRun<R>
where
    R: Send + Default,
    F: Fn(usize, &mut SearchScratch, &mut SearchStats) -> R + Sync,
{
    let repeats = repeats.max(1);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    }
    .clamp(1, nq.max(1));

    let mut results: Vec<R> = std::iter::repeat_with(R::default).take(nq).collect();
    let mut thread_stats: Vec<SearchStats> = vec![SearchStats::default(); threads];

    let t0 = Instant::now();
    if nq > 0 {
        let chunk = nq.div_ceil(threads);
        std::thread::scope(|s| {
            let f = &f;
            for ((t, shard), tstat) in
                results.chunks_mut(chunk).enumerate().zip(thread_stats.iter_mut())
            {
                s.spawn(move || {
                    let mut scratch = pool.checkout(capacity);
                    let base = t * chunk;
                    for rep in 0..repeats {
                        for (off, slot) in shard.iter_mut().enumerate() {
                            let out = f(base + off, &mut scratch, tstat);
                            if rep + 1 == repeats {
                                *slot = out;
                            }
                        }
                    }
                });
            }
        });
    }
    let elapsed = t0.elapsed();

    let mut stats = SearchStats::default();
    for st in &thread_stats {
        stats.merge(st);
    }
    stats.ndis /= repeats as u64;
    stats.nhops /= repeats as u64;
    stats.npred /= repeats as u64;
    stats.npred_cached /= repeats as u64;
    let executions = (nq * repeats) as u64;
    let secs = elapsed.as_secs_f64();
    let qps = if secs > 0.0 { executions as f64 / secs } else { 0.0 };
    ShardedRun { results, stats, elapsed, executions, qps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_scratch() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout(10);
            let _b = pool.checkout(10);
            assert_eq!(pool.idle(), 0, "both scratches are checked out");
        }
        assert_eq!(pool.idle(), 2, "guards must return scratches on drop");
        {
            let _a = pool.checkout(10);
            assert_eq!(pool.idle(), 1, "checkout must pop from the free list");
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pooled_scratch_survives_index_growth() {
        let pool = ScratchPool::new();
        {
            let s = pool.checkout(4);
            assert!(s.visited.capacity() >= 4);
        }
        // The "index" grew; the recycled scratch must cover the new ids.
        let mut s = pool.checkout(1000);
        assert!(s.visited.capacity() >= 1000);
        assert!(s.visited.insert(999));
    }

    #[test]
    fn checkout_state_is_clean() {
        let pool = ScratchPool::new();
        {
            let mut s = pool.checkout(8);
            s.visited.insert(3);
            s.expansion.push(7);
            s.frontier.push(crate::heap::Neighbor::new(1.0, 3));
        }
        let s = pool.checkout(8);
        assert!(!s.visited.contains(3), "visited marks must not leak across checkouts");
        assert!(s.expansion.is_empty());
        assert!(s.frontier.is_empty());
    }

    #[test]
    fn clone_is_a_fresh_pool() {
        let pool = ScratchPool::new();
        drop(pool.checkout(4));
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.clone().idle(), 0);
    }

    #[test]
    fn runs_every_query_exactly_once() {
        let out = run_sharded(&ScratchPool::new(), 37, 4, 1, 0, |i, _scratch, stats| {
            stats.ndis += 1;
            vec![i as u32]
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
        let out = run_sharded(&ScratchPool::new(), 0, 2, 1, 0, |_, _, _| Vec::<u32>::new());
        assert!(out.results.is_empty());
    }

    #[test]
    fn single_thread_matches_multi_thread_results() {
        let f = |i: usize, _: &mut SearchScratch, _: &mut SearchStats| vec![(i * 3) as u32];
        let a = run_sharded(&ScratchPool::new(), 20, 1, 1, 0, f);
        let b = run_sharded(&ScratchPool::new(), 20, 8, 1, 0, f);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn pooled_runs_reuse_scratches_across_runs() {
        let pool = ScratchPool::new();
        let f = |i: usize, s: &mut SearchScratch, _: &mut SearchStats| {
            s.visited.grow(64);
            s.visited.insert(i as u32 % 64);
            vec![i as u32]
        };
        // Workers return scratches on completion; a worker that starts after
        // another finished may reuse its scratch, so the pool holds between
        // 1 and `threads` scratches — never zero, never more.
        let _ = run_sharded(&pool, 16, 2, 1, 0, f);
        let after_first = pool.idle();
        assert!((1..=2).contains(&after_first), "expected 1..=2 pooled scratches");
        let _ = run_sharded(&pool, 16, 2, 1, 0, f);
        assert!(pool.idle() <= 2, "the second run must reuse, not endlessly grow, the pool");
    }

    #[test]
    fn concurrent_checkouts_are_safe() {
        let pool = ScratchPool::new();
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for i in 0..50u32 {
                        let mut s = pool.checkout(64);
                        assert!(s.visited.insert(i % 64));
                    }
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 4);
    }
}
