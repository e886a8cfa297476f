//! The batch query engine: concurrent, scratch-pooled serving through an
//! [`IndexReader`] of a [`SegmentedAcornIndex`].
//!
//! ACORN's headline results are QPS–recall tradeoffs under hybrid
//! predicates (§7), which makes batched, multi-threaded query execution the
//! production-facing surface of the index. [`SegmentedQueryEngine`]
//! provides it on top of the workspace's one batch driver,
//! [`run_sharded`], and returns that driver's [`ShardedRun`] unchanged:
//!
//! * queries are sharded across `std::thread::scope` workers in contiguous
//!   chunks, so output ordering is **deterministic** — result `i` always
//!   answers query `i`, and the results are identical to a sequential loop
//!   regardless of the thread count;
//! * every worker checks one [`SearchScratch`] out of the index's shared
//!   [`ScratchPool`](acorn_hnsw::ScratchPool) for its whole shard, so no
//!   O(n) visited set is ever allocated per query;
//! * per-worker [`SearchStats`] are merged into one aggregate, and wall
//!   time / QPS are measured around the whole batch.
//!
//! A static corpus is served the same way: [`bulk_load`] it as one frozen
//! segment (local row id == global id) and hand a reader to the engine.
//!
//! [`SegmentedAcornIndex`]: crate::segment::SegmentedAcornIndex
//! [`bulk_load`]: crate::segment::SegmentedAcornIndex::bulk_load

use acorn_hnsw::pool::{run_sharded, ShardedRun};
use acorn_hnsw::{SearchScratch, SearchStats};
use acorn_predicate::{AttrStore, Predicate};

use crate::segment::GlobalNeighbor;
use crate::snapshot::{IndexReader, SegmentSnapshot};

/// The batch-serving layer over a
/// [`SegmentedAcornIndex`](crate::segment::SegmentedAcornIndex), on the
/// shared [`run_sharded`] driver: each worker's
/// pooled scratch serves **every segment** of its queries in turn — the
/// per-query fan-out across segments, the k-way merge of per-segment result
/// heaps, and the global-id remapping all happen inside the snapshot's
/// `*_with` entry points. A batch answers with the driver's own
/// [`ShardedRun`]: [`GlobalNeighbor`] lists in deterministic input order,
/// aggregated [`SearchStats`], wall time and QPS.
///
/// The engine holds an [`IndexReader`], not a borrow of the index: it stays
/// valid while the writer inserts, deletes, and merges concurrently. Each
/// batch pins **one** [`SegmentSnapshot`] up front, so every query of the
/// batch answers at the same epoch — bit-identical to a sequential loop at
/// that epoch, whatever the writer does mid-batch — and no worker acquires
/// a lock after the pin. Construction is free and scratches come from the
/// index's own [`ScratchPool`](acorn_hnsw::ScratchPool); keep one engine per index for the lifetime
/// of a serving process and feed it query batches.
#[derive(Debug, Clone)]
pub struct SegmentedQueryEngine {
    reader: IndexReader,
    threads: usize,
}

impl SegmentedQueryEngine {
    /// An engine over an [`IndexReader`] handle
    /// ([`SegmentedAcornIndex::reader`](crate::segment::SegmentedAcornIndex::reader)),
    /// using all available cores.
    pub fn for_reader(reader: IndexReader) -> Self {
        Self { reader, threads: 0 }
    }

    /// Set the worker-thread count (`0` = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shard `nq` queries across scoped workers; `f(i, scratch, stats)`
    /// answers query `i` against `snap`. Output slot `i` always holds query
    /// `i`'s answer.
    fn run_batch<F>(
        &self,
        snap: &SegmentSnapshot,
        nq: usize,
        f: F,
    ) -> ShardedRun<Vec<GlobalNeighbor>>
    where
        F: Fn(usize, &mut SearchScratch, &mut SearchStats) -> Vec<GlobalNeighbor> + Sync,
    {
        run_sharded(self.reader.scratch_pool(), nq, self.threads, 1, snap.max_segment_rows(), f)
    }

    /// Pure ANN search for a batch of queries across all segments of one
    /// pinned epoch.
    pub fn search_batch<Q>(
        &self,
        queries: &[Q],
        k: usize,
        efs: usize,
    ) -> ShardedRun<Vec<GlobalNeighbor>>
    where
        Q: AsRef<[f32]> + Sync,
    {
        let snap = self.reader.snapshot();
        self.run_batch(&snap, queries.len(), |i, scratch, stats| {
            snap.search_with(queries[i].as_ref(), k, efs, scratch, stats)
        })
    }

    /// Full hybrid search (per-segment §5.2 routing included) for a batch
    /// of `(vector, predicate)` queries against one global attribute store.
    pub fn hybrid_search_batch<Q>(
        &self,
        queries: &[(Q, &Predicate)],
        attrs: &AttrStore,
        k: usize,
        efs: usize,
    ) -> ShardedRun<Vec<GlobalNeighbor>>
    where
        Q: AsRef<[f32]> + Sync,
    {
        let snap = self.reader.snapshot();
        self.run_batch(&snap, queries.len(), |i, scratch, stats| {
            let (q, predicate) = &queries[i];
            let (out, st) = snap.hybrid_search(q.as_ref(), predicate, attrs, k, efs, scratch);
            stats.merge(&st);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use acorn_hnsw::{Metric, VectorStore};
    use acorn_predicate::{AllPass, AttrStore, Predicate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::index::AcornIndex;
    use crate::params::{AcornParams, AcornVariant};
    use crate::segment::SegmentedAcornIndex;

    fn small_params(seed: u64) -> AcornParams {
        AcornParams {
            m: 8,
            gamma: 4,
            m_beta: 16,
            ef_construction: 32,
            metric: Metric::L2,
            seed,
            ..Default::default()
        }
    }

    fn queries(nq: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..nq).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    /// A static corpus served the one way there is: `bulk_load`ed as a
    /// single frozen segment, so local row id == global id. Also returns
    /// the store, for building the reference graph.
    fn static_index(n: usize, seed: u64) -> (SegmentedAcornIndex, VectorStore) {
        let store = VectorStore::from_flat(8, queries(n, 8, seed).concat());
        let mut idx = SegmentedAcornIndex::new(8, small_params(seed), AcornVariant::Gamma);
        assert_eq!(idx.bulk_load(store.clone()), 0..n as u64);
        (idx, store)
    }

    /// Two segments (one frozen, one active) with every 9th gid tombstoned.
    fn small_segmented(n: usize, seed: u64) -> SegmentedAcornIndex {
        let mut idx = SegmentedAcornIndex::new(8, small_params(seed), AcornVariant::Gamma);
        for (i, v) in queries(n, 8, seed).iter().enumerate() {
            idx.insert(v);
            if i == n / 2 {
                idx.freeze();
            }
        }
        for gid in (0..n as u64).step_by(9) {
            idx.delete(gid);
        }
        idx
    }

    fn pairs(results: &[Vec<GlobalNeighbor>]) -> Vec<Vec<(u64, f32)>> {
        results.iter().map(|r| r.iter().map(|n| (n.id, n.dist)).collect()).collect()
    }

    #[test]
    fn batch_matches_sequential_loop_across_thread_counts() {
        let (idx, store) = static_index(800, 1);
        let qs = queries(23, 8, 2);

        // The reference: a plain sequential loop over a bare graph built
        // on the same store (local id == gid).
        let mono = AcornIndex::build(Arc::new(store), small_params(1), AcornVariant::Gamma);
        let mut scratch = SearchScratch::new(mono.len());
        let sequential: Vec<Vec<(u64, f32)>> = qs
            .iter()
            .map(|q| {
                let mut stats = SearchStats::default();
                mono.search_filtered(q, &AllPass, 10, 48, &mut scratch, &mut stats)
                    .iter()
                    .map(|n| (n.id as u64, n.dist))
                    .collect()
            })
            .collect();

        for threads in [1, 2, 4] {
            let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(threads);
            let out = engine.search_batch(&qs, 10, 48);
            assert_eq!(
                pairs(&out.results),
                sequential,
                "threads = {threads} must be bit-identical to sequential"
            );
        }
    }

    #[test]
    fn batch_aggregates_stats_and_counts_executions() {
        let idx = small_segmented(500, 3);
        let qs = queries(10, 8, 4);
        let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(2);
        let out = engine.search_batch(&qs, 5, 32);
        assert!(out.qps > 0.0);
        assert_eq!(out.executions, qs.len() as u64, "one execution per query");
        // The aggregate is exactly the sum of the per-query stats.
        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let mut want = SearchStats::default();
        for q in &qs {
            snap.search_with(q, 5, 32, &mut scratch, &mut want);
        }
        assert!(want.ndis > 0 && want.nhops > 0);
        assert_eq!(out.stats, want);
    }

    #[test]
    fn hybrid_batch_matches_sequential_and_routes_fallback() {
        let n = 900;
        let idx = small_segmented(n, 7);
        let mut rng = StdRng::seed_from_u64(8);
        // Rare label 99 on a handful of rows: selectivity below s_min = 1/4.
        let labels: Vec<i64> =
            (0..n).map(|i| if i < 5 { 99 } else { rng.gen_range(0..4) }).collect();
        let attrs = AttrStore::builder().add_int("label", labels).build();
        let field = attrs.field("label").unwrap();

        let qs = queries(12, 8, 9);
        let preds: Vec<Predicate> = (0..qs.len())
            .map(|i| Predicate::Equals { field, value: if i == 0 { 99 } else { (i % 4) as i64 } })
            .collect();
        let batch: Vec<(&[f32], &Predicate)> =
            qs.iter().zip(&preds).map(|(q, p)| (q.as_slice(), p)).collect();

        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let sequential: Vec<Vec<GlobalNeighbor>> = qs
            .iter()
            .zip(&preds)
            .map(|(q, p)| snap.hybrid_search(q, p, &attrs, 5, 32, &mut scratch).0)
            .collect();

        for threads in [1, 3] {
            let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(threads);
            let out = engine.hybrid_search_batch(&batch, &attrs, 5, 32);
            assert_eq!(pairs(&out.results), pairs(&sequential), "threads = {threads}");
            assert!(out.stats.fallback, "the rare-label query must have routed to the fallback");
            assert!(out.stats.npred > 0);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (idx, _) = static_index(50, 10);
        let engine = SegmentedQueryEngine::for_reader(idx.reader());
        let out = engine.search_batch(&Vec::<Vec<f32>>::new(), 5, 16);
        assert!(out.results.is_empty());
        assert_eq!(out.stats, SearchStats::default());
        assert_eq!(out.executions, 0);
    }

    #[test]
    fn segmented_batch_matches_sequential_across_thread_counts() {
        let idx = small_segmented(700, 21);
        let qs = queries(17, 8, 22);

        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let mut stats = SearchStats::default();
        let sequential: Vec<Vec<GlobalNeighbor>> =
            qs.iter().map(|q| snap.search_with(q, 10, 48, &mut scratch, &mut stats)).collect();

        for threads in [1, 2, 4] {
            let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(threads);
            let out = engine.search_batch(&qs, 10, 48);
            assert_eq!(pairs(&out.results), pairs(&sequential), "threads = {threads}");
            for r in &out.results {
                for n in r {
                    assert!(n.id % 9 != 0, "tombstoned gid {} surfaced from a batch", n.id);
                }
            }
            assert!(out.stats.ndis > 0);
        }
    }

    #[test]
    fn workers_return_scratches_to_the_pool() {
        let (idx, _) = static_index(400, 11);
        let qs = queries(16, 8, 12);
        let reader = idx.reader();
        let engine = SegmentedQueryEngine::for_reader(reader.clone()).with_threads(4);
        let _ = engine.search_batch(&qs, 5, 32);
        let pool = reader.scratch_pool();
        let idle_after_first = pool.idle();
        assert!((1..=4).contains(&idle_after_first), "workers must return scratches");
        let _ = engine.search_batch(&qs, 5, 32);
        assert!(pool.idle() <= 4, "the pool must never hold more scratches than peak concurrency");
    }
}
