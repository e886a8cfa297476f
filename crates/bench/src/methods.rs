//! Shared method runners: build a [`BenchCtx`] once, then sweep any of the
//! benchmarked methods over it. Keeps the per-figure binaries thin and
//! guarantees every method is measured by the same driver, ground truth,
//! and recall definition.

use std::sync::Arc;

use acorn_baselines::{
    FilteredVamana, IvfFlat, IvfSq8, NhqIndex, OraclePartitionIndex, PostFilterHnsw, PreFilter,
    StitchedVamana,
};
use acorn_core::{AcornIndex, AcornParams, AcornVariant, SegmentSnapshot, SegmentedAcornIndex};
use acorn_data::{ground_truth, HybridDataset, HybridQuery, Workload};
use acorn_eval::sweep::{sweep_repeated, SweepPoint};
use acorn_eval::Table;
use acorn_hnsw::{Metric, Neighbor, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{Predicate, PredicateFilter};

/// A prepared benchmark context: dataset + workload + exact ground truth.
pub struct BenchCtx {
    /// The hybrid dataset.
    pub ds: HybridDataset,
    /// The query workload.
    pub workload: Workload,
    /// Exact top-`k` passing ids per query.
    pub truth: Vec<Vec<u32>>,
    /// Recall target size.
    pub k: usize,
    /// Query-driver threads (0 = all cores).
    pub threads: usize,
}

impl BenchCtx {
    /// Compute ground truth and wrap everything up.
    pub fn new(ds: HybridDataset, workload: Workload, k: usize, threads: usize) -> Self {
        let truth = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &workload.queries, k, threads);
        Self { ds, workload, truth, k, threads }
    }

    /// Number of queries.
    pub fn nq(&self) -> usize {
        self.workload.queries.len()
    }

    /// The one sweep body every method shares: `run(query, param, scratch,
    /// stats)` answers one workload query at one value of the method's
    /// quality knob; each value becomes a [`SweepPoint`] (recall against
    /// [`truth`](Self::truth), QPS over [`bench_repeats`](crate::bench_repeats)
    /// executions per query).
    pub fn sweep<F>(&self, params: &[usize], run: F) -> Vec<SweepPoint>
    where
        F: Fn(&HybridQuery, usize, &mut SearchScratch, &mut SearchStats) -> Vec<Neighbor> + Sync,
    {
        let repeats = crate::bench_repeats();
        sweep_repeated(params, &self.truth, self.k, self.threads, repeats, |i, param, scratch| {
            let mut stats = SearchStats::default();
            let out = run(&self.workload.queries[i], param, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        })
    }
}

/// Extract the label of an `Equals` predicate (the LCPS benchmarks' key).
///
/// # Panics
/// Panics on any other predicate shape.
pub fn equals_label(p: &Predicate) -> i64 {
    match p {
        Predicate::Equals { value, .. } => *value,
        other => panic!("expected an Equals predicate, got {other:?}"),
    }
}

/// ACORN (γ or 1) the way the engine serves a static corpus: `vectors`
/// bulk-loaded as one sealed segment, so global id == row id and queries
/// traverse the CSR layout through the planner.
pub fn acorn_segment(
    vectors: &VectorStore,
    params: AcornParams,
    variant: AcornVariant,
) -> Arc<SegmentSnapshot> {
    let mut index = SegmentedAcornIndex::new(vectors.dim(), params, variant);
    index.bulk_load(vectors.clone());
    index.snapshot()
}

/// Sweep ACORN with its full cost-model routing (§5.2 fallback) over an
/// [`acorn_segment`].
pub fn sweep_acorn(snap: &SegmentSnapshot, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, efs, scratch, stats| {
        let (out, st) =
            snap.hybrid_search(&q.vector, &q.predicate, &ctx.ds.attrs, ctx.k, efs, scratch);
        *stats = st;
        out.iter().map(|n| Neighbor::new(n.dist, n.id as u32)).collect()
    })
}

/// Sweep ACORN without the pre-filter fallback (pure predicate-subgraph
/// traversal; used by ablations that isolate the graph's behaviour).
pub fn sweep_acorn_graph_only(
    idx: &AcornIndex,
    ctx: &BenchCtx,
    params: &[usize],
) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, efs, scratch, stats| {
        let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
        idx.search_filtered(&q.vector, &filter, ctx.k, efs, scratch, stats)
    })
}

/// Sweep HNSW post-filtering (`K/s` over-search, §7.2). Uses each query's
/// exact selectivity, favoring the baseline.
pub fn sweep_postfilter(pf: &PostFilterHnsw, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, efs, scratch, stats| {
        let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
        pf.search(&q.vector, &filter, ctx.k, efs, q.selectivity, scratch, stats)
    })
}

/// Pre-filtering has no quality knob: one point at perfect recall.
pub fn sweep_prefilter(ctx: &BenchCtx) -> Vec<SweepPoint> {
    let pf = PreFilter::new(ctx.ds.vectors.clone(), Metric::L2);
    ctx.sweep(&[0], |q, _, _, stats| {
        let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
        pf.search(&q.vector, &filter, ctx.k, stats)
    })
}

/// Sweep the oracle partition index (requires `Equals` predicates).
pub fn sweep_oracle(
    oracle: &OraclePartitionIndex,
    ctx: &BenchCtx,
    params: &[usize],
) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, efs, scratch, stats| {
        oracle.search(equals_label(&q.predicate), &q.vector, ctx.k, efs, scratch, stats)
    })
}

/// Sweep FilteredVamana (param = search beam `L`).
pub fn sweep_filtered_vamana(
    fv: &FilteredVamana,
    ctx: &BenchCtx,
    params: &[usize],
) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, l, scratch, stats| {
        fv.search_with(&q.vector, equals_label(&q.predicate), ctx.k, l, scratch, stats)
    })
}

/// Sweep StitchedVamana (param = search beam `L`).
pub fn sweep_stitched(sv: &StitchedVamana, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, l, scratch, stats| {
        sv.search_with(&q.vector, equals_label(&q.predicate), ctx.k, l, scratch, stats)
    })
}

/// Sweep NHQ fusion search (param = beam `ef`).
pub fn sweep_nhq(nhq: &NhqIndex, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, ef, scratch, stats| {
        nhq.search_with(&q.vector, equals_label(&q.predicate), ctx.k, ef, scratch, stats)
    })
}

/// Sweep IVF-Flat (param = `nprobe`).
pub fn sweep_ivf(ivf: &IvfFlat, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, nprobe, _, stats| {
        let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
        ivf.search(&q.vector, &filter, ctx.k, nprobe, stats)
    })
}

/// Sweep IVF-SQ8 (param = `nprobe`).
pub fn sweep_ivf_sq8(ivf: &IvfSq8, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    ctx.sweep(params, |q, nprobe, _, stats| {
        let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
        ivf.search(&q.vector, &filter, ctx.k, nprobe, stats)
    })
}

/// Append a method's sweep to a results table.
pub fn table_rows(table: &mut Table, method: &str, points: &[SweepPoint]) {
    for p in points {
        table.row(vec![
            method.to_string(),
            p.param.to_string(),
            format!("{:.4}", p.recall),
            format!("{:.0}", p.qps),
            format!("{:.1}", p.avg_ndis),
            format!("{:.1}", p.avg_npred),
            format!("{:.2}", p.pred_hit_rate()),
        ]);
    }
}

/// The standard sweep-table header.
pub fn sweep_table(title: &str) -> Table {
    Table::new(title, &["method", "param", "recall@10", "QPS", "avg_ndis", "avg_npred", "pred_hit"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_data::datasets::sift_like;
    use acorn_data::workloads::equality_workload;

    #[test]
    fn acorn_sweep_end_to_end_smoke() {
        let ds = sift_like(1500, 1);
        let w = equality_workload(&ds, 8, 2);
        let ctx = BenchCtx::new(ds, w, 10, 2);
        let snap = acorn_segment(
            &ctx.ds.vectors,
            AcornParams { m: 8, gamma: 6, m_beta: 16, ef_construction: 32, ..Default::default() },
            AcornVariant::Gamma,
        );
        let pts = sweep_acorn(&snap, &ctx, &[16, 64]);
        assert_eq!(pts.len(), 2);
        assert!(pts[1].recall >= pts[0].recall - 0.1, "recall should not collapse with ef");
        assert!(pts[1].recall > 0.5);
    }

    #[test]
    fn prefilter_sweep_is_exact() {
        let ds = sift_like(800, 3);
        let w = equality_workload(&ds, 5, 4);
        let ctx = BenchCtx::new(ds, w, 10, 2);
        let pts = sweep_prefilter(&ctx);
        assert_eq!(pts.len(), 1);
        assert!((pts[0].recall - 1.0).abs() < 1e-9, "pre-filtering must be exact");
    }

    #[test]
    fn equals_label_extracts() {
        let p = Predicate::Equals { field: 0, value: 9 };
        assert_eq!(equals_label(&p), 9);
    }
}
