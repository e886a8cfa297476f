//! Shared method runners: build a [`BenchCtx`] once, then sweep any of the
//! benchmarked methods over it. Keeps the per-figure binaries thin and
//! guarantees every method is measured by the same driver, ground truth,
//! and recall definition.

use acorn_baselines::{
    FilteredVamana, IvfFlat, IvfSq8, NhqIndex, OraclePartitionIndex, PostFilterHnsw, PreFilter,
    StitchedVamana,
};
use acorn_core::AcornIndex;
use acorn_data::{ground_truth, HybridDataset, Workload};
use acorn_eval::sweep::{sweep_repeated, SweepPoint};
use acorn_eval::Table;
use acorn_hnsw::Metric;
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

/// Sweep ACORN (γ or 1) with its full cost-model routing (§5.2 fallback).
pub fn sweep_acorn(idx: &AcornIndex, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, efs, scratch| {
            let q = &ctx.workload.queries[i];
            let (out, stats) =
                idx.hybrid_search(&q.vector, &q.predicate, &ctx.ds.attrs, ctx.k, efs, scratch);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep ACORN without the pre-filter fallback (pure predicate-subgraph
/// traversal; used by ablations that isolate the graph's behaviour).
pub fn sweep_acorn_graph_only(
    idx: &AcornIndex,
    ctx: &BenchCtx,
    params: &[usize],
) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, efs, scratch| {
            let q = &ctx.workload.queries[i];
            let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = idx.search_filtered(&q.vector, &filter, ctx.k, efs, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep HNSW post-filtering (`K/s` over-search, §7.2). Uses each query's
/// exact selectivity, favoring the baseline.
pub fn sweep_postfilter(pf: &PostFilterHnsw, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, efs, scratch| {
            let q = &ctx.workload.queries[i];
            let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = pf.search(&q.vector, &filter, ctx.k, efs, q.selectivity, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Pre-filtering has no quality knob: one point at perfect recall.
pub fn sweep_prefilter(ctx: &BenchCtx) -> Vec<SweepPoint> {
    let pf = PreFilter::new(ctx.ds.vectors.clone(), Metric::L2);
    sweep_repeated(
        &[0],
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, _p, _scratch| {
            let q = &ctx.workload.queries[i];
            let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = pf.search(&q.vector, &filter, ctx.k, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep the oracle partition index (requires `Equals` predicates).
pub fn sweep_oracle(
    oracle: &OraclePartitionIndex,
    ctx: &BenchCtx,
    params: &[usize],
) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, efs, scratch| {
            let q = &ctx.workload.queries[i];
            let label = equals_label(&q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = oracle.search(label, &q.vector, ctx.k, efs, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep FilteredVamana (param = search beam `L`).
pub fn sweep_filtered_vamana(
    fv: &FilteredVamana,
    ctx: &BenchCtx,
    params: &[usize],
) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, l, scratch| {
            let q = &ctx.workload.queries[i];
            let label = equals_label(&q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = fv.search_with(&q.vector, label, ctx.k, l, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep StitchedVamana (param = search beam `L`).
pub fn sweep_stitched(sv: &StitchedVamana, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, l, scratch| {
            let q = &ctx.workload.queries[i];
            let label = equals_label(&q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = sv.search_with(&q.vector, label, ctx.k, l, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep NHQ fusion search (param = beam `ef`).
pub fn sweep_nhq(nhq: &NhqIndex, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, ef, scratch| {
            let q = &ctx.workload.queries[i];
            let label = equals_label(&q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = nhq.search_with(&q.vector, label, ctx.k, ef, scratch, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep IVF-Flat (param = `nprobe`).
pub fn sweep_ivf(ivf: &IvfFlat, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, nprobe, _scratch| {
            let q = &ctx.workload.queries[i];
            let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = ivf.search(&q.vector, &filter, ctx.k, nprobe, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
}

/// Sweep IVF-SQ8 (param = `nprobe`).
pub fn sweep_ivf_sq8(ivf: &IvfSq8, ctx: &BenchCtx, params: &[usize]) -> Vec<SweepPoint> {
    sweep_repeated(
        params,
        &ctx.truth,
        ctx.k,
        ctx.threads,
        crate::bench_repeats(),
        |i, nprobe, _scratch| {
            let q = &ctx.workload.queries[i];
            let filter = PredicateFilter::new(&ctx.ds.attrs, &q.predicate);
            let mut stats = acorn_hnsw::SearchStats::default();
            let out = ivf.search(&q.vector, &filter, ctx.k, nprobe, &mut stats);
            (out.iter().map(|n| n.id).collect(), stats)
        },
    )
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
    use acorn_core::{AcornParams, AcornVariant};
    use acorn_data::datasets::sift_like;
    use acorn_data::workloads::equality_workload;

    #[test]
    fn acorn_sweep_end_to_end_smoke() {
        let ds = sift_like(1500, 1);
        let w = equality_workload(&ds, 8, 2);
        let ctx = BenchCtx::new(ds, w, 10, 2);
        let idx = AcornIndex::build(
            ctx.ds.vectors.clone(),
            AcornParams { m: 8, gamma: 6, m_beta: 16, ef_construction: 32, ..Default::default() },
            AcornVariant::Gamma,
        );
        let pts = sweep_acorn(&idx, &ctx, &[16, 64]);
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
