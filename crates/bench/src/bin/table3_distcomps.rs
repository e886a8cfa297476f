//! Table 3 reproduction: distance computations to reach recall@10 = 0.8
//! on the SIFT-like and Paper-like datasets, relative to the oracle
//! partition index.
//!
//! Paper's finding (§7.3.1): oracle < ACORN-γ < ACORN-1 < HNSW post-filter,
//! with ACORN-γ within tens of percent of the oracle while the
//! post-filter needs several times more distance computations.

use acorn_baselines::{OraclePartitionIndex, PostFilterHnsw};
use acorn_bench::methods::{acorn_segment, sweep_acorn, sweep_oracle, sweep_postfilter, BenchCtx};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::datasets::{paper_like, sift_like, HybridDataset};
use acorn_data::workloads::equality_workload;
use acorn_eval::sweep::ndis_at_recall;
use acorn_eval::Table;
use acorn_hnsw::HnswParams;

const RECALL_TARGET: f64 = 0.8;

fn run_dataset(ds: HybridDataset, nq: usize, rows: &mut Vec<(String, String, Option<f64>)>) {
    let name = ds.name.clone();
    let threads = bench_threads();
    let workload = equality_workload(&ds, nq, 11);
    let ctx = BenchCtx::new(ds, workload, 10, threads);

    let field = ctx.ds.attrs.field("label").unwrap();
    let labels: Vec<i64> = (0..ctx.ds.len() as u32).map(|i| ctx.ds.attrs.int(field, i)).collect();

    let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };
    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };

    eprintln!("[{name}] building oracle partitions...");
    let oracle = OraclePartitionIndex::build_from_labels(&ctx.ds.vectors, &labels, hnsw_params);
    eprintln!("[{name}] building ACORN-gamma...");
    let acorn_g = acorn_segment(&ctx.ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
    eprintln!("[{name}] building ACORN-1...");
    let acorn_1 = acorn_segment(&ctx.ds.vectors, acorn_params, AcornVariant::One);
    eprintln!("[{name}] building HNSW (post-filter)...");
    let postf = PostFilterHnsw::build(ctx.ds.vectors.clone(), hnsw_params);

    let efs = efs_sweep();
    let pts_oracle = sweep_oracle(&oracle, &ctx, &efs);
    let pts_g = sweep_acorn(&acorn_g, &ctx, &efs);
    let pts_1 = sweep_acorn(&acorn_1, &ctx, &efs);
    let pts_post = sweep_postfilter(&postf, &ctx, &efs);

    for (method, pts) in [
        ("Oracle Partition", &pts_oracle),
        ("ACORN-gamma", &pts_g),
        ("ACORN-1", &pts_1),
        ("HNSW Post-filter", &pts_post),
    ] {
        rows.push((name.clone(), method.to_string(), ndis_at_recall(pts, RECALL_TARGET)));
    }
}

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(40);
    println!("Table 3 (# distance computations @ {RECALL_TARGET} recall) — n = {n}, nq = {nq}\n");

    let mut rows = Vec::new();
    run_dataset(sift_like(n, 1), nq, &mut rows);
    run_dataset(paper_like(n, 2), nq, &mut rows);

    let mut t = Table::new(
        "Table 3: # Distance Computations to Achieve 0.8 Recall",
        &["dataset", "method", "ndis@0.8", "vs oracle"],
    );
    // Baseline per dataset = oracle.
    let oracle_of = |ds: &str| {
        rows.iter().find(|(d, m, _)| d == ds && m == "Oracle Partition").and_then(|(_, _, v)| *v)
    };
    for (ds, method, ndis) in &rows {
        let cell = match ndis {
            Some(v) => format!("{v:.1}"),
            None => "recall target not reached".into(),
        };
        let rel = match (ndis, oracle_of(ds)) {
            (Some(v), Some(o)) if o > 0.0 => format!("{:+.1}%", (v - o) / o * 100.0),
            _ => "-".into(),
        };
        t.row(vec![ds.clone(), method.clone(), cell, rel]);
    }
    print!("{}", t.render());
    let path = results_dir().join("table3_distcomps.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
