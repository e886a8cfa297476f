//! Ablation (§6.1 extension): generalized multi-level compression.
//!
//! The paper compresses only level 0 but notes compression "could be
//! applied to more levels in bottom-up order to further reduce the index
//! size", with per-node memory `O(n_c(M_β + M) + (mL − n_c)(M·γ))`. This
//! binary sweeps `n_c` and reports index size, TTI, and hybrid search
//! performance on the SIFT-like equality workload.

use acorn_bench::methods::{sweep_acorn_graph_only, BenchCtx};
use acorn_bench::{bench_n, bench_nq, bench_threads, results_dir};
use acorn_core::{AcornIndex, AcornParams, AcornVariant};
use acorn_data::datasets::sift_like;
use acorn_data::workloads::equality_workload;
use acorn_eval::{measure, Table};

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(30);
    println!("Ablation: multi-level compression (n_c sweep) — n = {n}, nq = {nq}\n");

    let ds = sift_like(n, 1);
    let workload = equality_workload(&ds, nq, 2);
    let ctx = BenchCtx::new(ds, workload, 10, bench_threads());

    let mut t = Table::new(
        "Ablation: compressed levels n_c (SIFT-like equality)",
        &["n_c", "TTI (s)", "index MB", "lvl1 avg deg", "recall@efs=64", "QPS@efs=64"],
    );

    for n_c in [1usize, 2, 3] {
        let params = AcornParams {
            m: 32,
            gamma: 12,
            m_beta: 64,
            ef_construction: 40,
            compressed_levels: n_c,
            ..Default::default()
        };
        eprintln!("building n_c = {n_c}...");
        let (idx, tti) =
            measure(|| AcornIndex::build(ctx.ds.vectors.clone(), params, AcornVariant::Gamma));
        let stats = idx.graph().expect("a built index is growing").level_stats();
        let lvl1 = stats.get(1).map_or(0.0, |s| s.avg_out_degree);
        let build_bytes = idx.memory_bytes();
        // Swept in the layout a frozen segment serves: sealed CSR.
        let pts = sweep_acorn_graph_only(&idx.seal(None), &ctx, &[64]);
        t.row(vec![
            n_c.to_string(),
            format!("{:.1}", tti.as_secs_f64()),
            format!("{:.1}", build_bytes as f64 / (1024.0 * 1024.0)),
            format!("{lvl1:.1}"),
            format!("{:.4}", pts[0].recall),
            format!("{:.0}", pts[0].qps),
        ]);
    }

    print!("{}", t.render());
    let path = results_dir().join("ablation_multilevel.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
