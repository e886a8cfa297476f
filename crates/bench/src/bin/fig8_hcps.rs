//! Figure 8 reproduction: Recall@10 vs QPS on the HCPS workloads —
//! TripClick-like clinical areas, TripClick-like dates, and LAION-like
//! regex. The specialized indices (Vamana variants, NHQ) cannot run here:
//! the predicate sets are high-cardinality and non-equality, exactly the
//! regime that motivates ACORN.
//!
//! Paper's finding (§7.3.2): ACORN-γ attains 30–50× the best baseline's
//! QPS at 0.9 recall; pre-filtering is exact but slow; post-filtering
//! cannot reach high recall.

use acorn_baselines::PostFilterHnsw;
use acorn_bench::methods::{
    acorn_segment, sweep_acorn, sweep_postfilter, sweep_prefilter, sweep_table, table_rows,
    BenchCtx,
};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::datasets::{laion_like, tripclick_like};
use acorn_data::workloads::{area_workload, date_range_workload, regex_workload, Workload};
use acorn_data::HybridDataset;
use acorn_eval::sweep::qps_at_recall;
use acorn_hnsw::HnswParams;

fn run_workload(ds: &HybridDataset, workload: Workload, m_beta: usize) {
    let threads = bench_threads();
    let label = workload.name.clone();
    println!("--- {} (avg selectivity {:.3}) ---", label, workload.avg_selectivity());
    let ctx = BenchCtx::new(ds.clone(), workload, 10, threads);

    let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };
    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta, ef_construction: 40, ..Default::default() };

    eprintln!("[{label}] building indices...");
    let acorn_g = acorn_segment(&ctx.ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
    let acorn_1 = acorn_segment(&ctx.ds.vectors, acorn_params, AcornVariant::One);
    let postf = PostFilterHnsw::build(ctx.ds.vectors.clone(), hnsw_params);

    let efs = efs_sweep();
    let sweeps = vec![
        ("ACORN-gamma", sweep_acorn(&acorn_g, &ctx, &efs)),
        ("ACORN-1", sweep_acorn(&acorn_1, &ctx, &efs)),
        ("HNSW post-filter", sweep_postfilter(&postf, &ctx, &efs)),
        ("pre-filter", sweep_prefilter(&ctx)),
    ];

    let mut t = sweep_table(&format!("Figure 8: Recall@10 vs QPS — {label}"));
    for (m, pts) in &sweeps {
        table_rows(&mut t, m, pts);
    }
    print!("{}", t.render());
    println!("\nQPS at 0.9 recall:");
    for (m, pts) in &sweeps {
        match qps_at_recall(pts, 0.9) {
            Some(q) => println!("  {m:<18} {q:>10.0}"),
            None => println!("  {m:<18} {:>10}", "below 0.9"),
        }
    }
    let path = results_dir()
        .join(format!("fig8_{}.csv", label.replace(['/', '-'], "_").replace('.', "p")));
    t.write_csv(&path).expect("write csv");
    println!("CSV: {}\n", path.display());
}

fn main() {
    let n = bench_n(8000);
    let nq = bench_nq(40);
    println!("Figure 8 (HCPS recall-QPS) — n = {n}, nq = {nq}\n");

    let trip = tripclick_like(n, 1);
    run_workload(&trip, area_workload(&trip, nq, 2), 64);
    run_workload(&trip, date_range_workload(&trip, 0.36, nq, 3), 64);

    let laion = laion_like(n, 4);
    run_workload(&laion, regex_workload(&laion, nq, 5), 32);
}
