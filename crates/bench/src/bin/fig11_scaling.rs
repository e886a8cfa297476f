//! Figure 11 reproduction: dataset-size scaling on the LAION-like
//! no-correlation keyword workload.
//!
//! Paper's finding (§7.3.2): the gap between ACORN and the baselines
//! *grows* with dataset size (three orders of magnitude at 25M). The
//! reproduction sweeps a doubling ladder of `n` and reports QPS at 0.9
//! recall per method and size; the trend, not the absolute scale, is the
//! target.

use acorn_baselines::PostFilterHnsw;
use acorn_bench::methods::{
    acorn_segment, sweep_acorn, sweep_postfilter, sweep_prefilter, BenchCtx,
};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::datasets::laion_like;
use acorn_data::workloads::{keyword_workload, Correlation};
use acorn_eval::sweep::qps_at_recall;
use acorn_eval::Table;
use acorn_hnsw::HnswParams;

fn main() {
    let max_n = bench_n(32_000);
    let nq = bench_nq(30);
    let threads = bench_threads();
    let mut sizes = vec![];
    let mut n = max_n;
    while n >= 5000 && sizes.len() < 4 {
        sizes.push(n);
        n /= 2;
    }
    sizes.reverse();
    println!("Figure 11 (scaling, LAION-like no-cor) — sizes {sizes:?}, nq = {nq}\n");

    let mut summary = Table::new(
        "Figure 11 summary: QPS at 0.9 recall vs dataset size",
        &["n", "ACORN-gamma", "ACORN-1", "HNSW post-filter", "pre-filter"],
    );

    for &size in &sizes {
        eprintln!("[n = {size}] generating dataset + indices...");
        let ds = laion_like(size, 1);
        let workload = keyword_workload(&ds, Correlation::None, nq, 2);
        let ctx = BenchCtx::new(ds, workload, 10, threads);

        let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };
        let acorn_params =
            AcornParams { m: 32, gamma: 12, m_beta: 32, ef_construction: 40, ..Default::default() };
        let acorn_g = acorn_segment(&ctx.ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
        let acorn_1 = acorn_segment(&ctx.ds.vectors, acorn_params, AcornVariant::One);
        let postf = PostFilterHnsw::build(ctx.ds.vectors.clone(), hnsw_params);

        // Larger datasets need wider beams to cross the 0.9 recall bar.
        let mut efs = efs_sweep();
        efs.push(640);
        efs.push(1280);
        let sweeps = [
            sweep_acorn(&acorn_g, &ctx, &efs),
            sweep_acorn(&acorn_1, &ctx, &efs),
            sweep_postfilter(&postf, &ctx, &efs),
            sweep_prefilter(&ctx),
        ];
        let cells: Vec<String> = sweeps
            .iter()
            .map(|pts| match qps_at_recall(pts, 0.9) {
                Some(q) => format!("{q:.0}"),
                None => "<0.9".into(),
            })
            .collect();
        println!(
            "n = {size}: ACORN-gamma {} | ACORN-1 {} | post-filter {} | pre-filter {}",
            cells[0], cells[1], cells[2], cells[3]
        );
        summary.row(vec![
            size.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }

    println!();
    print!("{}", summary.render());
    let path = results_dir().join("fig11_scaling.csv");
    summary.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
