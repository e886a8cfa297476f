//! Figure 10 reproduction: varied query correlation on LAION-like keyword
//! workloads (negative / none / positive).
//!
//! Paper's finding (§7.3.2): ACORN-γ is robust across all three regimes
//! (28–100× the next best baseline); post-filtering collapses under
//! negative correlation because its candidates can't route toward passing
//! nodes; pre-filtering is correlation-insensitive but slow.
//!
//! Also prints the measured correlation statistic `C(D, Q)` (§3.2.1) per
//! workload to confirm the generators produce the intended regimes.

use acorn_baselines::PostFilterHnsw;
use acorn_bench::methods::{
    acorn_segment, sweep_acorn, sweep_postfilter, sweep_prefilter, sweep_table, table_rows,
    BenchCtx,
};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::correlation::query_correlation;
use acorn_data::datasets::laion_like;
use acorn_data::workloads::{keyword_workload, Correlation};
use acorn_eval::sweep::qps_at_recall;
use acorn_hnsw::{HnswParams, Metric};

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(30);
    let threads = bench_threads();
    println!("Figure 10 (query correlation, LAION-like keywords) — n = {n}, nq = {nq}\n");

    let ds = laion_like(n, 1);
    let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };
    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta: 32, ef_construction: 40, ..Default::default() };

    eprintln!("building indices once (shared across workloads)...");
    let acorn_g = acorn_segment(&ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
    let acorn_1 = acorn_segment(&ds.vectors, acorn_params, AcornVariant::One);
    let postf = PostFilterHnsw::build(ds.vectors.clone(), hnsw_params);

    let mut summary = acorn_eval::Table::new(
        "Figure 10 summary: QPS at 0.9 recall per correlation regime",
        &["workload", "C(D,Q)", "ACORN-gamma", "ACORN-1", "HNSW post-filter", "pre-filter"],
    );

    for corr in [Correlation::Negative, Correlation::None, Correlation::Positive] {
        let workload = keyword_workload(&ds, corr, nq, 5);
        let cdq = query_correlation(&ds.vectors, &ds.attrs, Metric::L2, &workload.queries, 3, 11);
        println!(
            "--- {} (avg selectivity {:.3}, C(D,Q) = {cdq:.3}) ---",
            corr.label(),
            workload.avg_selectivity()
        );
        let ctx = BenchCtx::new(ds.clone(), workload, 10, threads);
        let efs = efs_sweep();
        let sweeps = vec![
            ("ACORN-gamma", sweep_acorn(&acorn_g, &ctx, &efs)),
            ("ACORN-1", sweep_acorn(&acorn_1, &ctx, &efs)),
            ("HNSW post-filter", sweep_postfilter(&postf, &ctx, &efs)),
            ("pre-filter", sweep_prefilter(&ctx)),
        ];
        let mut t = sweep_table(&format!("Figure 10 ({})", corr.label()));
        for (m, pts) in &sweeps {
            table_rows(&mut t, m, pts);
        }
        print!("{}", t.render());
        let cells: Vec<String> = sweeps
            .iter()
            .map(|(_, pts)| match qps_at_recall(pts, 0.9) {
                Some(q) => format!("{q:.0}"),
                None => "<0.9".into(),
            })
            .collect();
        summary.row(vec![
            corr.label().to_string(),
            format!("{cdq:.3}"),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
        let path = results_dir().join(format!("fig10_{}.csv", corr.label().replace('-', "_")));
        t.write_csv(&path).expect("write csv");
        println!("CSV: {}\n", path.display());
    }

    print!("{}", summary.render());
    let path = results_dir().join("fig10_summary.csv");
    summary.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
