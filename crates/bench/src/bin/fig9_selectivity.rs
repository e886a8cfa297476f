//! Figure 9 reproduction: varied predicate selectivity on TripClick-like
//! date filters, at the paper's five selectivity percentiles.
//!
//! Paper's finding (§7.3.2): ACORN-γ wins at every percentile; pre-filter
//! is the runner-up at low selectivity (s ≈ 0.01) and fades as selectivity
//! grows; post-filter is the opposite. ACORN's cost model exploits exactly
//! this crossover via its `s_min` fallback.

use acorn_baselines::PostFilterHnsw;
use acorn_bench::methods::{
    acorn_segment, sweep_acorn, sweep_postfilter, sweep_prefilter, sweep_table, table_rows,
    BenchCtx,
};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::datasets::tripclick_like;
use acorn_data::workloads::date_range_workload;
use acorn_eval::sweep::qps_at_recall;
use acorn_hnsw::HnswParams;

/// The paper's Figure 9 selectivity percentiles (1/25/50/75/99).
const SELECTIVITIES: [f64; 5] = [0.0127, 0.0485, 0.1215, 0.2529, 0.6164];

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(30);
    let threads = bench_threads();
    println!("Figure 9 (varied selectivity, TripClick-like dates) — n = {n}, nq = {nq}\n");

    let ds = tripclick_like(n, 1);
    let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };
    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta: 128, ef_construction: 40, ..Default::default() };

    eprintln!("building indices once (shared across percentiles)...");
    let acorn_g = acorn_segment(&ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
    let acorn_1 = acorn_segment(&ds.vectors, acorn_params, AcornVariant::One);
    let postf = PostFilterHnsw::build(ds.vectors.clone(), hnsw_params);

    let mut summary = acorn_eval::Table::new(
        "Figure 9 summary: QPS at 0.9 recall per selectivity percentile",
        &["selectivity", "ACORN-gamma", "ACORN-1", "HNSW post-filter", "pre-filter"],
    );

    for (pct, &s) in ["1p", "25p", "50p", "75p", "99p"].iter().zip(&SELECTIVITIES) {
        let workload = date_range_workload(&ds, s, nq, 7);
        let avg_s = workload.avg_selectivity();
        println!("--- {pct} selectivity target {s} (achieved {avg_s:.4}) ---");
        let ctx = BenchCtx::new(ds.clone(), workload, 10, threads);

        let efs = efs_sweep();
        let sweeps = vec![
            ("ACORN-gamma", sweep_acorn(&acorn_g, &ctx, &efs)),
            ("ACORN-1", sweep_acorn(&acorn_1, &ctx, &efs)),
            ("HNSW post-filter", sweep_postfilter(&postf, &ctx, &efs)),
            ("pre-filter", sweep_prefilter(&ctx)),
        ];
        let mut t = sweep_table(&format!("Figure 9 ({pct}, s = {s})"));
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
            format!("{pct} ({avg_s:.4})"),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
        let path = results_dir().join(format!("fig9_{pct}.csv"));
        t.write_csv(&path).expect("write csv");
        println!("CSV: {}\n", path.display());
    }

    print!("{}", summary.render());
    let path = results_dir().join("fig9_summary.csv");
    summary.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
