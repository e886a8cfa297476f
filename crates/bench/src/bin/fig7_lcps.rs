//! Figure 7 reproduction: Recall@10 vs QPS on the LCPS datasets (SIFT-like
//! and Paper-like) across every benchmarked method.
//!
//! Paper's finding (§7.3.1): ACORN-γ tracks the oracle partition most
//! closely and beats every practical method (2–10× the specialized
//! indices); ACORN-1 trails ACORN-γ by ~1.5–5×; post-filtering is the
//! weakest graph method and pre-filtering is throughput-bound.

use acorn_baselines::nhq::NhqParams;
use acorn_baselines::stitched_vamana::StitchedParams;
use acorn_baselines::vamana::VamanaParams;
use acorn_baselines::{
    FilteredVamana, IvfFlat, NhqIndex, OraclePartitionIndex, PostFilterHnsw, StitchedVamana,
};
use acorn_bench::methods::{
    acorn_segment, sweep_acorn, sweep_filtered_vamana, sweep_ivf, sweep_ivf_sq8, sweep_nhq,
    sweep_oracle, sweep_postfilter, sweep_prefilter, sweep_stitched, sweep_table, table_rows,
    BenchCtx,
};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::datasets::{paper_like, sift_like, HybridDataset};
use acorn_data::workloads::equality_workload;
use acorn_eval::sweep::qps_at_recall;
use acorn_hnsw::{HnswParams, Metric};

/// Mean pairwise distance on a small sample: the NHQ fusion weight scale.
fn distance_scale(ds: &HybridDataset) -> f32 {
    let n = ds.len() as u32;
    let mut total = 0.0f64;
    let mut count = 0usize;
    let step = (n / 64).max(1);
    let mut i = 0;
    while i + step < n {
        total += Metric::L2.distance(ds.vectors.get(i), ds.vectors.get(i + step)) as f64;
        count += 1;
        i += step;
    }
    (total / count.max(1) as f64) as f32
}

fn run_dataset(ds: HybridDataset, nq: usize) {
    let name = ds.name.clone();
    let threads = bench_threads();
    let workload = equality_workload(&ds, nq, 21);
    let ctx = BenchCtx::new(ds, workload, 10, threads);

    let field = ctx.ds.attrs.field("label").unwrap();
    let labels: Vec<i64> = (0..ctx.ds.len() as u32).map(|i| ctx.ds.attrs.int(field, i)).collect();

    let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };
    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };

    eprintln!("[{name}] building all indices...");
    let acorn_g = acorn_segment(&ctx.ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
    let acorn_1 = acorn_segment(&ctx.ds.vectors, acorn_params, AcornVariant::One);
    let postf = PostFilterHnsw::build(ctx.ds.vectors.clone(), hnsw_params);
    let oracle = OraclePartitionIndex::build_from_labels(&ctx.ds.vectors, &labels, hnsw_params);
    let fv = FilteredVamana::build(
        ctx.ds.vectors.clone(),
        labels.clone(),
        VamanaParams { r: 32, l: 64, alpha: 1.2, ..Default::default() },
    );
    let sv = StitchedVamana::build(
        ctx.ds.vectors.clone(),
        labels.clone(),
        StitchedParams { r_small: 16, l_small: 48, r_stitched: 32, ..Default::default() },
    );
    let w = distance_scale(&ctx.ds) * 2.0;
    let nhq = NhqIndex::build(
        ctx.ds.vectors.clone(),
        labels,
        NhqParams { m: 32, ef_construction: 64, weight: w, ..Default::default() },
    );
    let ivf = IvfFlat::build(ctx.ds.vectors.clone(), Metric::L2, 64, 8, 7);
    let ivf_sq8 = ivf.to_sq8();

    eprintln!("[{name}] sweeping...");
    let efs = efs_sweep();
    let nprobes = [1usize, 2, 4, 8, 16, 32];
    let sweeps = vec![
        ("ACORN-gamma", sweep_acorn(&acorn_g, &ctx, &efs)),
        ("ACORN-1", sweep_acorn(&acorn_1, &ctx, &efs)),
        ("HNSW post-filter", sweep_postfilter(&postf, &ctx, &efs)),
        ("pre-filter", sweep_prefilter(&ctx)),
        ("Oracle partition", sweep_oracle(&oracle, &ctx, &efs)),
        ("FilteredVamana", sweep_filtered_vamana(&fv, &ctx, &efs)),
        ("StitchedVamana", sweep_stitched(&sv, &ctx, &efs)),
        ("NHQ", sweep_nhq(&nhq, &ctx, &efs)),
        ("IVF-Flat", sweep_ivf(&ivf, &ctx, &nprobes)),
        ("IVF-SQ8", sweep_ivf_sq8(&ivf_sq8, &ctx, &nprobes)),
    ];

    let mut t = sweep_table(&format!("Figure 7: Recall@10 vs QPS — {name}"));
    for (m, pts) in &sweeps {
        table_rows(&mut t, m, pts);
    }
    print!("{}", t.render());

    println!("\nQPS at 0.9 recall ({name}):");
    for (m, pts) in &sweeps {
        match qps_at_recall(pts, 0.9) {
            Some(q) => println!("  {m:<18} {q:>10.0}"),
            None => println!("  {m:<18} {:>10}", "below 0.9"),
        }
    }
    println!();

    let path = results_dir().join(format!("fig7_{}.csv", name.replace('-', "_")));
    t.write_csv(&path).expect("write csv");
    println!("CSV: {}\n", path.display());
}

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(50);
    println!("Figure 7 (LCPS recall-QPS) — n = {n}, nq = {nq}\n");
    run_dataset(sift_like(n, 1), nq);
    run_dataset(paper_like(n, 2), nq);
}
