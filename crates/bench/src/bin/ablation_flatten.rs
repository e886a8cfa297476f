//! Ablation (§8 related-work claim): Qdrant's densification flattens the
//! HNSW hierarchy by tying `mL` to the enlarged degree, which Malkov et al.
//! show degrades search. ACORN densifies while *keeping* `mL = 1/ln(M)`.
//!
//! This binary builds ACORN-γ twice — once normally, once with the
//! flattened level sampler — and compares hierarchy height and the hybrid
//! recall-QPS curve on the SIFT-like equality workload.

use acorn_bench::methods::{sweep_acorn_graph_only, sweep_table, table_rows, BenchCtx};
use acorn_bench::{bench_n, bench_nq, bench_threads, efs_sweep, results_dir};
use acorn_core::{AcornIndex, AcornParams, AcornVariant};
use acorn_data::datasets::sift_like;
use acorn_data::workloads::equality_workload;
use acorn_eval::sweep::qps_at_recall;

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(30);
    println!("Ablation: hierarchy preservation vs Qdrant-style flattening — n = {n}, nq = {nq}\n");

    let ds = sift_like(n, 1);
    let workload = equality_workload(&ds, nq, 2);
    let ctx = BenchCtx::new(ds, workload, 10, bench_threads());

    let base =
        AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };

    eprintln!("building ACORN-gamma (mL = 1/ln M)...");
    let normal = AcornIndex::build(ctx.ds.vectors.clone(), base.clone(), AcornVariant::Gamma);
    eprintln!("building flattened variant (mL = 1/ln(M*gamma))...");
    let flat = AcornIndex::build(
        ctx.ds.vectors.clone(),
        AcornParams { flatten_hierarchy: true, ..base },
        AcornVariant::Gamma,
    );

    let height = |idx: &AcornIndex| idx.graph().expect("a built index is growing").max_level() + 1;
    println!(
        "graph height: ACORN = {} levels, flattened = {} levels\n",
        height(&normal),
        height(&flat)
    );
    // Swept in the layout a frozen segment serves: sealed CSR.
    let (normal, flat) = (normal.seal(None), flat.seal(None));

    let efs = efs_sweep();
    let sweeps = vec![
        ("ACORN-gamma (mL=1/lnM)", sweep_acorn_graph_only(&normal, &ctx, &efs)),
        ("flattened (mL=1/ln(M*g))", sweep_acorn_graph_only(&flat, &ctx, &efs)),
    ];
    let mut t = sweep_table("Ablation: hierarchy vs flattening (SIFT-like equality)");
    for (m, pts) in &sweeps {
        table_rows(&mut t, m, pts);
    }
    print!("{}", t.render());

    println!("\nQPS at 0.9 recall:");
    for (m, pts) in &sweeps {
        match qps_at_recall(pts, 0.9) {
            Some(q) => println!("  {m:<26} {q:>10.0}"),
            None => println!("  {m:<26} {:>10}", "below 0.9"),
        }
    }
    let path = results_dir().join("ablation_flatten.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
