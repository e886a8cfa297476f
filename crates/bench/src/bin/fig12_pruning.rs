//! Figure 12 reproduction: the pruning ablation on the SIFT-like dataset.
//!
//! Compares, at level 0: (i) ACORN's predicate-agnostic compression at
//! several `M_β` values (smaller = more aggressive), (ii) the
//! metadata-aware RNG pruning (FilteredDiskANN's approach, needs labels),
//! and (iii) HNSW's metadata-blind RNG pruning. Reports TTI (a), space
//! footprint via average level-0 out-degree (b), candidate edges pruned
//! (c), and hybrid search performance (d).
//!
//! Paper's finding (§7.4.2): ACORN's pruning cuts TTI and space while
//! *keeping* search performance; metadata-blind pruning destroys hybrid
//! recall; metadata-aware pruning matches search quality but is less
//! efficient at small `M_β`.

use acorn_bench::methods::{sweep_acorn_graph_only, BenchCtx};
use acorn_bench::{bench_n, bench_nq, bench_threads, results_dir};
use acorn_core::{AcornIndex, AcornParams, AcornVariant, PruneStrategy};
use acorn_data::datasets::sift_like;
use acorn_data::workloads::equality_workload;
use acorn_eval::{measure, Table};

fn main() {
    let n = bench_n(10_000);
    let nq = bench_nq(30);
    let threads = bench_threads();
    println!("Figure 12 (pruning ablation, SIFT-like) — n = {n}, nq = {nq}\n");

    let ds = sift_like(n, 1);
    let workload = equality_workload(&ds, nq, 2);
    let ctx = BenchCtx::new(ds, workload, 10, threads);
    let field = ctx.ds.attrs.field("label").unwrap();
    let labels: Vec<i64> = (0..ctx.ds.len() as u32).map(|i| ctx.ds.attrs.int(field, i)).collect();

    let m = 32usize;
    let gamma = 12usize;
    let budget = m * gamma;
    let base = AcornParams { m, gamma, m_beta: 32, ef_construction: 40, ..Default::default() };

    // Ablation grid: ACORN compression at several M_β, then the two RNG
    // strategies (paper plots them at a fixed target degree).
    let mut variants: Vec<(String, AcornParams)> = Vec::new();
    for m_beta in [16usize, 32, 64, 128, 256] {
        variants.push((
            format!("ACORN Mb={m_beta}"),
            AcornParams { m_beta, prune: PruneStrategy::AcornCompress, ..base.clone() },
        ));
    }
    variants.push((
        format!("ACORN Mb={budget} (no prune)"),
        AcornParams { m_beta: budget, prune: PruneStrategy::KeepAll, ..base.clone() },
    ));
    variants.push((
        "RNG metadata-aware".to_string(),
        AcornParams { m_beta: 32, prune: PruneStrategy::RngMetadataAware, ..base.clone() },
    ));
    variants.push((
        "RNG metadata-blind (HNSW)".to_string(),
        AcornParams { m_beta: 32, prune: PruneStrategy::RngBlind, ..base.clone() },
    ));

    let mut t = Table::new(
        "Figure 12: Pruning strategies (a: TTI, b: space, c: edges pruned, d: search perf)",
        &["strategy", "TTI (s)", "lvl0 avg deg", "edges pruned", "recall@efs=64", "QPS@efs=64"],
    );

    let fixed_efs = [64usize];
    for (label, params) in variants {
        eprintln!("[{label}] building...");
        let (idx, tti) = measure(|| {
            AcornIndex::build_with_labels(
                ctx.ds.vectors.clone(),
                params,
                AcornVariant::Gamma,
                labels.clone(),
            )
        });
        let lvl0 = idx.graph().expect("a built index is growing").level_stats()[0].avg_out_degree;
        let pruned = idx.edges_pruned();
        // Swept in the layout a frozen segment serves: sealed CSR.
        let pts = sweep_acorn_graph_only(&idx.seal(None), &ctx, &fixed_efs);
        t.row(vec![
            label,
            format!("{:.1}", tti.as_secs_f64()),
            format!("{lvl0:.1}"),
            pruned.to_string(),
            format!("{:.4}", pts[0].recall),
            format!("{:.0}", pts[0].qps),
        ]);
    }

    print!("{}", t.render());
    let path = results_dir().join("fig12_pruning.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
