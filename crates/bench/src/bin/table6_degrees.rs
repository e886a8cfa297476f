//! Table 6 reproduction: ACORN-γ average out-degree per level.
//!
//! Paper's finding (§7.4.2): level 0 (compressed) stays near `M_β + O(M)`
//! while uncompressed upper levels approach the full `M·γ` budget,
//! confirming the compression targets exactly the level that dominates the
//! footprint.

use acorn_bench::{bench_n, results_dir};
use acorn_core::{AcornIndex, AcornParams, AcornVariant};
use acorn_data::datasets::{laion_like, paper_like, sift_like, tripclick_like, HybridDataset};
use acorn_eval::Table;

fn run(ds: &HybridDataset, params: AcornParams, t: &mut Table) {
    eprintln!("[{}] building ACORN-gamma...", ds.name);
    let idx = AcornIndex::build(ds.vectors.clone(), params.clone(), AcornVariant::Gamma);
    let stats = idx.graph().expect("a built index is growing").level_stats();
    for s in &stats {
        t.row(vec![
            ds.name.clone(),
            if s.level == 0 { "0 (compressed)".into() } else { s.level.to_string() },
            s.nodes.to_string(),
            format!("{:.1}", s.avg_out_degree),
            s.max_out_degree.to_string(),
        ]);
    }
    t.row(vec![
        ds.name.clone(),
        "M*gamma".into(),
        "-".into(),
        params.edge_budget().to_string(),
        "-".into(),
    ]);
    t.row(vec![
        ds.name.clone(),
        "M_beta".into(),
        "-".into(),
        params.m_beta.to_string(),
        "-".into(),
    ]);
}

fn main() {
    let n = bench_n(8000);
    println!("Table 6 (ACORN-gamma average out-degree per level) — n = {n}\n");
    let mut t = Table::new(
        "Table 6: ACORN-gamma Average Out Degree",
        &["dataset", "level", "#nodes", "avg out-degree", "max out-degree"],
    );
    let p = |m_beta: usize| AcornParams {
        m: 32,
        gamma: 12,
        m_beta,
        ef_construction: 40,
        ..Default::default()
    };
    run(&sift_like(n, 1), p(32), &mut t);
    run(&paper_like(n, 2), p(32), &mut t);
    run(&tripclick_like(n, 3), p(64), &mut t);
    run(&laion_like(n, 4), p(16), &mut t);
    print!("{}", t.render());
    let path = results_dir().join("table6_degrees.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
