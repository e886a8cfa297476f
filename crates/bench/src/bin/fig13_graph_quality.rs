//! Figure 13 reproduction: predicate-subgraph quality vs the HNSW oracle
//! partition, on TripClick-like date predicates at the paper's five
//! selectivity percentiles.
//!
//! For one representative predicate per percentile, compares (a) strongly
//! connected components per level, (b) graph height, and (c) average
//! (filtered, truncated) out-degree between ACORN-γ's predicate subgraph
//! and an HNSW index built directly over the passing records.
//!
//! Paper's finding (§7.4.3): ACORN's predicate subgraphs match or exceed
//! the oracle's connectivity, emulate its controlled hierarchy, and keep
//! out-degrees close to (and bounded by) `M`.

use std::sync::Arc;

use acorn_bench::{bench_n, results_dir};
use acorn_core::{AcornIndex, AcornParams, AcornVariant};
use acorn_data::datasets::tripclick_like;
use acorn_data::workloads::date_range_workload;
use acorn_eval::graph_quality::predicate_subgraph_quality_with;
use acorn_eval::{predicate_subgraph_quality, Table};
use acorn_hnsw::{HnswIndex, HnswParams};
use acorn_predicate::{AllPass, BitmapFilter};

const SELECTIVITIES: [f64; 5] = [0.0127, 0.0485, 0.1215, 0.2529, 0.6164];

fn main() {
    let n = bench_n(6000);
    println!("Figure 13 (graph quality, TripClick-like dates) — n = {n}\n");

    let ds = tripclick_like(n, 1);
    let m = 32usize;
    let acorn_params =
        AcornParams { m, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };
    let hnsw_params = HnswParams { m, ef_construction: 40, ..Default::default() };

    eprintln!("building ACORN-gamma...");
    let acorn = AcornIndex::build(ds.vectors.clone(), acorn_params, AcornVariant::Gamma);
    let graph = acorn.graph().expect("a built index is growing");

    let mut t = Table::new(
        "Figure 13: predicate-subgraph quality (ACORN-gamma vs HNSW oracle partition)",
        &[
            "selectivity",
            "index",
            "height",
            "SCC per level (bottom..top)",
            "avg out-degree per level",
            "nodes per level",
        ],
    );

    for (pct, &s) in ["1p", "25p", "50p", "75p", "99p"].iter().zip(&SELECTIVITIES) {
        // One representative predicate at this percentile.
        let workload = date_range_workload(&ds, s, 1, 7);
        let q = &workload.queries[0];
        let filter = BitmapFilter::from_predicate(&ds.attrs, &q.predicate);
        let passing: Vec<u32> = filter.bits().to_ids();

        // (a,b,c) for ACORN's predicate subgraph under the search-time
        // lookup (filter + truncate, with level-0 two-hop recovery).
        let aq = predicate_subgraph_quality_with(graph, &filter, m, Some(64));
        t.row(vec![
            format!("{pct} ({:.4})", q.selectivity),
            "ACORN-gamma subgraph".into(),
            aq.height.to_string(),
            format!("{:?}", aq.scc_per_level),
            format!(
                "{:?}",
                aq.avg_out_degree_per_level
                    .iter()
                    .map(|d| (d * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            ),
            format!("{:?}", aq.nodes_per_level),
        ]);

        // Oracle partition: HNSW over exactly the passing records.
        eprintln!("[{pct}] building oracle partition over {} records...", passing.len());
        let sub = Arc::new(ds.vectors.subset(&passing));
        let oracle = HnswIndex::build(sub, hnsw_params);
        let oq = predicate_subgraph_quality(oracle.graph(), &AllPass, usize::MAX);
        t.row(vec![
            format!("{pct} ({:.4})", q.selectivity),
            "HNSW oracle partition".into(),
            oq.height.to_string(),
            format!("{:?}", oq.scc_per_level),
            format!(
                "{:?}",
                oq.avg_out_degree_per_level
                    .iter()
                    .map(|d| (d * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            ),
            format!("{:?}", oq.nodes_per_level),
        ]);
    }

    print!("{}", t.render());
    let path = results_dir().join("fig13_graph_quality.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
