//! Literature review over a TripClick-like corpus (the paper's §1 example):
//! natural-language search over passage embeddings with filters on clinical
//! areas and publication dates — and a comparison of ACORN against
//! pre-/post-filtering on the same queries.
//!
//! Run with: `cargo run --release --example literature_review`

use acorn::baselines::{PostFilterHnsw, PreFilter};
use acorn::data::datasets::TRIPCLICK_AREAS;
use acorn::prelude::*;

/// Human-readable clinical area names for the demo.
fn area_name(i: u8) -> String {
    const NAMES: [&str; 8] = [
        "cardiology",
        "infectious disease",
        "surgery",
        "oncology",
        "neurology",
        "pediatrics",
        "radiology",
        "psychiatry",
    ];
    if (i as usize) < NAMES.len() {
        NAMES[i as usize].to_string()
    } else {
        format!("area-{i}")
    }
}

fn main() {
    let n = 5000;
    let ds = acorn::data::datasets::tripclick_like(n, 11);
    println!("corpus: {}\n", ds.summary());

    // The corpus as one bulk-loaded segment: paper i gets global id i.
    let params =
        AcornParams { m: 32, gamma: 12, m_beta: 128, ef_construction: 40, ..Default::default() };
    let mut index = SegmentedAcornIndex::new(ds.vectors.dim(), params, AcornVariant::Gamma);
    index.bulk_load(VectorStore::clone(&ds.vectors));
    let hnsw = PostFilterHnsw::build(
        ds.vectors.clone(),
        HnswParams { m: 32, ef_construction: 40, ..Default::default() },
    );
    let scan = PreFilter::new(ds.vectors.clone(), Metric::L2);

    let areas = ds.attrs.field("areas").unwrap();
    let year = ds.attrs.field("year").unwrap();

    // "Recent cardiology or infectious-disease papers similar to this one."
    let query_doc = 777u32;
    let query = ds.vectors.get(query_doc).to_vec();
    let predicate = Predicate::And(vec![
        Predicate::ContainsAny { field: areas, mask: 0b11 },
        Predicate::Between { field: year, lo: 2010, hi: 2020 },
    ]);
    let selectivity = acorn::predicate::exact_selectivity(&ds.attrs, &predicate);
    println!(
        "query: papers like #{query_doc}, areas ∈ {{{}, {}}}, year 2010-2020 (selectivity {selectivity:.3})\n",
        area_name(0),
        area_name(1)
    );

    let mut scratch = SearchScratch::new(n);

    // ACORN: the query is asked of a pinned snapshot of the index.
    let (hits, stats) =
        index.snapshot().hybrid_search(&query, &predicate, &ds.attrs, 5, 64, &mut scratch);
    println!("ACORN-gamma ({} distance computations):", stats.ndis);
    for h in &hits {
        let row = h.id as u32;
        let mask = ds.attrs.keywords(areas, row);
        let names: Vec<String> =
            (0..TRIPCLICK_AREAS as u8).filter(|&a| mask & (1 << a) != 0).map(area_name).collect();
        println!(
            "  #{:<5} {}  [{}]  dist {:.3}",
            h.id,
            ds.attrs.int(year, row),
            names.join(", "),
            h.dist
        );
        assert!(predicate.eval(&ds.attrs, row));
    }

    // Post-filtering baseline on the same query.
    let filter = PredicateFilter::new(&ds.attrs, &predicate);
    let mut stats = SearchStats::default();
    let post = hnsw.search(&query, &filter, 5, 64, selectivity, &mut scratch, &mut stats);
    println!("\nHNSW post-filter found {} of 5 ({} distance computations)", post.len(), stats.ndis);

    // Pre-filtering (exact but scans every passing document).
    let mut stats = SearchStats::default();
    let pre = scan.search(&query, &filter, 5, &mut stats);
    println!(
        "pre-filter scan found {} of 5 ({} distance computations — exact)",
        pre.len(),
        stats.ndis
    );

    // All three agree on the predicate; ACORN gets there with the fewest
    // distance computations at high recall (the paper's core claim).
    let acorn_ids: Vec<u32> = hits.iter().map(|h| h.id as u32).collect();
    let exact_ids: Vec<u32> = pre.iter().map(|h| h.id).collect();
    let overlap = exact_ids.iter().filter(|i| acorn_ids.contains(i)).count();
    println!("\nACORN recall vs exact on this query: {overlap}/5");
}
