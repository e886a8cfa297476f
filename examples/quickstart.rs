//! Quickstart: build an ACORN-γ index over a small hybrid dataset and run
//! hybrid queries (vector similarity + structured predicate).
//!
//! Run with: `cargo run --release --example quickstart`

use acorn::prelude::*;

fn main() {
    // 1. A hybrid dataset: 5,000 SIFT-like vectors, each with an integer
    //    label in 1..=12 (the paper's SIFT1M attribute scheme).
    let dataset = acorn::data::datasets::sift_like(5000, 42);
    println!("dataset: {}", dataset.summary());

    // 2. Build the two ACORN variants. Construction is predicate-agnostic:
    //    the index never sees a query predicate.
    let params = AcornParams {
        m: 32,               // degree bound during search
        gamma: 12,           // neighbor expansion (serves selectivity >= 1/12)
        m_beta: 64,          // level-0 compression parameter
        ef_construction: 40, // construction beam width
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let acorn_gamma =
        AcornIndex::build(dataset.vectors.clone(), params.clone(), AcornVariant::Gamma);
    println!("ACORN-gamma built in {:.1?}", t0.elapsed());

    let t0 = std::time::Instant::now();
    let acorn_one = AcornIndex::build(dataset.vectors.clone(), params, AcornVariant::One);
    println!("ACORN-1     built in {:.1?} (the low-TTI variant)", t0.elapsed());

    // 3. A hybrid query: "nearest neighbors of this vector whose label is 7".
    let field = dataset.attrs.field("label").unwrap();
    let predicate = Predicate::Equals { field, value: 7 };
    let query = dataset.vectors.get(123).to_vec();

    let mut scratch = SearchScratch::new(dataset.len());
    for (name, index) in [("ACORN-gamma", &acorn_gamma), ("ACORN-1", &acorn_one)] {
        let (hits, stats) =
            index.hybrid_search(&query, &predicate, &dataset.attrs, 10, 64, &mut scratch);
        println!(
            "\n{name}: top-10 with label == 7 (ndis = {}, fallback = {}):",
            stats.ndis, stats.fallback
        );
        for h in &hits {
            println!(
                "  id {:>5}  dist {:.3}  label {}",
                h.id,
                h.dist,
                dataset.attrs.int(field, h.id)
            );
            assert_eq!(dataset.attrs.int(field, h.id), 7, "results must pass the predicate");
        }
    }

    // 4. Highly selective predicates are routed to the exact pre-filter
    //    fallback automatically (the §5.2 cost model): label == 7 AND an
    //    impossible range never returns wrong results, just uses a scan.
    let selective = Predicate::And(vec![
        Predicate::Equals { field, value: 7 },
        Predicate::Between { field, lo: 7, hi: 7 },
    ]);
    let (_, stats) =
        acorn_gamma.hybrid_search(&query, &selective, &dataset.attrs, 10, 64, &mut scratch);
    println!("\ncompound predicate routed via fallback = {}", stats.fallback);

    // 5. Serving at scale: bulk-load the corpus as one frozen segment of an
    //    updatable index (row i gets global id i; it keeps accepting inserts
    //    and deletes), then let the SegmentedQueryEngine shard a query batch
    //    across worker threads, reusing pooled scratch space, with output
    //    order (and results) identical to a sequential loop.
    let mut serving = SegmentedAcornIndex::new(
        dataset.vectors.dim(),
        acorn_gamma.params().clone(),
        AcornVariant::Gamma,
    );
    serving.bulk_load((*dataset.vectors).clone());
    let queries: Vec<Vec<f32>> = (0..64u32).map(|i| dataset.vectors.get(i * 7).to_vec()).collect();
    let batch: Vec<(&[f32], &Predicate)> =
        queries.iter().map(|q| (q.as_slice(), &predicate)).collect();
    let engine = SegmentedQueryEngine::new(&serving).with_threads(0); // 0 = all cores
    let out = engine.hybrid_search_batch(&batch, &dataset.attrs, 10, 64);
    println!(
        "\nbatch of {} hybrid queries: {:.0} QPS, {} total distance computations, {:.1?} wall",
        batch.len(),
        out.qps,
        out.stats.ndis,
        out.elapsed
    );
    assert_eq!(out.results.len(), batch.len());
}
