//! Quickstart: build an ACORN-γ index over a small hybrid dataset, run
//! hybrid queries (vector similarity + structured predicate), serve a batch,
//! and save it. The index is the writer; every read — a query, a batch, a
//! save — is asked of a pinned snapshot or a reader handle.
//!
//! Run with: `cargo run --release --example quickstart`

use acorn::prelude::*;

/// The dataset's vectors as one bulk-loaded segment: row `i` gets global id
/// `i`, and the index keeps accepting inserts and deletes afterwards.
fn build(vectors: &VectorStore, params: AcornParams, variant: AcornVariant) -> SegmentedAcornIndex {
    let mut index = SegmentedAcornIndex::new(vectors.dim(), params, variant);
    index.bulk_load(vectors.clone());
    index
}

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
    let acorn_gamma = build(&dataset.vectors, params.clone(), AcornVariant::Gamma);
    println!("ACORN-gamma built in {:.1?}", t0.elapsed());

    let t0 = std::time::Instant::now();
    let acorn_one = build(&dataset.vectors, params, AcornVariant::One);
    println!("ACORN-1     built in {:.1?} (the low-TTI variant)", t0.elapsed());

    // 3. A hybrid query: "nearest neighbors of this vector whose label is 7".
    let field = dataset.attrs.field("label").unwrap();
    let predicate = Predicate::Equals { field, value: 7 };
    let query = dataset.vectors.get(123).to_vec();

    let mut scratch = SearchScratch::new(dataset.len());
    for (name, index) in [("ACORN-gamma", &acorn_gamma), ("ACORN-1", &acorn_one)] {
        let snap = index.snapshot(); // pin the current epoch
        let (hits, stats) =
            snap.hybrid_search(&query, &predicate, &dataset.attrs, 10, 64, &mut scratch);
        println!(
            "\n{name}: top-10 with label == 7 (ndis = {}, fallback = {}):",
            stats.ndis, stats.fallback
        );
        for h in &hits {
            let label = dataset.attrs.int(field, h.id as u32);
            println!("  id {:>5}  dist {:.3}  label {label}", h.id, h.dist);
            assert_eq!(label, 7, "results must pass the predicate");
        }
    }

    // 4. Highly selective predicates are routed to the exact pre-filter
    //    fallback automatically (the §5.2 cost model): label == 7 AND an
    //    impossible range never returns wrong results, just uses a scan.
    let selective = Predicate::And(vec![
        Predicate::Equals { field, value: 7 },
        Predicate::Between { field, lo: 7, hi: 7 },
    ]);
    let gamma = acorn_gamma.snapshot();
    let (_, stats) = gamma.hybrid_search(&query, &selective, &dataset.attrs, 10, 64, &mut scratch);
    println!("\ncompound predicate routed via fallback = {}", stats.fallback);

    // 5. Serving at scale: the SegmentedQueryEngine shards a query batch
    //    across worker threads, reusing pooled scratch space, with output
    //    order (and results) identical to a sequential loop.
    let queries: Vec<Vec<f32>> = (0..64u32).map(|i| dataset.vectors.get(i * 7).to_vec()).collect();
    let batch: Vec<(&[f32], &Predicate)> =
        queries.iter().map(|q| (q.as_slice(), &predicate)).collect();
    let engine = SegmentedQueryEngine::for_reader(acorn_gamma.reader()).with_threads(0); // 0 = all cores
    let out = engine.hybrid_search_batch(&batch, &dataset.attrs, 10, 64);
    println!(
        "\nbatch of {} hybrid queries: {:.0} QPS, {} total distance computations, {:.1?} wall",
        batch.len(),
        out.qps,
        out.stats.ndis,
        out.elapsed
    );
    assert_eq!(out.results.len(), batch.len());

    // 6. Save and load: one checksummed file holds the snapshot's graph,
    //    vectors and tombstones; the loaded index answers identically and
    //    takes writes.
    let mut file = Vec::new();
    gamma.save(&mut file).expect("writing to memory cannot fail");
    let loaded = SegmentedAcornIndex::load(&mut file.as_slice()).expect("just written");
    assert_eq!(loaded.reader().search(&query, 10, 64), acorn_gamma.reader().search(&query, 10, 64));
    println!("\nsaved {} bytes and loaded them back", file.len());
}
