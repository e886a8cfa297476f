//! Single-query hybrid-search latency: ACORN-γ vs ACORN-1 (each one sealed
//! segment, queried through the planner) vs the pre-/post-filter baselines
//! on one prebuilt SIFT-like index.

use acorn_baselines::{PostFilterHnsw, PreFilter};
use acorn_bench::methods::acorn_segment;
use acorn_core::{AcornParams, AcornVariant};
use acorn_data::datasets::sift_like;
use acorn_hnsw::{HnswParams, Metric, SearchScratch, SearchStats};
use acorn_predicate::{Predicate, PredicateFilter};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_hybrid(c: &mut Criterion) {
    let n = 4000;
    let ds = sift_like(n, 1);
    let field = ds.attrs.field("label").unwrap();
    let pred = Predicate::Equals { field, value: 5 };
    let query = ds.vectors.get(99).to_vec();

    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };
    let acorn_g = acorn_segment(&ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
    let acorn_1 = acorn_segment(&ds.vectors, acorn_params, AcornVariant::One);
    let post = PostFilterHnsw::build(
        ds.vectors.clone(),
        HnswParams { m: 32, ef_construction: 40, ..Default::default() },
    );
    let pre = PreFilter::new(ds.vectors.clone(), Metric::L2);

    let mut scratch = SearchScratch::new(n);
    let mut group = c.benchmark_group("hybrid_query");
    group.bench_function("acorn_gamma/efs64", |b| {
        b.iter(|| acorn_g.hybrid_search(black_box(&query), &pred, &ds.attrs, 10, 64, &mut scratch))
    });
    group.bench_function("acorn_one/efs64", |b| {
        b.iter(|| acorn_1.hybrid_search(black_box(&query), &pred, &ds.attrs, 10, 64, &mut scratch))
    });
    group.bench_function("postfilter/efs64", |b| {
        b.iter(|| {
            let filter = PredicateFilter::new(&ds.attrs, &pred);
            let mut stats = SearchStats::default();
            post.search(black_box(&query), &filter, 10, 64, 1.0 / 12.0, &mut scratch, &mut stats)
        })
    });
    group.bench_function("prefilter/scan", |b| {
        b.iter(|| {
            let filter = PredicateFilter::new(&ds.attrs, &pred);
            let mut stats = SearchStats::default();
            pre.search(black_box(&query), &filter, 10, &mut stats)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hybrid);
criterion_main!(benches);
