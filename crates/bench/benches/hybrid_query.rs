//! Single-query hybrid-search latency: ACORN-γ vs ACORN-1 (each one sealed
//! segment, queried through the planner) vs the pre-/post-filter baselines
//! on one prebuilt SIFT-like index; then the planner's exact-scan route on
//! its own (`scan_route`): `hybrid_search` over one 8,000-row 32-d segment
//! and over four such segments, the predicate under `s_min` in each, at 1 %
//! and 10 % density. Each `scan_route` id names the rows it scores, so
//! time ÷ rows is the cost per scanned row. Last, the traversal route
//! (`traverse_route`): a pure search of one 4,000-row 512-d LAION-like
//! segment and a 20 %-selective hybrid search of one 8,000-row 32-d
//! correlated segment, both above `s_min`, so the time per iteration is the
//! µs per query of ACORN-γ's layer searches over a bitmap. Then
//! construction (`build`): `AcornIndex::build` of those two segments (each
//! id names its rows, so rows ÷ time is rows/s) and one insert into a
//! 1,000-row growing index.

use acorn_baselines::{PostFilterHnsw, PreFilter};
use acorn_bench::methods::acorn_segment;
use std::sync::Arc;

use acorn_core::{AcornIndex, AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_data::datasets::{laion_like, sift_like, HybridDataset};
use acorn_data::{correlated_dataset, CorrelatedSpec};
use acorn_hnsw::{HnswParams, Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, Predicate, PredicateFilter};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn bench_scan_route(c: &mut Criterion) {
    const ROWS: usize = 8_000;
    const DIM: usize = 32;
    const SEGMENTS: usize = 4;
    let mut rng = StdRng::seed_from_u64(42);
    // γ = 8 → s_min = 0.125: both densities take the scan route.
    let params =
        AcornParams { m: 16, gamma: 8, m_beta: 32, ef_construction: 64, ..Default::default() };
    let mut index = SegmentedAcornIndex::new(DIM, params.clone(), AcornVariant::Gamma);
    let mut one = SegmentedAcornIndex::new(DIM, params, AcornVariant::Gamma);
    for s in 0..SEGMENTS {
        let flat = (0..ROWS * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let store = VectorStore::from_flat(DIM, flat);
        if s == 0 {
            one.bulk_load(store.clone());
        }
        index.bulk_load(store);
    }
    let (snap, one) = (index.snapshot(), one.snapshot());
    let percent: Vec<i64> = (0..SEGMENTS * ROWS).map(|_| rng.gen_range(0i64..100)).collect();
    let attrs = AttrStore::builder().add_int("percent", percent.clone()).build();
    let field = attrs.field("percent").unwrap();
    let query: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut scratch = SearchScratch::new(ROWS);

    let mut group = c.benchmark_group("scan_route");
    for density in [1i64, 10] {
        let pred = Predicate::Between { field, lo: 0, hi: density - 1 };
        let rows = percent[..ROWS].iter().filter(|&&p| p < density).count();
        group.bench_function(format!("hybrid_search/1seg/{density}%/{rows}rows"), |b| {
            b.iter(|| one.hybrid_search(black_box(&query), &pred, &attrs, 10, 16, &mut scratch))
        });
        let rows = percent.iter().filter(|&&p| p < density).count();
        group.bench_function(format!("hybrid_search/{SEGMENTS}seg/{density}%/{rows}rows"), |b| {
            b.iter(|| snap.hybrid_search(black_box(&query), &pred, &attrs, 10, 16, &mut scratch))
        });
    }
    group.finish();
}

fn bench_traverse_route(c: &mut Criterion) {
    const QUERIES: usize = 64;
    // The repo benchmark's corpora and index parameters: `hcps-512d`'s
    // LAION stand-in at its 4,000-row segment size, and `bands-graph`'s
    // correlated 32-d rows at its 8,000. γ = 8 → s_min = 0.125, so the
    // pure search (every row live) and the 20 % predicate both traverse.
    let params =
        AcornParams { m: 16, gamma: 8, m_beta: 32, ef_construction: 64, ..Default::default() };
    let segment = |ds: &HybridDataset, rows: usize| {
        let mut index =
            SegmentedAcornIndex::new(ds.vectors.dim(), params.clone(), AcornVariant::Gamma);
        let flat = ds.vectors.as_flat()[..rows * ds.vectors.dim()].to_vec();
        index.bulk_load(VectorStore::from_flat(ds.vectors.dim(), flat));
        let queries: Vec<Vec<f32>> =
            (rows..rows + QUERIES).map(|q| ds.vectors.get(q as u32).to_vec()).collect();
        (index.snapshot(), queries)
    };
    let (wide, wide_queries) = segment(&laion_like(4_000 + QUERIES, 42), 4_000);
    let spec = CorrelatedSpec { n: 8_000 + QUERIES, dim: 32, seed: 42, ..Default::default() };
    let (narrow, narrow_queries) = segment(&correlated_dataset(&spec), 8_000);
    let percent: Vec<i64> = (0..8_000).map(|i| i % 100).collect();
    let attrs = AttrStore::builder().add_int("percent", percent).build();
    let field = attrs.field("percent").unwrap();
    let pred = Predicate::Between { field, lo: 0, hi: 19 };
    let mut scratch = SearchScratch::new(8_000);

    // Each iteration asks the next of `QUERIES` held-out rows.
    let mut group = c.benchmark_group("traverse_route");
    let mut next = 0;
    group.bench_function("pure/512d/1seg/efs64", |b| {
        b.iter(|| {
            next = (next + 1) % QUERIES;
            let mut stats = SearchStats::default();
            wide.search_with(black_box(&wide_queries[next]), 10, 64, &mut scratch, &mut stats)
        })
    });
    group.bench_function("hybrid/32d/20%/1seg/efs64", |b| {
        b.iter(|| {
            next = (next + 1) % QUERIES;
            let query = black_box(&narrow_queries[next]);
            narrow.hybrid_search(query, &pred, &attrs, 10, 64, &mut scratch)
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    const HELD_OUT: usize = 64;
    // The repo benchmark's index parameters and segment shapes:
    // `bands-graph`'s correlated 32-d rows at 8,000 and `hcps-512d`'s LAION
    // stand-in at 4,000.
    let params = AcornParams {
        m: 16,
        gamma: 8,
        m_beta: 32,
        ef_construction: 64,
        seed: 42,
        ..Default::default()
    };
    let spec = CorrelatedSpec { n: 8_000 + HELD_OUT, dim: 32, seed: 42, ..Default::default() };
    let narrow = correlated_dataset(&spec).vectors;
    let wide = laion_like(4_000, 42).vectors;
    let rows = |vecs: &VectorStore, n: usize| {
        Arc::new(VectorStore::from_flat(vecs.dim(), vecs.as_flat()[..n * vecs.dim()].to_vec()))
    };

    let mut group = c.benchmark_group("build");
    for (name, vecs) in [("32d", rows(&narrow, 8_000)), ("512d", wide)] {
        group.bench_function(format!("acorn_gamma/{name}/{}rows", vecs.len()), |b| {
            b.iter(|| AcornIndex::build(vecs.clone(), params.clone(), AcornVariant::Gamma))
        });
    }
    // Each iteration inserts the next of `HELD_OUT` rows into its own
    // clone of a 1,000-row growing index: an active segment's graph work,
    // without publication. A clone shares every row and node, so the time
    // includes copying each node the insert rewires, as the writer's first
    // insert after a publication does, and growing the clone's empty scratch.
    let active = AcornIndex::build(rows(&narrow, 1_000), params, AcornVariant::Gamma);
    let held_out: Vec<&[f32]> = (8_000..8_000 + HELD_OUT as u32).map(|r| narrow.get(r)).collect();
    let mut next = 0;
    group.bench_function("insert/32d/1000rows", |b| {
        b.iter_batched(
            || active.clone(),
            |mut index| {
                next = (next + 1) % HELD_OUT;
                index.insert_vector(held_out[next]);
                index
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_hybrid, bench_scan_route, bench_traverse_route, bench_build);
criterion_main!(benches);
