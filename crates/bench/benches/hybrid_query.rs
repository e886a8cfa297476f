//! Single-query hybrid-search latency: ACORN-γ vs ACORN-1 (each one sealed
//! segment, queried through the planner) vs the pre-/post-filter baselines
//! on one prebuilt SIFT-like index; then the planner's exact-scan route on
//! its own (`scan_route`): `hybrid_search` over one 8,000-row 32-d segment
//! and over four such segments, the predicate under `s_min` in each, at 1 %
//! and 10 % density. Each `scan_route` id names the rows it scores, so
//! time ÷ rows is the cost per scanned row. Next, the traversal route
//! (`traverse_route`): a pure search of one 4,000-row 512-d LAION-like
//! segment, and a traversal of one 8,000-row 32-d correlated segment over
//! the bitmap of a 20 % predicate, so the time per iteration is the µs per
//! query of ACORN-γ's layer searches over a bitmap. The planner itself
//! scans that 20 % segment at efs 64 (its scan costs less), so the second
//! row calls the segment's graph directly. Then the dense shape where a
//! traversal revisits most of what it admits: `reproduce fig9`'s 99th
//! percentile band, a 10,000-row 768-d TripClick-like segment at the
//! paper's M = 32, γ = 12 with ~68 % of its rows passing a date range,
//! traversed at efs 160 and scanned (`prefilter_scan`) over the same
//! bitmaps. With `scan_route` these rows anchor the work constants of
//! `Route::choose` (`core/src/plan.rs`).
//! Last, construction (`build`): `AcornIndex::build` of those two segments (each
//! id names its rows, so rows ÷ time is rows/s); the build and seal of one
//! pending segment's 1,024 rows (`seal_build`), the graph work a segmented
//! index does once per sealed segment, off the writer's path; and single
//! inserts at ~250 and ~1,000 rows — into a growing graph (`insert_vector`,
//! the graph work an insert no longer does) and into a segmented index's
//! active segment (`segment_insert`: an append plus a publication).
//!
//! A name filter runs only the rows whose id contains it
//! (`cargo bench --bench hybrid_query build`); each group builds its
//! indices the first time one of its rows runs, so the groups a filter
//! skips build nothing.

use acorn_baselines::{PostFilterHnsw, PreFilter};
use acorn_bench::methods::acorn_segment;
use std::cell::RefCell;
use std::sync::Arc;

use acorn_core::{AcornIndex, AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_data::datasets::{laion_like, sift_like, tripclick_like, HybridDataset};
use acorn_data::workloads::date_range_workload;
use acorn_data::{correlated_dataset, CorrelatedSpec};
use acorn_hnsw::{HnswParams, Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, Predicate, PredicateFilter};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Bencher, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_hybrid(c: &mut Criterion) {
    let n = 4000;
    let ds = sift_like(n, 1);
    let field = ds.attrs.field("label").unwrap();
    let pred = Predicate::Equals { field, value: 5 };
    let query = ds.vectors.get(99).to_vec();
    let indices = || {
        let acorn_params =
            AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };
        let acorn_g = acorn_segment(&ds.vectors, acorn_params.clone(), AcornVariant::Gamma);
        let acorn_1 = acorn_segment(&ds.vectors, acorn_params, AcornVariant::One);
        let post = PostFilterHnsw::build(
            ds.vectors.clone(),
            HnswParams { m: 32, ef_construction: 40, ..Default::default() },
        );
        (acorn_g, acorn_1, post)
    };
    let mut built = None;
    let pre = PreFilter::new(ds.vectors.clone(), Metric::L2);

    let mut scratch = SearchScratch::new(n);
    let mut group = c.benchmark_group("hybrid_query");
    group.bench_function("acorn_gamma/efs64", |b| {
        let (acorn_g, _, _) = built.get_or_insert_with(indices);
        b.iter(|| acorn_g.hybrid_search(black_box(&query), &pred, &ds.attrs, 10, 64, &mut scratch))
    });
    group.bench_function("acorn_one/efs64", |b| {
        let (_, acorn_1, _) = built.get_or_insert_with(indices);
        b.iter(|| acorn_1.hybrid_search(black_box(&query), &pred, &ds.attrs, 10, 64, &mut scratch))
    });
    group.bench_function("postfilter/efs64", |b| {
        let (_, _, post) = built.get_or_insert_with(indices);
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
    let stores: Vec<VectorStore> = (0..SEGMENTS)
        .map(|_| {
            let flat = (0..ROWS * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            VectorStore::from_flat(DIM, flat)
        })
        .collect();
    let indices = || {
        let mut index = SegmentedAcornIndex::new(DIM, params.clone(), AcornVariant::Gamma);
        let mut one = SegmentedAcornIndex::new(DIM, params.clone(), AcornVariant::Gamma);
        one.bulk_load(stores[0].clone());
        for store in &stores {
            index.bulk_load(store.clone());
        }
        (index.snapshot(), one.snapshot())
    };
    let mut built = None;
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
            let (_, one) = built.get_or_insert_with(indices);
            b.iter(|| one.hybrid_search(black_box(&query), &pred, &attrs, 10, 16, &mut scratch))
        });
        let rows = percent.iter().filter(|&&p| p < density).count();
        group.bench_function(format!("hybrid_search/{SEGMENTS}seg/{density}%/{rows}rows"), |b| {
            let (snap, _) = built.get_or_insert_with(indices);
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
    // pure search (every row live) and the 20 % bitmap are both above the
    // floor; the pure search traverses through the planner, the bitmap is
    // handed to the segment's graph.
    let params =
        AcornParams { m: 16, gamma: 8, m_beta: 32, ef_construction: 64, ..Default::default() };
    let segment = |ds: &HybridDataset, rows: usize| {
        let mut index =
            SegmentedAcornIndex::new(ds.vectors.dim(), params.clone(), AcornVariant::Gamma);
        let flat = ds.vectors.as_flat()[..rows * ds.vectors.dim()].to_vec();
        index.bulk_load(VectorStore::from_flat(ds.vectors.dim(), flat));
        index.snapshot()
    };
    let held_out = |ds: &HybridDataset, rows: usize| -> Vec<Vec<f32>> {
        (rows..rows + QUERIES).map(|q| ds.vectors.get(q as u32).to_vec()).collect()
    };
    let wide_ds = laion_like(4_000 + QUERIES, 42);
    let spec = CorrelatedSpec { n: 8_000 + QUERIES, dim: 32, seed: 42, ..Default::default() };
    let narrow_ds = correlated_dataset(&spec);
    let (wide_queries, narrow_queries) = (held_out(&wide_ds, 4_000), held_out(&narrow_ds, 8_000));
    let (mut wide, mut narrow) = (None, None);
    let bitmap = BitmapFilter::new(Bitset::from_ids(8_000, (0..8_000).filter(|i| i % 100 < 20)));
    let mut scratch = SearchScratch::new(8_000);

    // Each iteration asks the next of `QUERIES` held-out rows.
    let mut group = c.benchmark_group("traverse_route");
    let mut next = 0;
    group.bench_function("pure/512d/1seg/efs64", |b| {
        let wide = wide.get_or_insert_with(|| segment(&wide_ds, 4_000));
        b.iter(|| {
            next = (next + 1) % QUERIES;
            let mut stats = SearchStats::default();
            wide.search_with(black_box(&wide_queries[next]), 10, 64, &mut scratch, &mut stats)
        })
    });
    group.bench_function("bitmap/32d/20%/1seg/efs64", |b| {
        let narrow = narrow.get_or_insert_with(|| segment(&narrow_ds, 8_000));
        let graph = narrow.frozen_segments()[0].index();
        b.iter(|| {
            next = (next + 1) % QUERIES;
            let query = black_box(&narrow_queries[next]);
            let mut stats = SearchStats::default();
            graph.search_filtered(query, &bitmap, 10, 64, &mut scratch, &mut stats)
        })
    });

    // `reproduce fig9`'s corpus, ACORN-γ parameters and 99th-percentile
    // date ranges, one bitmap per query.
    let dense = || {
        let ds = tripclick_like(10_000, 1);
        let params = AcornParams { m_beta: 128, ..Default::default() };
        let graph = AcornIndex::build(ds.vectors.clone(), params, AcornVariant::Gamma);
        let queries: Vec<(Vec<f32>, BitmapFilter)> = date_range_workload(&ds, 0.6164, QUERIES, 7)
            .queries
            .into_iter()
            .map(|q| (q.vector, BitmapFilter::new(q.predicate.to_bitset(&ds.attrs))))
            .collect();
        (graph.seal(), queries)
    };
    let mut dense_built = None;
    let mut dense_scratch = SearchScratch::new(10_000);
    group.bench_function("bitmap/768d/68%/1seg/efs160", |b| {
        let (graph, queries) = dense_built.get_or_insert_with(dense);
        b.iter(|| {
            next = (next + 1) % QUERIES;
            let (query, bitmap) = &queries[next];
            let mut stats = SearchStats::default();
            graph.search_filtered(black_box(query), bitmap, 10, 160, &mut dense_scratch, &mut stats)
        })
    });
    group.bench_function("scan/768d/68%/1seg", |b| {
        let (graph, queries) = dense_built.get_or_insert_with(dense);
        b.iter(|| {
            next = (next + 1) % QUERIES;
            let (query, bitmap) = &queries[next];
            let mut stats = SearchStats::default();
            graph.prefilter_scan(black_box(query), bitmap, 10, &mut stats)
        })
    });
    group.finish();
}

/// Rows held out of every growing index below and inserted one per
/// iteration, in rotation.
const HELD_OUT: usize = 64;

/// Time `insert` of the next held-out row into the index `fresh` builds,
/// built again (untimed) every `HELD_OUT` inserts so it stays within
/// `HELD_OUT` rows of its starting size.
fn rolling<I>(
    b: &mut Bencher,
    held_out: &[&[f32]],
    fresh: impl Fn() -> I,
    insert: impl Fn(&mut I, &[f32]),
) {
    let state = RefCell::new((fresh(), 0));
    b.iter_batched(
        || {
            let mut state = state.borrow_mut();
            if state.1 == held_out.len() {
                *state = (fresh(), 0);
            }
        },
        |()| {
            let (index, next) = &mut *state.borrow_mut();
            insert(index, held_out[*next]);
            *next += 1;
        },
        BatchSize::SmallInput,
    );
}

fn bench_build(c: &mut Criterion) {
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
    let rows = |vecs: &VectorStore, n: usize| {
        Arc::new(VectorStore::from_flat(vecs.dim(), vecs.as_flat()[..n * vecs.dim()].to_vec()))
    };

    let mut group = c.benchmark_group("build");
    let mut wide = None;
    group.bench_function("acorn_gamma/32d/8000rows", |b| {
        let vecs = rows(&narrow, 8_000);
        b.iter(|| AcornIndex::build(vecs.clone(), params.clone(), AcornVariant::Gamma))
    });
    group.bench_function("acorn_gamma/512d/4000rows", |b| {
        let vecs = wide.get_or_insert_with(|| laion_like(4_000, 42).vectors);
        b.iter(|| AcornIndex::build(vecs.clone(), params.clone(), AcornVariant::Gamma))
    });

    // What a pending segment of the repo benchmark's `active_max_rows`
    // costs to build once sealed: its graph over its rows in gid order,
    // then the CSR.
    group.bench_function("seal_build/32d/1024rows", |b| {
        let vecs = rows(&narrow, 1_024);
        b.iter(|| AcornIndex::build(vecs.clone(), params.clone(), AcornVariant::Gamma).seal())
    });

    // Single inserts of the held-out rows over the first `n` rows:
    // `insert_vector` into a growing graph (the graph work alone, which an
    // insert into a segmented index no longer does), and `segment_insert`
    // into a segmented index's active segment (an append to its rows plus
    // the publication of a new epoch, whose view shares them).
    let held_out: Vec<&[f32]> = (8_000..8_000 + HELD_OUT as u32).map(|r| narrow.get(r)).collect();
    let growing =
        |n: usize| AcornIndex::build(rows(&narrow, n), params.clone(), AcornVariant::Gamma);
    let segment = |n: usize| {
        let mut index = SegmentedAcornIndex::new(32, params.clone(), AcornVariant::Gamma);
        for r in 0..n as u32 {
            index.insert(narrow.get(r));
        }
        index
    };
    for n in [250, 1_000] {
        group.bench_function(format!("insert_vector/32d/{n}rows"), |b| {
            rolling(
                b,
                &held_out,
                || growing(n),
                |index, v| {
                    index.insert_vector(v);
                },
            )
        });
        group.bench_function(format!("segment_insert/32d/{n}rows"), |b| {
            rolling(
                b,
                &held_out,
                || segment(n),
                |index, v| {
                    index.insert(v);
                },
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hybrid, bench_scan_route, bench_traverse_route, bench_build);
criterion_main!(benches);
