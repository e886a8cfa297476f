//! Predicate-evaluation micro-benchmarks: the per-neighbor filtering cost
//! inside ACORN's lookup strategies (§6.3.2 treats it as constant time —
//! these benches quantify that constant per operator).

use acorn_data::datasets::{laion_like, tripclick_like};
use acorn_predicate::kernels::kernel_path;
use acorn_predicate::{
    sample_positions, AttrStore, BitmapFilter, Bitset, CompiledFilter, CompiledPredicate,
    MemoFilter, MemoTable, NodeFilter, Predicate, PredicateFilter, Regex,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_predicates(c: &mut Criterion) {
    let trip = tripclick_like(2000, 1);
    let laion = laion_like(2000, 2);
    let areas = trip.attrs.field("areas").unwrap();
    let year = trip.attrs.field("year").unwrap();
    let caption = laion.attrs.field("caption").unwrap();

    let contains = Predicate::ContainsAny { field: areas, mask: 0b1011 };
    let between = Predicate::Between { field: year, lo: 1990, hi: 2010 };
    let compound = Predicate::And(vec![contains.clone(), between.clone()]);
    let regex = Predicate::RegexMatch { field: caption, regex: Regex::new("^[0-9]").unwrap() };

    let mut group = c.benchmark_group("predicate");
    group.bench_function("eval/contains_any", |b| {
        let f = PredicateFilter::new(&trip.attrs, &contains);
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("eval/between", |b| {
        let f = PredicateFilter::new(&trip.attrs, &between);
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("eval/compound", |b| {
        let f = PredicateFilter::new(&trip.attrs, &compound);
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("eval/regex", |b| {
        let f = PredicateFilter::new(&laion.attrs, &regex);
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("eval/bitmap", |b| {
        let f = BitmapFilter::from_predicate(&trip.attrs, &compound);
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("materialize/bitmap_2k_rows", |b| {
        b.iter(|| BitmapFilter::from_predicate(black_box(&trip.attrs), black_box(&compound)))
    });
    // The compiled engine against the interpreted walks above: scalar
    // program evaluation, memoized re-checks, and the 64-row block scan.
    let compiled = CompiledPredicate::compile(&compound);
    group.bench_function("compiled/eval_compound", |b| {
        let f = CompiledFilter::new(&trip.attrs, &compiled);
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("compiled/memo_hit", |b| {
        let inner = CompiledFilter::new(&trip.attrs, &compiled);
        let mut memo = MemoTable::new();
        memo.reset_for(trip.attrs.len());
        let f = MemoFilter::new(&inner, memo);
        let _ = f.passes(1234); // prime the memo: the loop measures hits
        b.iter(|| f.passes(black_box(1234)))
    });
    group.bench_function("compiled/block_scan_2k_rows", |b| {
        b.iter(|| compiled.to_bitset(black_box(&trip.attrs)))
    });
    group.bench_function("compiled/compile_compound", |b| {
        b.iter(|| CompiledPredicate::compile(black_box(&compound)))
    });

    // What the planner pays to count a segment: a block-kernel pass (64
    // rows per mask word, on the dispatched and on the scalar body), beside
    // one scalar evaluation per row of a 1,000-draw sample (what a sampled
    // router would pay instead). A 10 % `year` band over uniform years, so
    // no branch predictor helps.
    let mut rng = StdRng::seed_from_u64(3);
    let years: Vec<i64> = (0..1 << 20).map(|_| rng.gen_range(1950..2020)).collect();
    let band = CompiledPredicate::compile(&Predicate::Between { field: 0, lo: 1990, hi: 1996 });
    for rows in [8_000usize, 1 << 20] {
        let attrs = AttrStore::builder().add_int("year", years[..rows].to_vec()).build();
        let last = rows as u32 - 1;
        let mut out = Bitset::default();
        let path = kernel_path().name();
        group.bench_function(format!("to_bitset_range/{rows}_rows/{path}"), |b| {
            b.iter(|| band.to_bitset_range(black_box(&attrs), 0..=last, &mut out))
        });
        group.bench_function(format!("to_bitset_range/{rows}_rows/scalar"), |b| {
            b.iter(|| band.to_bitset_range_scalar(black_box(&attrs), 0..=last, &mut out))
        });
        if rows == 1 << 20 {
            group.bench_function("sample/1000_draws_over_64000_rows", |b| {
                b.iter(|| {
                    let mut hits = 0u32;
                    sample_positions(64_000, 1000, 42, |pos| {
                        hits += u32::from(band.eval(black_box(&attrs), pos as u32))
                    });
                    hits
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_predicates);
criterion_main!(benches);
