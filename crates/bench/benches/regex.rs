//! Regex-engine micro-benchmarks: the per-row predicate-evaluation cost of
//! the LAION regex workload (§7.1.2) on `laion_like` captions, per pattern
//! shape, for the matcher a query runs (`Regex`: literal prefilter + DFA)
//! beside the Pike VM it was determinized from. A `row/` iteration is one
//! row, so the reported time is ns/row. A `store/` iteration is one
//! `to_bitset` over the whole 2,000-row store (the block path a query
//! materializes: literal scans over the caption arena, then the DFA on the
//! rows that hold every literal), so time ÷ 2,000 is ns/row; its last row
//! puts the regex behind a ~1 % int range, so the regex sees a sparse mask.

use acorn_data::datasets::laion_like;
use acorn_predicate::regex::{nfa::Program, parser};
use acorn_predicate::{AttrStore, CompiledPredicate, Predicate, Regex};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_regex(c: &mut Criterion) {
    let ds = laion_like(2000, 42);
    let captions = ds.attrs.texts(ds.attrs.field("caption").unwrap());
    // The captions beside an int column that passes ~1 % of rows at 0.
    let mut rng = StdRng::seed_from_u64(42);
    let store = AttrStore::builder()
        .add_text("caption", captions.to_vec())
        .add_int("bucket", (0..captions.len()).map(|_| rng.gen_range(0..100)).collect())
        .build();
    let n = store.len();
    // The five `regex_workload` templates, then shapes it does not draw.
    let patterns = [
        ("anchor_class", "^[0-9]"),
        ("literal", "mountain"),
        ("alternation", "(dog|bird)"),
        ("wildcard", "forest .*person"),
        ("anchored_wildcard", "^a photo of .*flower"),
        ("class_run", "[0-9]+ a photo"),
        ("complex", "^[0-9]+ a photo of .*(red|blue) (dog|cat)"),
    ];

    let mut group = c.benchmark_group("regex");
    for (name, pat) in patterns {
        let re = Regex::new(pat).unwrap();
        let vm = Program::compile(&parser::parse(pat).unwrap());
        let mut rows = captions.iter().cycle();
        group.bench_function(format!("row/{name}/regex"), |b| {
            b.iter(|| re.is_match(black_box(rows.next().unwrap())))
        });
        group.bench_function(format!("row/{name}/vm"), |b| {
            b.iter(|| vm.is_match(black_box(rows.next().unwrap())))
        });
        group.bench_function(format!("compile/{name}"), |b| {
            b.iter(|| Regex::new(black_box(pat)).unwrap())
        });
        let program = CompiledPredicate::compile(&Predicate::RegexMatch { field: 0, regex: re });
        group.bench_function(format!("store/{name}/{n}_rows"), |b| {
            b.iter(|| program.to_bitset(black_box(&store)))
        });
    }
    let regex = Regex::new("forest .*person").unwrap();
    let sparse = CompiledPredicate::compile(&Predicate::And(vec![
        Predicate::Between { field: 1, lo: 0, hi: 0 },
        Predicate::RegexMatch { field: 0, regex },
    ]));
    group.bench_function(format!("store/sparse_1pct_wildcard/{n}_rows"), |b| {
        b.iter(|| sparse.to_bitset(black_box(&store)))
    });
    group.finish();
}

criterion_group!(benches, bench_regex);
criterion_main!(benches);
