//! Regex-engine micro-benchmarks: the per-row predicate-evaluation cost of
//! the LAION regex workload (§7.1.2) on `laion_like` captions, per pattern
//! shape, for the matcher a query runs (`Regex`: literal prefilter + DFA)
//! beside the Pike VM it was determinized from. One iteration is one row, so
//! the reported time is ns/row.

use acorn_data::datasets::laion_like;
use acorn_predicate::regex::{nfa::Program, parser};
use acorn_predicate::Regex;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_regex(c: &mut Criterion) {
    let ds = laion_like(2000, 42);
    let captions = ds.attrs.texts(ds.attrs.field("caption").unwrap());
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
    }
    group.finish();
}

criterion_group!(benches, bench_regex);
criterion_main!(benches);
