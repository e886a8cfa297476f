//! Multi-modal image search over a LAION-like dataset (the paper's
//! Figure 6 scenario): similarity search over CLIP-style embeddings
//! combined with keyword filters and regex over captions.
//!
//! Regex predicates are exactly the kind of "unbounded predicate set"
//! that makes specialized hybrid indices inapplicable — the predicate is
//! not even enumerable at construction time.
//!
//! Run with: `cargo run --release --example image_search`

use acorn::data::captions::KEYWORDS;
use acorn::prelude::*;

fn main() {
    let n = 6000;
    let ds = acorn::data::datasets::laion_like(n, 5);
    println!("dataset: {}\n", ds.summary());

    // The corpus as one bulk-loaded segment: image i gets global id i.
    let params =
        AcornParams { m: 32, gamma: 12, m_beta: 32, ef_construction: 40, ..Default::default() };
    let mut index = SegmentedAcornIndex::new(ds.vectors.dim(), params, AcornVariant::Gamma);
    index.bulk_load(VectorStore::clone(&ds.vectors));

    let keywords = ds.attrs.field("keywords").unwrap();
    let caption = ds.attrs.field("caption").unwrap();

    // "An image the user liked" — we search for similar images under
    // different structured constraints.
    let query_img = 4321u32;
    let query = ds.vectors.get(query_img).to_vec();
    println!("reference image #{query_img}: \"{}\"\n", ds.attrs.text(caption, query_img));

    let dog = KEYWORDS.iter().position(|&k| k == "dog").unwrap() as u8;
    let cat = KEYWORDS.iter().position(|&k| k == "cat").unwrap() as u8;

    let scenarios: Vec<(&str, Predicate)> = vec![
        (
            "keyword list contains 'dog' or 'cat'",
            Predicate::ContainsAny { field: keywords, mask: (1 << dog) | (1 << cat) },
        ),
        (
            "caption matches /^[0-9]/ (starts with a number)",
            Predicate::RegexMatch { field: caption, regex: Regex::new("^[0-9]").unwrap() },
        ),
        (
            "caption matches /(red|blue) .*(dog|bird)/",
            Predicate::RegexMatch {
                field: caption,
                regex: Regex::new("(red|blue) .*(dog|bird)").unwrap(),
            },
        ),
    ];

    // Queries are asked of a pinned snapshot of the index.
    let snap = index.snapshot();
    let mut scratch = SearchScratch::new(snap.max_segment_rows());
    for (label, predicate) in &scenarios {
        let s = acorn::predicate::exact_selectivity(&ds.attrs, predicate);
        let (hits, stats) = snap.hybrid_search(&query, predicate, &ds.attrs, 5, 64, &mut scratch);
        println!(
            "filter: {label}  (selectivity {s:.3}, ndis {}, fallback {})",
            stats.ndis, stats.fallback
        );
        if hits.is_empty() {
            println!("  (no matching images)");
        }
        for h in &hits {
            let row = h.id as u32;
            println!("  #{:<5} dist {:.3}  \"{}\"", h.id, h.dist, ds.attrs.text(caption, row));
            assert!(predicate.eval(&ds.attrs, row));
        }
        println!();
    }
}
