//! E-commerce visual search (the paper's §1 motivating example): "find
//! t-shirts similar to a reference image, filtered by price and category."
//!
//! The predicate set here is unbounded — any price range × category
//! combination — which rules out specialized indices like FilteredDiskANN
//! (they require a small equality-label set fixed at build time). ACORN
//! serves it with one predicate-agnostic index.
//!
//! Run with: `cargo run --release --example ecommerce`

use acorn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Categories a product can belong to (a keyword attribute).
const CATEGORIES: [&str; 8] =
    ["t-shirt", "hoodie", "jeans", "sneakers", "dress", "jacket", "hat", "bag"];

fn main() {
    let n = 8000;
    let dim = 64;

    // Synthesize a product catalog: an "image embedding" per product plus
    // price (cents) and category attributes.
    let mix = acorn::data::synth::gaussian_mixture(acorn::data::synth::MixtureSpec {
        n,
        dim,
        clusters: CATEGORIES.len(),
        std: 0.5,
        seed: 7,
    });
    let mut rng = StdRng::seed_from_u64(99);
    // Category follows the embedding cluster (visually similar products share
    // a category), price is log-normal-ish.
    let categories: Vec<u64> = mix.cluster_of.iter().map(|&c| 1u64 << c).collect();
    let prices: Vec<i64> =
        (0..n).map(|_| (1000.0 * (1.0 + rng.gen_range(0.0f64..9.0))) as i64).collect();

    let attrs = AttrStore::builder()
        .add_keywords("category", categories)
        .add_int("price_cents", prices)
        .build();
    let vectors = std::sync::Arc::new(mix.vectors);

    // One ACORN-γ index serves every filter combination. The catalogue is
    // bulk-loaded as one segment: product i gets global id i.
    let params =
        AcornParams { m: 32, gamma: 10, m_beta: 64, ef_construction: 40, ..Default::default() };
    let mut index = SegmentedAcornIndex::new(dim, params, AcornVariant::Gamma);
    index.bulk_load(VectorStore::clone(&vectors));
    println!("indexed {n} products ({dim}-d embeddings)\n");

    let price = attrs.field("price_cents").unwrap();
    let category = attrs.field("category").unwrap();
    let reference = vectors.get(17).to_vec(); // "a photo the customer liked"

    let scenarios: Vec<(&str, Predicate)> = vec![
        (
            "t-shirts under $30",
            Predicate::And(vec![
                Predicate::ContainsAny { field: category, mask: 1 << 0 },
                Predicate::Between { field: price, lo: 0, hi: 3000 },
            ]),
        ),
        (
            "hoodies or jackets, $40-$80",
            Predicate::And(vec![
                Predicate::ContainsAny { field: category, mask: (1 << 1) | (1 << 5) },
                Predicate::Between { field: price, lo: 4000, hi: 8000 },
            ]),
        ),
        (
            "anything but bags, under $20",
            Predicate::And(vec![
                Predicate::Not(Box::new(Predicate::ContainsAny { field: category, mask: 1 << 7 })),
                Predicate::Between { field: price, lo: 0, hi: 2000 },
            ]),
        ),
    ];

    // Queries are asked of a pinned snapshot of the index.
    let snap = index.snapshot();
    let mut scratch = SearchScratch::new(snap.max_segment_rows());
    for (label, predicate) in &scenarios {
        let selectivity = acorn::predicate::exact_selectivity(&attrs, predicate);
        let (hits, stats) = snap.hybrid_search(&reference, predicate, &attrs, 5, 64, &mut scratch);
        println!(
            "query: similar items, filter = {label} (selectivity {selectivity:.3}, fallback = {})",
            stats.fallback
        );
        for h in &hits {
            let row = h.id as u32;
            let cat_mask = attrs.keywords(category, row);
            let cat = CATEGORIES[cat_mask.trailing_zeros() as usize];
            println!(
                "  #{:<5} {:>8}  ${:>6.2}  dist {:.3}",
                h.id,
                cat,
                attrs.int(price, row) as f64 / 100.0,
                h.dist
            );
            assert!(predicate.eval(&attrs, row), "result must satisfy the filter");
        }
        println!();
    }
}
