//! Tests for the paper's extension features: generalized multi-level
//! compression (§6.1) and the Qdrant-flattening ablation (§8).

use std::sync::Arc;

use acorn_core::{AcornIndex, AcornParams, AcornVariant};
use acorn_hnsw::VectorStore;
use acorn_predicate::{BitmapFilter, Bitset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = VectorStore::with_capacity(dim, n);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    Arc::new(s)
}

fn params(compressed_levels: usize) -> AcornParams {
    AcornParams {
        m: 8,
        gamma: 6,
        m_beta: 12,
        ef_construction: 32,
        compressed_levels,
        ..Default::default()
    }
}

#[test]
fn multi_level_compression_shrinks_upper_levels() {
    let vecs = random_store(4000, 8, 1);
    let one = AcornIndex::build(vecs.clone(), params(1), AcornVariant::Gamma);
    let two = AcornIndex::build(vecs, params(2), AcornVariant::Gamma);

    let s1 = one.graph().expect("growing").level_stats();
    let s2 = two.graph().expect("growing").level_stats();
    // Level 1 compressed ⇒ significantly smaller average degree than the
    // uncompressed M·γ lists of the n_c = 1 build.
    assert!(s1.len() > 1 && s2.len() > 1, "need at least 2 levels for this test");
    assert!(
        s2[1].avg_out_degree < s1[1].avg_out_degree * 0.8,
        "level-1 compression must shrink its lists: {} vs {}",
        s2[1].avg_out_degree,
        s1[1].avg_out_degree
    );
    assert!(two.memory_bytes() < one.memory_bytes(), "n_c = 2 must use less memory");
}

#[test]
fn multi_level_compression_keeps_recall() {
    let n = 4000;
    let vecs = random_store(n, 12, 2);
    let mut rng = StdRng::seed_from_u64(9);
    let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5)).collect();
    let two = AcornIndex::build(vecs.clone(), params(2), AcornVariant::Gamma);

    let mut scratch = acorn_hnsw::SearchScratch::new(n);
    let mut hits = 0;
    let mut total = 0;
    for t in 0..15u32 {
        let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = t % 5;
        let pass = |i: u32| labels[i as usize] == want;
        let filter = BitmapFilter::new(Bitset::from_ids(n, (0..n as u32).filter(|&i| pass(i))));
        let mut truth: Vec<(f32, u32)> = (0..n as u32)
            .filter(|&i| pass(i))
            .map(|i| (acorn_hnsw::Metric::L2.distance(vecs.get(i), &q), i))
            .collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut stats = acorn_hnsw::SearchStats::default();
        let got: Vec<u32> = two
            .search_filtered(&q, &filter, 10, 80, &mut scratch, &mut stats)
            .iter()
            .map(|x| x.id)
            .collect();
        hits += truth[..10].iter().filter(|&&(_, i)| got.contains(&i)).count();
        total += 10;
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.85, "n_c = 2 recall too low: {recall}");
}

#[test]
fn flattened_hierarchy_has_fewer_levels() {
    // The Qdrant pitfall: mL = 1/ln(M·γ) compresses the hierarchy — the
    // property Malkov et al. show degrades search.
    let vecs = random_store(4000, 8, 3);
    let normal = AcornIndex::build(vecs.clone(), params(1), AcornVariant::Gamma);
    let flat = AcornIndex::build(
        vecs,
        AcornParams { flatten_hierarchy: true, ..params(1) },
        AcornVariant::Gamma,
    );
    let height = |idx: &AcornIndex| idx.graph().expect("growing").max_level();
    assert!(
        height(&flat) < height(&normal),
        "flattening must reduce graph height: {} vs {}",
        height(&flat),
        height(&normal)
    );
}

#[test]
fn acorn1_holds_hnsw_caps_on_every_level_at_any_n_c() {
    // ACORN-1 is HNSW without pruning (§5.3) and never compresses, so
    // `compressed_levels` must not change its caps: at most 2M ids on
    // level 0 and M above, at insertion and after every overflow.
    let vecs = random_store(3000, 8, 4);
    for n_c in 1..=3 {
        let idx = AcornIndex::build(vecs.clone(), params(n_c), AcornVariant::One);
        let g = idx.graph().expect("growing");
        let m = idx.params().m;
        for v in 0..g.len() as u32 {
            for level in 0..=g.level_of(v) {
                let cap = if level == 0 { 2 * m } else { m };
                let len = g.neighbors(v, level).len();
                assert!(len <= cap, "n_c {n_c}: node {v} holds {len} > {cap} ids on level {level}");
            }
        }
    }
}
