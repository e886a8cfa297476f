//! Tests for the SQ8 vector tier at the `acorn-core` level: exact rerank
//! makes every reported distance bit-identical to the f32 kernel value, the
//! segmented index applies [`QuantizationPolicy`] at seal and merge time
//! (never to the active segment), and the quantized traversal tier stays
//! within its recall floor and bytes/row budget.

use std::sync::Arc;

use acorn_core::{
    AcornIndex, AcornParams, AcornVariant, QuantizationPolicy, SegmentedAcornIndex, Sq8Tier,
};
use acorn_hnsw::{Metric, SearchScratch, VectorStore};
use acorn_predicate::{AttrStore, Predicate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

fn params(seed: u64) -> AcornParams {
    AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, seed, ..Default::default() }
}

fn random_store(n: usize, seed: u64) -> (Arc<VectorStore>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = VectorStore::with_capacity(DIM, n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.push(&v);
        labels.push(rng.gen_range(0..4));
    }
    (Arc::new(store), labels)
}

/// `vecs` as one bulk-loaded segment (global id == row id), sealed under
/// `policy`.
fn one_segment(vecs: &VectorStore, seed: u64, policy: QuantizationPolicy) -> SegmentedAcornIndex {
    let mut idx =
        SegmentedAcornIndex::new(DIM, params(seed), AcornVariant::Gamma).with_quantization(policy);
    idx.bulk_load(vecs.clone());
    idx
}

fn query(rng: &mut StdRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exact rerank means the quantized tier never reports an approximate
    /// number: every neighbor's distance is bit-identical to the exact f32
    /// kernel distance between the query and that row — for pure and hybrid
    /// search, at every rerank depth, on any seed.
    #[test]
    fn quantized_distances_are_bit_exact(
        seed in 0u64..u64::MAX,
        n in 150usize..400,
        rerank_k in 1usize..64,
    ) {
        let (vecs, labels) = random_store(n, seed);
        let idx = one_segment(&vecs, seed, QuantizationPolicy::sq8(rerank_k));
        prop_assert!(idx.snapshot().frozen_segments()[0].is_quantized());
        let attrs = AttrStore::builder().add_int("label", labels.clone()).build();
        let field = attrs.field("label").unwrap();
        let mut scratch = SearchScratch::new(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACC3);
        for _ in 0..3 {
            let q = query(&mut rng);
            let out = idx.reader().search(&q, 10, 48);
            prop_assert!(!out.is_empty());
            for nb in &out {
                let exact = Metric::L2.distance(vecs.get(nb.id as u32), &q);
                prop_assert_eq!(
                    nb.dist.to_bits(), exact.to_bits(),
                    "pure search id {} reported {} vs exact {}", nb.id, nb.dist, exact
                );
            }
            let pred = Predicate::Equals { field, value: rng.gen_range(0..4) };
            let (hout, _) = idx.snapshot().hybrid_search(&q, &pred, &attrs, 10, 48, &mut scratch);
            for nb in &hout {
                prop_assert_eq!(labels[nb.id as usize], match &pred {
                    Predicate::Equals { value, .. } => *value,
                    _ => unreachable!(),
                });
                let exact = Metric::L2.distance(vecs.get(nb.id as u32), &q);
                prop_assert_eq!(
                    nb.dist.to_bits(), exact.to_bits(),
                    "hybrid id {} reported {} vs exact {}", nb.id, nb.dist, exact
                );
            }
        }
    }

    /// The segmented index applies the policy exactly where documented:
    /// sealing quantizes, merging re-quantizes the rebuilt segment, and the
    /// active segment always serves f32. Global results keep bit-exact
    /// distances throughout.
    #[test]
    fn policy_applies_at_seal_and_merge_never_to_active(
        seed in 0u64..u64::MAX,
        n0 in 120usize..250,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = SegmentedAcornIndex::new(DIM, params(seed), AcornVariant::Gamma)
            .with_quantization(QuantizationPolicy::sq8(16));
        prop_assert_eq!(idx.snapshot().quantization(), QuantizationPolicy::sq8(16));
        let mut rows: Vec<Vec<f32>> = Vec::new();
        let insert = |idx: &mut SegmentedAcornIndex, rng: &mut StdRng, rows: &mut Vec<Vec<f32>>| {
            let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            idx.insert(&v);
            rows.push(v);
        };
        for _ in 0..n0 {
            insert(&mut idx, &mut rng, &mut rows);
        }
        idx.freeze();
        for _ in 0..40 {
            insert(&mut idx, &mut rng, &mut rows);
        }
        idx.freeze();
        // Rows inserted after the second freeze stay in the (f32) active
        // segment.
        for _ in 0..20 {
            insert(&mut idx, &mut rng, &mut rows);
        }
        let snap = idx.snapshot();
        let frozen = snap.frozen_segments();
        prop_assert_eq!(frozen.len(), 2);
        for seg in frozen {
            prop_assert!(seg.is_quantized(), "sealing must quantize under the policy");
            prop_assert_eq!(seg.index().rerank_k(), Some(16));
        }

        let check = |idx: &SegmentedAcornIndex, rng: &mut StdRng| -> Result<(), TestCaseError> {
            let q = query(rng);
            let out = idx.reader().search(&q, 10, 48);
            prop_assert!(!out.is_empty());
            for nb in &out {
                let exact = Metric::L2.distance(&rows[nb.id as usize], &q);
                prop_assert_eq!(
                    nb.dist.to_bits(), exact.to_bits(),
                    "segmented id {} reported {} vs exact {}", nb.id, nb.dist, exact
                );
            }
            Ok(())
        };
        check(&idx, &mut rng)?;

        // A merge rebuilds the two frozen segments into one; the rebuilt
        // segment must come back quantized without anyone re-asking.
        prop_assert!(idx.merge().segments_merged > 0);
        let snap = idx.snapshot();
        let frozen = snap.frozen_segments();
        prop_assert_eq!(frozen.len(), 1);
        prop_assert!(frozen[0].is_quantized(), "merge must re-apply the policy");
        check(&idx, &mut rng)?;
    }
}

/// The traversal tier's footprint: codes + codebook + norms must come in at
/// no more than 0.45x the exact f32 rows; at dim 8
/// the structural ratio is (8 + 4)/32 = 0.375 plus the constant codebook.
#[test]
fn quantized_tier_fits_bytes_budget() {
    let (vecs, _) = random_store(600, 7);
    let idx = AcornIndex::build(vecs.clone(), params(7), AcornVariant::Gamma)
        .seal(Some(Sq8Tier::Train { rerank_k: 32 }));
    let sq8_bytes = idx.quantized().expect("sealed with a tier").memory_bytes();
    let f32_bytes = vecs.memory_bytes();
    let ratio = sq8_bytes as f64 / f32_bytes as f64;
    assert!(ratio <= 0.45, "sq8 tier is {ratio:.3}x the f32 rows (budget 0.45x)");
}

/// Fixed-seed recall floor: the quantized tier with exact rerank reproduces
/// at least 98% of the exact tier's top-10 in its *worst* query class — pure
/// search, and hybrid search at selectivity ~0.25 (at `s_min`) and ~0.5.
#[test]
fn quantized_recall_tracks_exact_tier() {
    let (vecs, labels) = random_store(600, 11);
    let exact = one_segment(&vecs, 11, QuantizationPolicy::default());
    let quant = one_segment(&vecs, 11, QuantizationPolicy::sq8(32));
    assert!(
        !exact.snapshot().frozen_segments()[0].is_quantized()
            && quant.snapshot().frozen_segments()[0].is_quantized()
    );
    let attrs = AttrStore::builder().add_int("label", labels).build();
    let field = attrs.field("label").unwrap();
    let mut scratch = SearchScratch::new(600);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    // (hits, total) per class: pure, label == l, label in l..=l+1.
    let mut tally = [(0usize, 0usize); 3];
    for _ in 0..32 {
        let q = query(&mut rng);
        let l = rng.gen_range(0..4);
        let classes = [
            None,
            Some(Predicate::Equals { field, value: l }),
            Some(Predicate::Between { field, lo: l, hi: l + 1 }),
        ];
        for (pred, (hits, total)) in classes.iter().zip(&mut tally) {
            let mut ask = |idx: &SegmentedAcornIndex| match pred {
                None => idx.reader().search(&q, 10, 64),
                Some(p) => idx.snapshot().hybrid_search(&q, p, &attrs, 10, 64, &mut scratch).0,
            };
            let (e, s) = (ask(&exact), ask(&quant));
            *hits += s.iter().filter(|n| e.iter().any(|x| x.id == n.id)).count();
            *total += e.len();
        }
    }
    for (class, (hits, total)) in ["pure", "equals", "between"].iter().zip(tally) {
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.98, "{class}: quantized top-10 overlap {recall:.3} < 0.98 vs exact");
    }
}
