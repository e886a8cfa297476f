//! Bulk-load path: a directly-frozen segment must be indistinguishable —
//! bit-identically — from inserting the same rows one at a time and
//! freezing, while publishing one epoch instead of n.

use std::sync::Arc;

use acorn_core::{AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_hnsw::VectorStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

fn params(seed: u64) -> AcornParams {
    AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, seed, ..Default::default() }
}

fn random_store(n: usize, seed: u64) -> (VectorStore, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = VectorStore::new(DIM);
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.push(&v);
        rows.push(v);
    }
    (store, rows)
}

#[test]
fn bulk_load_matches_insert_then_freeze() {
    let (store, rows) = random_store(300, 7);
    let mut bulk = SegmentedAcornIndex::new(DIM, params(7), AcornVariant::Gamma);
    let range = bulk.bulk_load(store);
    assert_eq!(range, 0..300);

    let mut serial = SegmentedAcornIndex::new(DIM, params(7), AcornVariant::Gamma);
    for v in &rows {
        serial.insert(v);
    }
    serial.freeze();

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..25 {
        let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = bulk.reader().search(&q, 10, 64).unwrap();
        let b = serial.reader().search(&q, 10, 64).unwrap();
        let a: Vec<(u64, f32)> = a.iter().map(|n| (n.id, n.dist)).collect();
        let b: Vec<(u64, f32)> = b.iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(a, b, "bulk-loaded segment must answer bit-identically");
    }
}

#[test]
fn bulk_load_publishes_one_epoch_and_one_segment() {
    let (store, _) = random_store(200, 3);
    let mut idx = SegmentedAcornIndex::new(DIM, params(3), AcornVariant::Gamma);
    let before = idx.snapshot().epoch();
    idx.bulk_load(store);
    let snap = idx.snapshot();
    assert_eq!(snap.epoch(), before + 1, "bulk load is one publication");
    assert_eq!(snap.num_segments(), 1);
    assert_eq!(snap.len(), 200);
    assert_eq!(idx.active_rows(), 0, "rows land frozen, not active");
}

#[test]
fn bulk_load_seals_active_rows_first() {
    let (store, _) = random_store(100, 11);
    let mut idx = SegmentedAcornIndex::new(DIM, params(11), AcornVariant::Gamma);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        idx.insert(&v);
    }
    let range = idx.bulk_load(store);
    assert_eq!(range, 20..120, "bulk rows take the next contiguous id range");
    assert_eq!(idx.active_rows(), 0, "prior active rows were sealed");
    let snap = idx.snapshot();
    assert_eq!(snap.num_segments(), 2);
    // The gid-range invariant: segments ascend by first gid, pairwise
    // disjoint — delete's binary search must find rows on both sides.
    let segs = snap.frozen_segments();
    assert!(segs.windows(2).all(|w| w[0].global_ids().last() < w[1].global_ids().first()));
}

#[test]
fn delete_works_on_bulk_loaded_rows() {
    let (store, _) = random_store(150, 13);
    let mut idx = SegmentedAcornIndex::new(DIM, params(13), AcornVariant::Gamma);
    idx.bulk_load(store);
    assert!(idx.delete(17));
    assert!(!idx.delete(17), "second delete of the same row is a no-op");
    assert!(!idx.delete(150), "never-assigned gid");
    assert_eq!(idx.snapshot().len(), 149);
    assert!(!idx.snapshot().contains(17));
    for n in idx.reader().search(&[0.0; DIM], 149, 512).unwrap() {
        assert_ne!(n.id, 17, "tombstoned row surfaced from search");
    }
}

#[test]
fn bulk_load_chunks_are_disjoint_and_ascending() {
    let mut idx = SegmentedAcornIndex::new(DIM, params(21), AcornVariant::Gamma);
    let mut expect = 0u64;
    for chunk in 0..4 {
        let (store, _) = random_store(50, 100 + chunk);
        let range = idx.bulk_load(store);
        assert_eq!(range, expect..expect + 50);
        expect += 50;
    }
    assert_eq!(idx.snapshot().num_segments(), 4);
    assert_eq!(idx.snapshot().len(), 200);
}

#[test]
fn bulk_load_empty_store_is_a_noop() {
    let mut idx = SegmentedAcornIndex::new(DIM, params(1), AcornVariant::Gamma);
    let epoch = idx.snapshot().epoch();
    let range = idx.bulk_load(VectorStore::new(DIM));
    assert_eq!(range, 0..0);
    let snap = idx.snapshot();
    assert_eq!(snap.epoch(), epoch, "nothing to publish");
    assert_eq!(snap.num_segments(), 0);
}

#[test]
fn bulk_load_serves_hybrid_queries() {
    use acorn_predicate::{AttrStore, Predicate};

    let (store, _) = random_store(200, 31);
    let mut idx = SegmentedAcornIndex::new(DIM, params(31), AcornVariant::Gamma);
    idx.bulk_load(store);
    let labels: Vec<i64> = (0..200).map(|i| i % 4).collect();
    let attrs = AttrStore::builder().add_int("label", labels).build();
    let field = attrs.field("label").unwrap();
    let p = Predicate::Equals { field, value: 2 };
    let reader = idx.reader();
    let snap = reader.snapshot();
    let mut scratch = reader.scratch_pool().checkout(snap.max_segment_rows());
    let (out, _) = snap.hybrid_search(&[0.0; DIM], &p, &attrs, 10, 64, &mut scratch);
    assert!(!out.is_empty());
    for n in &out {
        assert_eq!(n.id % 4, 2, "hybrid result violates the predicate");
    }
    drop(scratch);
    let _ = Arc::strong_count(&snap);
}
