//! WAL replay determinism: across random insert / delete / freeze / merge /
//! checkpoint interleavings, a durable store answers **bit-identically** to
//! an undurable oracle driven by the same ops — live, after reopen (replay
//! from the latest snapshot), and after a second reopen (recovery must be
//! idempotent).
//!
//! This is the PR 6 sequential-replay oracle pointed at the durability
//! layer: the op sequence *is* the specification, and serialization of the
//! final snapshot is the equality check (same bytes ⇒ same segments, same
//! graphs, same tombstones ⇒ same answers to every query).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use acorn_core::durability::{DurabilityOptions, DurableIndex, FsyncPolicy};
use acorn_core::{AcornParams, AcornVariant, MergePolicy, SegmentedAcornIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 6;

fn params(seed: u64) -> AcornParams {
    AcornParams { m: 8, gamma: 2, m_beta: 12, ef_construction: 32, seed, ..Default::default() }
}

fn tmp_dir() -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "acorn-walreplay-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

#[derive(Debug, Clone)]
enum Op {
    Insert,
    /// Delete a pseudo-random live row (the selector picks it modulo the
    /// current high-water mark, so the choice is identical on both sides).
    Delete(u64),
    Freeze,
    Merge,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => Just(Op::Insert),
        2 => any::<u32>().prop_map(|sel| Op::Delete(sel as u64)),
        1 => Just(Op::Freeze),
        1 => Just(Op::Merge),
        1 => Just(Op::Checkpoint),
    ]
}

fn snap_bytes(idx: &SegmentedAcornIndex) -> Vec<u8> {
    let mut b = Vec::new();
    idx.snapshot().save(&mut b).unwrap();
    b
}

fn fresh(seed: u64) -> SegmentedAcornIndex {
    // A small auto-freeze threshold so segment boundaries (which replay
    // must reproduce exactly) appear even in short op sequences.
    SegmentedAcornIndex::new(DIM, params(seed), AcornVariant::Gamma).with_policy(MergePolicy {
        active_max_rows: 12,
        min_rows: 64,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn durable_store_tracks_the_undurable_oracle_bit_identically(
        seed in 0u64..1000,
        ops in proptest::collection::vec(op_strategy(), 1..48),
        wal_max in prop_oneof![Just(0u64), Just(600u64)],
    ) {
        let dir = tmp_dir();
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Never,
            wal_max_bytes: wal_max, // 600 exercises mid-sequence auto-checkpoints
        };
        let mut oracle = fresh(seed);
        let mut durable = DurableIndex::create(&dir, fresh(seed), opts.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);

        for op in &ops {
            match op {
                Op::Insert => {
                    let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let a = oracle.insert(&v);
                    let b = durable.insert(&v).unwrap();
                    prop_assert_eq!(a, b, "global ids must match op-for-op");
                }
                Op::Delete(sel) => {
                    let hwm = oracle.snapshot().next_global_id();
                    if hwm == 0 {
                        continue;
                    }
                    let gid = sel % hwm;
                    let a = oracle.delete(gid);
                    let b = durable.delete(gid).unwrap();
                    prop_assert_eq!(a, b, "delete outcome must match for gid {}", gid);
                }
                Op::Freeze => {
                    oracle.freeze();
                    durable.freeze().unwrap();
                }
                Op::Merge => {
                    let a = oracle.merge();
                    let b = durable.merge().unwrap();
                    prop_assert_eq!(a, b, "merge outcomes must match");
                }
                Op::Checkpoint => {
                    durable.checkpoint().unwrap(); // state-neutral on purpose
                }
            }
        }

        let want = snap_bytes(&oracle);
        prop_assert_eq!(&snap_bytes(durable.index()), &want, "live durable index diverged");

        // Reopen: snapshot + WAL replay must reconstruct the same bytes.
        drop(durable);
        let reopened = DurableIndex::open(&dir, opts.clone()).unwrap();
        prop_assert_eq!(&snap_bytes(reopened.index()), &want, "recovered index diverged");

        // Recovery is idempotent: a second open (now from the checkpoint
        // the first open may have taken) still lands on the same bytes.
        drop(reopened);
        let again = DurableIndex::open(&dir, opts).unwrap();
        prop_assert_eq!(&snap_bytes(again.index()), &want, "second recovery diverged");

        std::fs::remove_dir_all(&dir).ok();
    }
}
