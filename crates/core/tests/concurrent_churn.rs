//! Concurrent churn stress tests for the snapshot-epoch segment layer.
//!
//! Four scenarios, all scheduling-independent (every assertion is an
//! invariant of whatever interleaving actually happened, so `cargo test`
//! stays deterministic under any `RUST_TEST_THREADS`):
//!
//! 1. **Sequential-replay oracle** — mutator threads race reader threads;
//!    afterwards the serialized op log is replayed into a fresh writer and
//!    must reproduce the final index bit-identically.
//! 2. **Merges racing queries** — a writer churns with the background
//!    maintenance thread merging throughout; readers assert snapshot
//!    self-consistency the whole time, and the compacted end state must
//!    equal a from-scratch build over the survivors.
//! 3. **Save under load** — a pinned snapshot serializes to identical
//!    bytes no matter how much churn lands mid-save.
//! 4. **Pins racing the writer** — reader threads pin epochs while the
//!    writer, which shares graph nodes and vector rows with every epoch it
//!    published, keeps inserting; afterwards each pin must still be the twin
//!    index grown to its rows and answer as it did (`common::Pinned`).

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use acorn_core::{AcornParams, AcornVariant, GlobalNeighbor, MergePolicy, SegmentedAcornIndex};
use acorn_hnsw::{SearchStats, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::Pinned;

const DIM: usize = 8;

fn test_params() -> AcornParams {
    AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, seed: 7, ..Default::default() }
}

fn random_vec(rng: &mut StdRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One serialized mutation, as applied (gids are assigned under the same
/// lock that appends to the log, so log order == gid order for inserts).
enum Op {
    Insert(Vec<f32>),
    Delete(u64),
}

/// Assert the invariants every snapshot must satisfy mid-churn: results
/// sorted by distance, no tombstoned/unknown gid surfacing, all gids below
/// the snapshot's high-water mark.
fn check_hits(snap: &acorn_core::SegmentSnapshot, hits: &[GlobalNeighbor]) {
    for w in hits.windows(2) {
        assert!(w[0].dist <= w[1].dist, "results must be sorted by distance");
    }
    for h in hits {
        assert!(h.id < snap.next_global_id(), "gid {} beyond the snapshot's range", h.id);
        assert!(snap.contains(h.id), "gid {} surfaced but is dead at epoch {}", h.id, snap.epoch());
    }
}

/// Mutators race readers; the op log replays into an identical index.
#[test]
fn churn_matches_sequential_replay_oracle() {
    let policy = MergePolicy { active_max_rows: 48, ..Default::default() };
    let idx = Mutex::new(
        SegmentedAcornIndex::new(DIM, test_params(), AcornVariant::Gamma).with_policy(policy),
    );
    let log = Mutex::new(Vec::<Op>::new());
    let reader = idx.lock().unwrap().reader();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for m in 0..2u64 {
            let (idx, log) = (&idx, &log);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + m);
                let mut mine: Vec<u64> = Vec::new();
                for i in 0..150 {
                    // Lock order: log before index, identically everywhere;
                    // holding both makes (append, apply) one atomic step.
                    let mut log = log.lock().unwrap();
                    let mut idx = idx.lock().unwrap();
                    if i % 4 == 3 && !mine.is_empty() {
                        let victim = mine.swap_remove(rng.gen_range(0..mine.len()));
                        log.push(Op::Delete(victim));
                        assert!(idx.delete(victim), "own gid {victim} deleted twice");
                    } else {
                        let v = random_vec(&mut rng);
                        log.push(Op::Insert(v.clone()));
                        mine.push(idx.insert(&v));
                    }
                }
            });
        }
        for r in 0..2u64 {
            let reader = reader.clone();
            let done = &done;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + r);
                let mut last_epoch = 0;
                let mut queries = 0usize;
                // Keep reading until the mutators are done so the tail of
                // the churn is covered too, with a floor of 60 queries.
                while queries < 60 || !done.load(Ordering::Acquire) {
                    let snap = reader.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epochs must be monotone per reader");
                    last_epoch = snap.epoch();
                    let q = random_vec(&mut rng);
                    let mut scratch = reader.scratch_pool().checkout(snap.max_segment_rows());
                    let mut stats = SearchStats::default();
                    let hits = snap.search_with(&q, 10, 64, &mut scratch, &mut stats).unwrap();
                    check_hits(&snap, &hits);
                    queries += 1;
                }
            });
        }
        // Mutators finish when their spawned closures return; signal the
        // readers once both are done by joining via a dedicated thread is
        // overkill — the scope joins mutators only after `done` flips, so
        // flip it from a watcher that polls the log length.
        let log_ref = &log;
        let done = &done;
        s.spawn(move || {
            while log_ref.lock().unwrap().len() < 300 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    // Replay the serialized log into a fresh writer: same insert order ⇒
    // same gids, same auto-freeze boundaries, same tombstones ⇒ the same
    // index, answer-for-answer.
    let policy = MergePolicy { active_max_rows: 48, ..Default::default() };
    let mut replay =
        SegmentedAcornIndex::new(DIM, test_params(), AcornVariant::Gamma).with_policy(policy);
    for op in log.into_inner().unwrap().iter() {
        match op {
            Op::Insert(v) => {
                replay.insert(v);
            }
            Op::Delete(gid) => assert!(replay.delete(*gid)),
        }
    }
    let idx = idx.into_inner().unwrap();
    let (churned, replayed) = (idx.snapshot(), replay.snapshot());
    assert_eq!(churned.next_global_id(), replayed.next_global_id());
    assert_eq!(churned.len(), replayed.len());
    assert_eq!(churned.live_ids(), replayed.live_ids());
    assert_eq!(churned.num_segments(), replayed.num_segments());

    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..10 {
        let q = random_vec(&mut rng);
        let a: Vec<(u64, f32)> =
            idx.reader().search(&q, 10, 64).unwrap().iter().map(|n| (n.id, n.dist)).collect();
        let b: Vec<(u64, f32)> =
            replay.reader().search(&q, 10, 64).unwrap().iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(a, b, "churned index must answer exactly like its sequential replay");
    }
}

/// Background merges race readers; compaction must land on the canonical
/// from-scratch rebuild over the survivors.
#[test]
fn merges_racing_queries_stay_consistent() {
    let policy = MergePolicy { min_rows: 96, max_tombstone_fraction: 0.05, active_max_rows: 64 };
    let mut idx =
        SegmentedAcornIndex::new(DIM, test_params(), AcornVariant::Gamma).with_policy(policy);
    let reader = idx.reader();
    idx.start_maintenance(Duration::from_millis(1));

    let mut rng = StdRng::seed_from_u64(31);
    let mut vectors: Vec<Vec<f32>> = Vec::new(); // gid -> vector
    let mut live: Vec<u64> = Vec::new();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for r in 0..2u64 {
            let reader = reader.clone();
            let done = &done;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(300 + r);
                let mut queries = 0usize;
                while queries < 40 || !done.load(Ordering::Acquire) {
                    let snap = reader.snapshot();
                    let q = random_vec(&mut rng);
                    let mut scratch = reader.scratch_pool().checkout(snap.max_segment_rows());
                    let mut stats = SearchStats::default();
                    let hits = snap.search_with(&q, 10, 64, &mut scratch, &mut stats).unwrap();
                    check_hits(&snap, &hits);
                    queries += 1;
                }
            });
        }
        for i in 0..400 {
            let v = random_vec(&mut rng);
            vectors.push(v.clone());
            live.push(idx.insert(&v));
            if i % 3 == 2 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(idx.delete(victim));
            }
            if i % 100 == 99 {
                idx.merge(); // foreground merges race the maintenance thread
            }
        }
        done.store(true, Ordering::Release);
    });
    idx.stop_maintenance();
    idx.compact_all();
    assert_eq!(idx.snapshot().num_segments(), 1, "compact_all must leave one frozen segment");

    // Canonical oracle: a fresh index bulk-loaded with the survivors in gid
    // order — exactly what the merge path promises to equal.
    live.sort_unstable();
    assert_eq!(idx.snapshot().live_ids(), live);
    let mut store = VectorStore::new(DIM);
    for &gid in &live {
        store.push(&vectors[gid as usize]);
    }
    let mut oracle = SegmentedAcornIndex::new(DIM, test_params(), AcornVariant::Gamma);
    oracle.bulk_load(store);

    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..10 {
        let q = random_vec(&mut rng);
        let a: Vec<(u64, f32)> =
            idx.reader().search(&q, 10, 64).unwrap().iter().map(|n| (n.id, n.dist)).collect();
        let b: Vec<(u64, f32)> = oracle
            .reader()
            .search(&q, 10, 64)
            .unwrap()
            .iter()
            .map(|n| (live[n.id as usize], n.dist))
            .collect();
        assert_eq!(a, b, "post-merge answers must match the from-scratch rebuild");
    }
}

/// A pinned snapshot serializes to the same bytes regardless of concurrent
/// writes, and the file round-trips to that epoch's answers.
#[test]
fn save_under_load_is_snapshot_consistent() {
    let policy = MergePolicy { active_max_rows: 40, ..Default::default() };
    let mut idx =
        SegmentedAcornIndex::new(DIM, test_params(), AcornVariant::Gamma).with_policy(policy);
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..120 {
        let v = random_vec(&mut rng);
        idx.insert(&v);
    }
    for gid in 0..12 {
        idx.delete(gid);
    }

    let pinned = idx.snapshot();
    let mut during_churn = Vec::new();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Inserts, deletes, freezes, and a full merge — every mutation
            // class lands while the save below is (plausibly) mid-write.
            for i in 0..200u64 {
                let v = random_vec(&mut rng);
                let gid = idx.insert(&v);
                if i % 3 == 0 {
                    idx.delete(gid.saturating_sub(5));
                }
            }
            idx.merge();
        });
        pinned.save(&mut during_churn).unwrap();
        writer.join().unwrap();
    });

    let mut at_rest = Vec::new();
    pinned.save(&mut at_rest).unwrap();
    assert_eq!(
        during_churn, at_rest,
        "a pinned snapshot must serialize identically under churn and at rest"
    );

    let loaded = SegmentedAcornIndex::load(&mut during_churn.as_slice()).unwrap();
    let reader = loaded.reader();
    let at_load = reader.snapshot();
    assert_eq!(at_load.len(), pinned.len());
    assert_eq!(at_load.next_global_id(), pinned.next_global_id());
    assert_eq!(at_load.epoch(), 0, "a freshly loaded index starts at epoch 0");
    let mut scratch = reader.scratch_pool().checkout(pinned.max_segment_rows());
    let mut stats = SearchStats::default();
    for _ in 0..5 {
        let q = random_vec(&mut rng);
        let a: Vec<(u64, f32)> = pinned
            .search_with(&q, 10, 64, &mut scratch, &mut stats)
            .unwrap()
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        let b: Vec<(u64, f32)> =
            reader.search(&q, 10, 64).unwrap().iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(a, b, "the loaded file must answer exactly like the captured epoch");
    }
    // The live index has long since moved past the pinned epoch.
    assert!(idx.snapshot().next_global_id() > pinned.next_global_id());
}

/// Readers pin epochs while the writer inserts, deletes, freezes and merges;
/// every pin is verified only after the writer is done, when all the sharing
/// between the pinned views and the writer's segment has been exercised.
#[test]
fn pins_taken_under_churn_stay_isolated() {
    const WRITES: usize = 360;
    /// The writer stops this often until a reader has pinned, so pins are
    /// spread over the whole churn however the threads are scheduled.
    const PIN_EVERY: usize = 20;
    let policy = MergePolicy { min_rows: 96, max_tombstone_fraction: 0.05, active_max_rows: 120 };
    let mut idx =
        SegmentedAcornIndex::new(DIM, test_params(), AcornVariant::Gamma).with_policy(policy);
    let reader = idx.reader();
    let (attrs, predicate) = common::labels(WRITES);
    let mut vectors: Vec<Vec<f32>> = Vec::new(); // gid -> vector
    let done = AtomicBool::new(false);
    let pins_taken = AtomicUsize::new(0);

    let pins: Vec<Pinned> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let reader = reader.clone();
                let (done, pins_taken, attrs, predicate) = (&done, &pins_taken, &attrs, &predicate);
                s.spawn(move || {
                    let mut pins = Vec::new();
                    let mut last_epoch = None;
                    while !done.load(Ordering::Acquire) {
                        let snap = reader.snapshot();
                        if last_epoch == Some(snap.epoch()) {
                            std::thread::yield_now();
                            continue;
                        }
                        last_epoch = Some(snap.epoch());
                        let seed = 400 + r + 2 * pins.len() as u64;
                        pins.push(Pinned::take(snap, DIM, seed, attrs, predicate));
                        pins_taken.fetch_add(1, Ordering::Release);
                    }
                    pins
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..WRITES {
            // Read before the insert: the epoch it publishes is then one no
            // reader had pinned at this count, so the wait below must end.
            let seen = pins_taken.load(Ordering::Acquire);
            let v = random_vec(&mut rng);
            vectors.push(v.clone());
            let gid = idx.insert(&v);
            if i % 5 == 4 {
                idx.delete(rng.gen_range(0..=gid));
            }
            if i % 90 == 89 {
                idx.merge();
            }
            if i % PIN_EVERY == PIN_EVERY - 1 {
                while pins_taken.load(Ordering::Acquire) == seen {
                    std::thread::yield_now();
                }
            }
        }
        done.store(true, Ordering::Release);
        readers.into_iter().flat_map(|h| h.join().expect("reader panicked")).collect()
    });

    assert!(pins.len() >= WRITES / PIN_EVERY);
    assert!(
        pins.iter().any(|p| p.snapshot().active_segment().is_some()),
        "some pin must hold a view of the active segment"
    );
    for pin in &pins {
        pin.verify(&vectors, &test_params(), AcornVariant::Gamma, &attrs, &predicate);
    }
}
