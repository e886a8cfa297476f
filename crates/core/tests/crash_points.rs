//! The crash-point sweep: kill the durable store at **every** injectable
//! I/O operation and prove recovery is always a legal prefix of the op log.
//!
//! Protocol per fault point `p`:
//!
//! 1. Run a fixed op script (creates the store, inserts, deletes, freezes,
//!    merges, checkpoints that write, re-reference and collect segment
//!    files) against a [`FailpointVfs`] armed to die at the `p`-th
//!    operation — the op that hits the fault tears (a write persists half
//!    its buffer) and everything after it fails, exactly like a process
//!    kill.
//! 2. Reopen the directory with the **real** filesystem. `open` must
//!    succeed (never panic, never report corruption).
//! 3. The recovered index must serialize bit-identically to the oracle
//!    state after `k` mutations, where `k` is at least the number of ops
//!    acknowledged before the crash (fsync = `Always`, so an `Ok` is a
//!    durability promise) and at most that plus the single in-flight op.
//!
//! A disarmed counting pass establishes how many injectable points the
//! script reaches; the sweep covers all of them, and the test fails if
//! that coverage ever drops below [`POINT_FLOOR`] (or below
//! `ACORN_CRASH_POINTS`, when CI sets it).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use acorn_core::durability::{
    DurabilityOptions, DurableIndex, FailpointVfs, FaultPlan, FsyncPolicy, StdVfs, Vfs,
};
use acorn_core::{AcornParams, AcornVariant, SegmentedAcornIndex};

const DIM: usize = 6;

/// Injectable points the script reaches today; the count may only rise.
const POINT_FLOOR: u64 = 169;

fn params() -> AcornParams {
    AcornParams { m: 8, gamma: 2, m_beta: 12, ef_construction: 32, seed: 11, ..Default::default() }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Always,
        // Only explicit checkpoints: keeps the acked-op accounting exact.
        wal_max_bytes: 0,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "acorn-crash-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn vec_for(i: u64) -> Vec<f32> {
    (0..DIM).map(|d| ((i * 37 + d as u64 * 13) % 101) as f32 / 101.0).collect()
}

/// The op script. `Checkpoint` is durability-only (state-neutral); every
/// other op changes index state by exactly one WAL record.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Delete(u64),
    Freeze,
    Merge,
    Checkpoint,
}

/// A script that crosses every protocol surface: plain inserts, a freeze,
/// deletes, a merge, a mid-stream checkpoint (the first segment file),
/// inserts that land in the post-checkpoint WAL, then freeze → checkpoint →
/// merge → checkpoint: the first writes two more segment files beside the
/// one it re-references, the second writes the merged segment's and
/// collects the file only the generation before last still named — so a
/// segment file's tmp write, fsync and rename, the directory sync that
/// covers them and the collector's `remove` are all kill points.
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..16 {
        ops.push(Op::Insert(i));
    }
    ops.push(Op::Freeze);
    for i in [1u64, 5, 9] {
        ops.push(Op::Delete(i));
    }
    ops.push(Op::Merge);
    for i in 16..24 {
        ops.push(Op::Insert(i));
    }
    ops.push(Op::Checkpoint);
    for i in 24..32 {
        ops.push(Op::Insert(i));
    }
    ops.push(Op::Delete(20));
    ops.push(Op::Freeze);
    ops.push(Op::Merge);
    for i in 32..36 {
        ops.push(Op::Insert(i));
    }
    ops.push(Op::Freeze);
    ops.push(Op::Checkpoint);
    ops.push(Op::Delete(33));
    ops.push(Op::Merge);
    ops.push(Op::Checkpoint);
    for i in 36..38 {
        ops.push(Op::Insert(i));
    }
    ops
}

/// Apply one op to an undurable oracle index.
fn apply_oracle(idx: &mut SegmentedAcornIndex, op: Op) {
    match op {
        Op::Insert(i) => {
            idx.insert(&vec_for(i));
        }
        Op::Delete(gid) => {
            assert!(idx.delete(gid), "script deletes must target live rows");
        }
        Op::Freeze => idx.freeze(),
        Op::Merge => {
            idx.merge();
        }
        Op::Checkpoint => {}
    }
}

/// Serialized snapshot of the oracle after each mutation count: index `k`
/// holds the bytes after the first `k` *mutating* ops.
fn oracle_states(ops: &[Op]) -> Vec<Vec<u8>> {
    let mut idx = SegmentedAcornIndex::new(DIM, params(), AcornVariant::Gamma);
    let snap_bytes = |idx: &SegmentedAcornIndex| {
        let mut b = Vec::new();
        idx.snapshot().save(&mut b).unwrap();
        b
    };
    let mut states = vec![snap_bytes(&idx)];
    for &op in ops {
        if matches!(op, Op::Checkpoint) {
            continue;
        }
        apply_oracle(&mut idx, op);
        states.push(snap_bytes(&idx));
    }
    states
}

/// Apply one op to the durable store.
fn apply_durable(store: &mut DurableIndex, op: Op) -> std::io::Result<()> {
    match op {
        Op::Insert(i) => store.insert(&vec_for(i)).map(|_| ()),
        Op::Delete(gid) => store.delete(gid).map(|ok| assert!(ok)),
        Op::Freeze => store.freeze(),
        Op::Merge => store.merge().map(|_| ()),
        Op::Checkpoint => store.checkpoint(),
    }
}

/// Run the script against `vfs`. Returns `(acked_mutations, create_ok,
/// full_run)` — the count of mutating ops acknowledged before the first
/// error, whether `create` completed, and whether the whole script did.
fn drive(dir: &PathBuf, vfs: Arc<dyn Vfs>, ops: &[Op]) -> (usize, bool, bool) {
    let idx = SegmentedAcornIndex::new(DIM, params(), AcornVariant::Gamma);
    let Ok(mut store) = DurableIndex::create_with_vfs(dir, idx, opts(), vfs) else {
        return (0, false, false);
    };
    let mut acked = 0;
    for &op in ops {
        if apply_durable(&mut store, op).is_err() {
            assert!(store.is_poisoned(), "a failed mutation must poison the handle");
            return (acked, true, false);
        }
        if !matches!(op, Op::Checkpoint) {
            acked += 1;
        }
    }
    (acked, true, true)
}

fn recovered_bytes(dir: &PathBuf) -> Vec<u8> {
    let store = DurableIndex::open(dir, opts())
        .expect("open after a crash must always succeed once a generation was committed");
    let mut b = Vec::new();
    store.index().snapshot().save(&mut b).unwrap();
    b
}

/// The tentpole acceptance test: every single injectable fault point
/// recovers to a legal prefix, bit-identically.
#[test]
fn every_crash_point_recovers_a_legal_prefix() {
    let ops = script();
    let states = oracle_states(&ops);

    // Counting pass (disarmed): how many injectable points does the script
    // reach, and does the fault-free run match the full oracle?
    let plan = FaultPlan::new();
    let dir = tmp_dir("count");
    let (acked, _, full) = drive(&dir, Arc::new(FailpointVfs::new(plan.clone())), &ops);
    assert!(full, "disarmed run must complete");
    assert_eq!(acked + 1, states.len());
    assert_eq!(recovered_bytes(&dir), states[acked], "fault-free run must recover the final state");
    std::fs::remove_dir_all(&dir).ok();

    let total_points = plan.points_passed();
    let floor: u64 = std::env::var("ACORN_CRASH_POINTS")
        .ok()
        .map(|v| v.parse().expect("ACORN_CRASH_POINTS must be a number"))
        .unwrap_or(POINT_FLOOR);
    assert!(
        total_points >= floor.max(POINT_FLOOR),
        "only {total_points} injectable points — the sweep lost coverage (floor {floor})"
    );
    eprintln!("crash sweep: {total_points} injectable points");

    // The sweep: die at every point.
    for point in 1..=total_points {
        let dir = tmp_dir("sweep");
        plan.arm(point);
        let (acked, create_ok, full) = drive(&dir, Arc::new(FailpointVfs::new(plan.clone())), &ops);
        plan.disarm();
        assert!(!full, "armed run at point {point} must hit the fault");

        if !create_ok {
            // The store died before `create` returned: nothing was ever
            // acknowledged. Open may cleanly fail (no committed
            // generation) or recover the empty generation 0.
            // A clean `Err` is also sound: it is what the caller retries.
            if let Ok(store) = DurableIndex::open(&dir, opts()) {
                let mut b = Vec::new();
                store.index().snapshot().save(&mut b).unwrap();
                assert_eq!(b, states[0], "a partial create may only recover emptiness");
            }
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }

        let got = recovered_bytes(&dir);
        // Legal prefix: everything acked survived (fsync = Always), and at
        // most the single in-flight op may additionally have landed.
        let legal = &states[acked..(acked + 2).min(states.len())];
        assert!(
            legal.contains(&got),
            "point {point}: recovered state is not a legal prefix (acked {acked}, \
             matches oracle index {:?})",
            states.iter().position(|s| *s == got)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Read-path fault sweep: with short reads and dead-read errors injected
/// into `open` itself, recovery either fails with a clean error or lands on
/// *some* oracle prefix — never a panic, never a corrupt index.
#[test]
fn torn_reads_during_open_never_corrupt_recovery() {
    let ops = script();
    let states = oracle_states(&ops);

    // Build a full, healthy store on the real filesystem.
    let dir = tmp_dir("reads");
    let (acked, _, full) = drive(&dir, Arc::new(StdVfs), &ops);
    assert!(full);
    assert_eq!(acked + 1, states.len());

    // Counting pass for the read side.
    let plan = FaultPlan::new();
    plan.set_read_faults(true);
    plan.disarm();
    let vfs: Arc<dyn Vfs> = Arc::new(FailpointVfs::new(plan.clone()));
    DurableIndex::open_with_vfs(&dir, opts(), vfs.clone()).expect("disarmed open succeeds");
    let read_points = plan.points_passed();
    assert!(read_points >= 2, "open must at least read the manifest and the checkpoint");

    for point in 1..=read_points {
        plan.arm(point);
        // Short reads can shear off the manifest or a snapshot; the
        // fallback chain may still land on an older generation — any
        // oracle prefix is sound. A clean error is sound too: once the
        // armed point fires, every later I/O op fails (the process is
        // "dead"), so even the fallback chain can be cut short.
        if let Ok(store) = DurableIndex::open_with_vfs(&dir, opts(), vfs.clone()) {
            let mut b = Vec::new();
            store.index().snapshot().save(&mut b).unwrap();
            assert!(
                states.contains(&b),
                "read-fault point {point}: recovered state is not any oracle prefix"
            );
        }
        plan.disarm();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-flip the on-disk files of a committed store: open must never panic,
/// and whenever it succeeds the state must be a legal oracle prefix.
#[test]
fn flipping_bytes_in_any_store_file_never_panics_open() {
    let ops = script();
    let states = oracle_states(&ops);
    let dir = tmp_dir("flip");
    let (_, _, full) = drive(&dir, Arc::new(StdVfs), &ops);
    assert!(full);

    // Snapshot the whole committed directory: `open` on a corrupt store may
    // legitimately rewrite it (recovery checkpoints after a torn WAL), so
    // every iteration starts from a pristine restore.
    let pristine: Vec<(String, Vec<u8>)> = StdVfs
        .list(&dir)
        .unwrap()
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).unwrap();
            (n, bytes)
        })
        .collect();
    let restore = |dir: &PathBuf| {
        for n in StdVfs.list(dir).unwrap() {
            std::fs::remove_file(dir.join(n)).unwrap();
        }
        for (n, bytes) in &pristine {
            std::fs::write(dir.join(n), bytes).unwrap();
        }
    };
    let fast = DurabilityOptions { fsync: FsyncPolicy::Never, ..opts() };

    for (name, clean) in &pristine {
        // Stride through the file so the test stays fast on big snapshots;
        // byte-exhaustive coverage of the v6 format itself lives in the
        // serialize unit tests.
        for i in (0..clean.len()).step_by(7) {
            restore(&dir);
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            std::fs::write(dir.join(name), &corrupt).unwrap();
            if let Ok(store) = DurableIndex::open(&dir, fast.clone()) {
                let mut b = Vec::new();
                store.index().snapshot().save(&mut b).unwrap();
                assert!(
                    states.contains(&b),
                    "flip {name}@{i}: open succeeded with a non-prefix state"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit rot in a segment file: one only the committed generation references
/// costs that generation — recovery falls back to the previous checkpoint
/// and its complete WAL, i.e. the state at the damaged generation's own
/// checkpoint — and one both generations reference cannot be recovered
/// from, which must be a clean `InvalidData`, not a panic or a wrong index.
#[test]
fn a_damaged_segment_file_falls_back_one_generation_or_fails_cleanly() {
    let mut ops: Vec<Op> = (0..12).map(Op::Insert).collect();
    ops.extend([Op::Freeze, Op::Checkpoint]);
    ops.extend((12..24).map(Op::Insert));
    ops.extend([Op::Delete(3), Op::Freeze, Op::Checkpoint]);
    let mutations_checkpointed = ops.iter().filter(|op| !matches!(op, Op::Checkpoint)).count();
    ops.extend((24..28).map(Op::Insert));
    let states = oracle_states(&ops);

    let seg_files = |dir: &PathBuf| -> Vec<String> {
        let names = StdVfs.list(dir).unwrap();
        names.into_iter().filter(|n| n.starts_with("seg-")).collect()
    };
    let build = |tag: &str| {
        let dir = tmp_dir(tag);
        let split = ops.iter().position(|op| matches!(op, Op::Checkpoint)).unwrap() + 1;
        let idx = SegmentedAcornIndex::new(DIM, params(), AcornVariant::Gamma);
        let mut store = DurableIndex::create(&dir, idx, opts()).unwrap();
        let run = |store: &mut DurableIndex, ops: &[Op]| {
            ops.iter().for_each(|&op| apply_durable(store, op).unwrap());
        };
        run(&mut store, &ops[..split]);
        let in_both = seg_files(&dir);
        run(&mut store, &ops[split..]);
        assert_eq!(store.generation(), 2);
        let only_in_newest: Vec<String> =
            seg_files(&dir).into_iter().filter(|n| !in_both.contains(n)).collect();
        assert_eq!((in_both.len(), only_in_newest.len()), (1, 1));
        (dir, in_both[0].clone(), only_in_newest[0].clone())
    };
    let flip = |dir: &PathBuf, name: &str| {
        let mut bytes = std::fs::read(dir.join(name)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(dir.join(name), bytes).unwrap();
    };

    let (dir, _, only_in_newest) = build("rot-newest");
    flip(&dir, &only_in_newest);
    let store = DurableIndex::open(&dir, opts()).expect("the previous generation is intact");
    assert_eq!(store.generation(), 1);
    let mut got = Vec::new();
    store.index().snapshot().save(&mut got).unwrap();
    assert!(
        got == states[mutations_checkpointed],
        "generation 1 + its whole WAL is the state at the second checkpoint; got oracle index {:?}",
        states.iter().position(|s| *s == got)
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let (dir, in_both, _) = build("rot-both");
    flip(&dir, &in_both);
    let err = DurableIndex::open(&dir, opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "unexpected: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
