//! The fallible doors are total: over a small lifecycle (inserts, a freeze,
//! deletes, and a durable store in a temp dir), every checked read and write
//! meets drawn bad input — vectors of the wrong length or with a NaN, -NaN
//! or ±∞ component, attribute stores shorter than the assigned gids,
//! predicates over an absent field or a field of another kind, gids at and
//! past the next one, and `k` / `efs` from 0 up to `usize::MAX` — and
//! (a) nothing panics, (b) each refusal is the typed error the boundary
//! rule gives, (c) a refusal spends nothing (epoch, next gid, rows, active
//! rows and WAL bytes stay put), and (d) the next valid insert gets the
//! next gid. Every case's reads take both routes: the frozen segment has
//! enough rows that its pure search at `k = 1`, beam 1 traverses, and a
//! beam past its rows scans it (the active segment has no graph and always
//! scans).
//!
//! The rule, in the order it is applied: a vector's length, then its first
//! non-finite component; then the attribute store's length, then every
//! field the predicate reads (`Equals`, `In` and `Between` read int,
//! `ContainsAny` and `ContainsAll` keywords, `RegexMatch` str).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use acorn_core::{
    AcornParams, AcornVariant, DurabilityOptions, DurableIndex, FsyncPolicy, GlobalNeighbor,
    PruneStrategy, QueryError, SegmentedAcornIndex,
};
use acorn_hnsw::{SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, Predicate, Regex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 4;

fn params(seed: u64) -> AcornParams {
    AcornParams { m: 4, gamma: 3, m_beta: 6, ef_construction: 16, seed, ..Default::default() }
}

fn tmp_dir() -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "acorn-total-api-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn row(rng: &mut StdRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// A vector of drawn length, half the time with a drawn component made
/// NaN, -NaN or ±∞, and the error the vector rule gives it.
fn drawn_vector(rng: &mut StdRng) -> (Vec<f32>, Option<QueryError>) {
    let len = rng.gen_range(0..=DIM + 2);
    let mut v: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if len > 0 && rng.gen_range(0..2) == 0 {
        let index = rng.gen_range(0..len);
        v[index] =
            [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..4usize)];
        if len == DIM {
            return (v, Some(QueryError::NonFinite { index }));
        }
    }
    let want = (len != DIM).then_some(QueryError::Dimension { expected: DIM, got: len });
    (v, want)
}

/// An attribute store over `rows` gids: `v` int, `kw` keywords, `cap` str.
fn attrs(rows: u64) -> AttrStore {
    AttrStore::builder()
        .add_int("v", (0..rows as i64).map(|g| g % 10).collect())
        .add_keywords("kw", (0..rows).map(|g| 1 << (g % 5)).collect())
        .add_text("cap", (0..rows).map(|g| format!("row {g}")).collect())
        .build()
}

/// A predicate over [`attrs`]'s fields and the field error it must meet.
fn drawn_predicate(rng: &mut StdRng) -> (Predicate, Option<QueryError>) {
    let field = |field, reads, holds| Some(QueryError::Field { field, reads, holds });
    let regex = || Regex::new("row 1").unwrap();
    match rng.gen_range(0..10) {
        0 => (Predicate::True, None),
        1 => (Predicate::Between { field: 0, lo: 2, hi: 6 }, None),
        2 => (Predicate::ContainsAny { field: 1, mask: 0b101 }, None),
        3 => (Predicate::RegexMatch { field: 2, regex: regex() }, None),
        4 => (Predicate::Equals { field: 7, value: 1 }, field(7, "int", None)),
        5 => (Predicate::Equals { field: 2, value: 1 }, field(2, "int", Some("str"))),
        6 => (Predicate::ContainsAll { field: 0, mask: 3 }, field(0, "keywords", Some("int"))),
        7 => {
            (Predicate::RegexMatch { field: 1, regex: regex() }, field(1, "str", Some("keywords")))
        }
        8 => (
            Predicate::And(vec![
                Predicate::Between { field: 0, lo: 0, hi: 4 },
                Predicate::Not(Box::new(Predicate::ContainsAny { field: 9, mask: 1 })),
            ]),
            field(9, "keywords", None),
        ),
        // A clause normalization would fold away is still read by the rule.
        _ => (
            Predicate::Or(vec![Predicate::True, Predicate::in_values(2, vec![1])]),
            field(2, "int", Some("str")),
        ),
    }
}

fn drawn_width(rng: &mut StdRng, rows: usize) -> usize {
    [0, 1, rows + 1, 1 << 40, usize::MAX][rng.gen_range(0..5usize)]
}

/// Run one door under `catch_unwind`, failing the case if it panics.
fn door<T>(name: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        TestCaseError::fail(format!("{name} panicked: {}", panic_message(&*payload)))
    })
}

/// The text a panic carried.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// What a write may spend: epoch, next gid, rows, active rows.
fn spent(idx: &SegmentedAcornIndex) -> (u64, u64, usize, usize) {
    let snap = idx.snapshot();
    (snap.epoch(), snap.next_global_id(), snap.total_rows(), idx.active_rows())
}

/// An answer of at most `k` live rows, nearest first.
fn check_hits(idx: &SegmentedAcornIndex, hits: &[GlobalNeighbor], k: usize) -> TestCaseResult {
    let snap = idx.snapshot();
    prop_assert!(hits.len() <= k.min(snap.len()), "{} hits for k {k}", hits.len());
    prop_assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist), "hits out of order");
    prop_assert!(hits.iter().all(|h| snap.contains(h.id)), "a dead row surfaced");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_fallible_door_refuses_bad_input_with_its_typed_error(
        seed in 0u64..u64::MAX,
        variant in prop::sample::select(vec![AcornVariant::Gamma, AcornVariant::One]),
        n0 in 64usize..96,
        n1 in 0usize..15,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = SegmentedAcornIndex::new(DIM, params(seed), variant);
        for _ in 0..n0 {
            idx.insert(&row(&mut rng));
        }
        idx.freeze();
        for _ in 0..n1 {
            idx.insert(&row(&mut rng));
        }
        for _ in 0..rng.gen_range(0..5) {
            idx.delete(rng.gen_range(0..(n0 + n1) as u64));
        }
        let dir = tmp_dir();
        let fresh = SegmentedAcornIndex::new(DIM, params(seed), variant);
        let opts = DurabilityOptions { fsync: FsyncPolicy::Never, ..Default::default() };
        let mut store = DurableIndex::create(&dir, fresh, opts).unwrap();
        for _ in 0..5 {
            store.insert(&row(&mut rng)).unwrap();
        }
        store.delete(2).unwrap();

        // ---- Reads: snapshot and pooled reader, pure and hybrid ----
        let snap = idx.snapshot();
        let (reader, next) = (idx.reader(), snap.next_global_id());
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        for _ in 0..12 {
            let (q, vector_error) = drawn_vector(&mut rng);
            let (pred, field_error) = drawn_predicate(&mut rng);
            let rows = [next - 1, next, next + 2][rng.gen_range(0..3usize)];
            let store_attrs = attrs(rows);
            let short = (rows < next)
                .then_some(QueryError::ShortAttrs { rows: rows as usize, next_global_id: next });
            let k = drawn_width(&mut rng, snap.total_rows());
            let efs = drawn_width(&mut rng, snap.total_rows());
            let ctx = format!("|q| {}, k {k}, efs {efs}, pred {pred:?}, attrs {rows}", q.len());

            let mut stats = SearchStats::default();
            let pure = door("search_with", || snap.search_with(&q, k, efs, &mut scratch, &mut stats))?;
            let pooled = door("IndexReader::search", || reader.search(&q, k, efs))?;
            match vector_error.clone() {
                Some(want) => {
                    prop_assert_eq!(&pure, &Err(want.clone()), "search_with, {}", ctx);
                    prop_assert_eq!(&pooled, &Err(want), "IndexReader::search, {}", ctx);
                }
                None => {
                    check_hits(&idx, &pure.clone().unwrap(), k)?;
                    prop_assert_eq!(&pooled, &pure, "the pooled read is the pinned one, {}", ctx);
                }
            }

            let hybrid = door("try_hybrid_search", || {
                snap.try_hybrid_search(&q, &pred, &store_attrs, k, efs, &mut scratch)
            })?;
            let pooled = door("IndexReader::hybrid_search", || {
                reader.hybrid_search(&q, &pred, &store_attrs, k, efs)
            })?;
            match vector_error.or(short).or(field_error) {
                Some(want) => {
                    prop_assert_eq!(&hybrid, &Err(want.clone()), "try_hybrid_search, {}", ctx);
                    prop_assert_eq!(&pooled, &Err(want), "IndexReader::hybrid_search, {}", ctx);
                }
                None => {
                    let (hits, _) = hybrid.clone().unwrap();
                    check_hits(&idx, &hits, k)?;
                    prop_assert_eq!(&pooled, &hybrid, "the pooled read is the pinned one, {}", ctx);
                }
            }
        }
        let q = row(&mut rng);
        for width in [1, usize::MAX] {
            let hits = door("IndexReader::search", || reader.search(&q, width, width))?;
            check_hits(&idx, &hits.unwrap(), width)?;
        }
        let m = reader.metrics();
        prop_assert!(m.segments_scanned > 0 && m.segments_traversed > 0, "both routes: {:?}", m);

        // ---- Writes: the writer's checked doors and the durable store ----
        for _ in 0..8 {
            let before = spent(&idx);
            let (v, want) = drawn_vector(&mut rng);
            let got = door("try_insert", || idx.try_insert(&v))?;
            match want {
                Some(want) => {
                    prop_assert_eq!(got, Err(want), "try_insert, |v| {}", v.len());
                    prop_assert_eq!(spent(&idx), before, "a refused insert spent nothing");
                }
                None => prop_assert_eq!(got, Ok(before.1), "a valid insert gets the next gid"),
            }

            let before = spent(&idx);
            let dim = rng.gen_range(DIM - 1..=DIM + 1);
            let n = rng.gen_range(0..4);
            let mut flat: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut want = (dim != DIM).then_some(QueryError::Dimension { expected: DIM, got: dim });
            if n > 0 && rng.gen_range(0..2) == 0 {
                let (r, index) = (rng.gen_range(0..n), rng.gen_range(0..dim));
                flat[r * dim + index] = f32::NAN;
                want = want.or(Some(QueryError::NonFiniteRow { row: r, index }));
            }
            let got = door("try_bulk_load", || idx.try_bulk_load(VectorStore::from_flat(dim, flat)))?;
            match want {
                Some(want) => {
                    prop_assert_eq!(got, Err(want), "try_bulk_load, {} rows of {}", n, dim);
                    prop_assert_eq!(spent(&idx), before, "a refused load spent nothing");
                }
                None => prop_assert_eq!(got, Ok(before.1..before.1 + n as u64)),
            }

            let before = spent(&idx);
            let gid = [before.1, before.1 + 1, u64::MAX][rng.gen_range(0..3usize)];
            prop_assert!(!door("delete", || idx.delete(gid))?, "gid {gid} was never assigned");
            prop_assert_eq!(spent(&idx), before, "deleting an unassigned gid spent nothing");

            let (before, wal) = (spent(store.index()), store.wal_bytes());
            let (v, want) = drawn_vector(&mut rng);
            let got = door("DurableIndex::insert", || store.insert(&v))?;
            match want {
                Some(want) => {
                    let err = got.unwrap_err();
                    prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
                    let inner = err.into_inner().and_then(|e| e.downcast::<QueryError>().ok());
                    prop_assert_eq!(inner.as_deref(), Some(&want), "DurableIndex::insert");
                    prop_assert_eq!(spent(store.index()), before, "a refused insert spent nothing");
                    prop_assert_eq!(store.wal_bytes(), wal, "a refused insert logged nothing");
                }
                None => prop_assert_eq!(got.unwrap(), before.1, "a valid insert gets the next gid"),
            }

            let (before, wal) = (spent(store.index()), store.wal_bytes());
            let gid = [before.1, before.1 + 1, u64::MAX][rng.gen_range(0..3usize)];
            let got = door("DurableIndex::delete", || store.delete(gid))?;
            prop_assert!(!got.unwrap(), "gid {gid} was never assigned");
            prop_assert_eq!(spent(store.index()), before, "deleting an unassigned gid spent nothing");
            prop_assert_eq!(store.wal_bytes(), wal, "deleting an unassigned gid logged nothing");
        }

        let next = idx.snapshot().next_global_id();
        prop_assert_eq!(idx.try_insert(&row(&mut rng)), Ok(next), "the next gid is unspent");
        let next = store.index().snapshot().next_global_id();
        prop_assert_eq!(store.insert(&row(&mut rng)).unwrap(), next, "the next gid is unspent");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Metadata-aware pruning needs node labels, which a segmented index never
/// has. Its constructor refuses the strategy, naming the door that takes
/// labels, so no `try_insert` or `try_bulk_load` can reach the prune that
/// would panic.
#[test]
fn the_segmented_constructor_refuses_label_pruning() {
    for variant in [AcornVariant::Gamma, AcornVariant::One] {
        let params = AcornParams { prune: PruneStrategy::RngMetadataAware, ..params(1) };
        let payload = catch_unwind(|| SegmentedAcornIndex::new(DIM, params, variant))
            .expect_err("the constructor refuses RngMetadataAware");
        let message = panic_message(&*payload);
        assert!(message.contains("AcornIndex::build_with_labels"), "{message}");
    }

    // Every other strategy builds past two rows through both fallible doors.
    for prune in [PruneStrategy::AcornCompress, PruneStrategy::RngBlind] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut idx =
            SegmentedAcornIndex::new(DIM, AcornParams { prune, ..params(2) }, AcornVariant::Gamma);
        for _ in 0..3 {
            door("try_insert", || idx.try_insert(&row(&mut rng))).unwrap().unwrap();
        }
        let flat = (0..4 * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let store = VectorStore::from_flat(DIM, flat);
        door("try_bulk_load", || idx.try_bulk_load(store)).unwrap().unwrap();
        assert_eq!(idx.snapshot().total_rows(), 7);
    }
}
