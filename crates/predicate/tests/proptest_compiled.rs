//! Property tests: the compiled predicate engine must be bit-identical to
//! interpreted AST evaluation over random predicates × random stores.
//!
//! Random ASTs are built with a seeded recursive generator (the vendored
//! proptest shim has no `prop_recursive`), covering all three column kinds,
//! empty `In` lists, unsorted `In` lists (canonicalized through
//! `in_values`), nested `Not`, empty/wide `And`/`Or`, regex clauses, and
//! block-boundary row counts (63/64/65).
//!
//! The block kernels run on whichever body `kernel_path` picked for this
//! process, so CI runs this file with `ACORN_FORCE_SCALAR=0` and `=1`; the
//! `kernel_*` properties aim at what a SIMD body could get wrong — partial
//! blocks at unaligned starts, signed compares at the `i64` extremes, the
//! `In` window edge, and keyword bit 63 — and hold the portable twin
//! `to_bitset_range_scalar` to the same oracle.

use acorn_predicate::{AttrStore, Bitset, CompiledPredicate, Predicate, Regex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const WORDS: [&str; 8] = ["red", "dog", "cat", "photo", "a9", "blue fish", "", "riverbed"];
const PATTERNS: [&str; 6] = ["^red", "dog", "(cat|fish)", "[0-9]", "photo .*d", "e$"];

fn random_store(n: usize, rng: &mut StdRng) -> AttrStore {
    AttrStore::builder()
        .add_int("x", (0..n).map(|_| rng.gen_range(-8i64..8)).collect())
        .add_keywords("kw", (0..n).map(|_| rng.gen_range(0u64..16)).collect())
        .add_text("cap", (0..n).map(|_| WORDS[rng.gen_range(0..WORDS.len())].to_string()).collect())
        .build()
}

fn random_pred(depth: usize, rng: &mut StdRng) -> Predicate {
    // Field ids match `random_store`'s build order: 0 = int, 1 = kw, 2 = cap.
    let leaf = |rng: &mut StdRng| match rng.gen_range(0..7) {
        0 => Predicate::True,
        1 => Predicate::Equals { field: 0, value: rng.gen_range(-8..8) },
        2 => {
            // 0–4 unsorted, possibly duplicated values (canonicalized by
            // in_values); sometimes a wide span to exercise InSorted.
            let len = rng.gen_range(0..5usize);
            let mut values: Vec<i64> = (0..len).map(|_| rng.gen_range(-8..8)).collect();
            if rng.gen_bool(0.3) {
                values.push(rng.gen_range(-1_000_000i64..1_000_000));
            }
            Predicate::in_values(0, values)
        }
        3 => {
            let (a, b) = (rng.gen_range(-9i64..9), rng.gen_range(-9i64..9));
            // lo > hi sometimes: an empty range must also agree.
            Predicate::Between { field: 0, lo: a, hi: b }
        }
        4 => Predicate::ContainsAny { field: 1, mask: rng.gen_range(0..16) },
        5 => Predicate::ContainsAll { field: 1, mask: rng.gen_range(0..16) },
        _ => Predicate::RegexMatch {
            field: 2,
            regex: Regex::new(PATTERNS[rng.gen_range(0..PATTERNS.len())]).unwrap(),
        },
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..6) {
        0..=2 => leaf(rng),
        3 => Predicate::Not(Box::new(random_pred(depth - 1, rng))),
        4 => Predicate::And(
            (0..rng.gen_range(0..4usize)).map(|_| random_pred(depth - 1, rng)).collect(),
        ),
        _ => Predicate::Or(
            (0..rng.gen_range(0..4usize)).map(|_| random_pred(depth - 1, rng)).collect(),
        ),
    }
}

/// Int values at and next to every edge a 64-bit compare or the `In`
/// window subtraction can get wrong.
const EDGES: [i64; 14] = [
    i64::MIN,
    i64::MIN + 1,
    i64::MIN + 63,
    i64::MIN + 64,
    -65,
    -1,
    0,
    1,
    63,
    64,
    i64::MAX - 64,
    i64::MAX - 63,
    i64::MAX - 1,
    i64::MAX,
];

fn edge(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..3) {
        0 => rng.gen_range(-70i64..70),
        _ => EDGES[rng.gen_range(0..EDGES.len())],
    }
}

/// Ints drawn from [`edge`]; keyword masks that set bit 63 half the time.
fn edge_store(n: usize, rng: &mut StdRng) -> AttrStore {
    AttrStore::builder()
        .add_int("x", (0..n).map(|_| edge(rng)).collect())
        .add_keywords(
            "kw",
            (0..n).map(|_| (rng.next_u64() & 0xF) | u64::from(rng.gen_bool(0.5)) << 63).collect(),
        )
        .build()
}

/// A cheap leaf aimed at a kernel edge: `Between` with extreme or inverted
/// bounds, `In` spanning exactly 63 (one bitmask) or 64 (binary search)
/// values, keyword masks with bit 63.
fn edge_leaf(rng: &mut StdRng) -> Predicate {
    match rng.gen_range(0..5) {
        0 => Predicate::Between { field: 0, lo: edge(rng), hi: edge(rng) },
        1 => Predicate::Equals { field: 0, value: edge(rng) },
        2 => {
            let span = rng.gen_range(63i64..65);
            let lo = edge(rng).min(i64::MAX - span);
            let mut values = vec![lo, lo + span];
            values.extend((0..rng.gen_range(0..6)).map(|_| lo + rng.gen_range(0..=span)));
            Predicate::in_values(0, values)
        }
        3 => Predicate::ContainsAny { field: 1, mask: 1 << 63 | rng.gen_range(0..16u64) },
        _ => Predicate::ContainsAll { field: 1, mask: 1 << 63 | rng.gen_range(0..4u64) },
    }
}

/// An edge leaf, or a `Not`/`And`/`Or` over two of them.
fn edge_pred(rng: &mut StdRng) -> Predicate {
    match rng.gen_range(0..5) {
        0 => Predicate::Not(Box::new(edge_leaf(rng))),
        1 => Predicate::And(vec![edge_leaf(rng), edge_leaf(rng)]),
        2 => Predicate::Or(vec![edge_leaf(rng), edge_leaf(rng)]),
        _ => edge_leaf(rng),
    }
}

/// `rows` of `store` through the dispatched and the scalar range kernels,
/// each checked against the interpreter row by row.
fn check_range(
    compiled: &CompiledPredicate,
    pred: &Predicate,
    store: &AttrStore,
    start: usize,
    len: usize,
    out: &mut Bitset,
) -> Result<(), TestCaseError> {
    let want =
        Bitset::from_ids(len, (0..len as u32).filter(|&i| pred.eval(store, start as u32 + i)));
    // `start..=start - 1` is the empty span (callers never start at 0 empty).
    let rows = start as u32..=(start + len) as u32 - 1;
    compiled.to_bitset_range(store, rows.clone(), out);
    prop_assert_eq!(&*out, &want, "dispatched, rows {}+{}", start, len);
    compiled.to_bitset_range_scalar(store, rows, out);
    prop_assert_eq!(&*out, &want, "scalar, rows {}+{}", start, len);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every span length from 0 to 130 at unaligned starts: zero, one and
    /// two full blocks, each followed by every possible partial block.
    #[test]
    fn kernel_ranges_of_every_tail_length_at_unaligned_starts(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = edge_store(400, &mut rng);
        let pred = edge_pred(&mut rng);
        let compiled = CompiledPredicate::compile(&pred);
        let mut out = Bitset::full(500);
        for start in [1usize, 37, 63, 65, 127, 200 + rng.gen_range(0usize..64)] {
            for len in 0..=130 {
                check_range(&compiled, &pred, &store, start, len, &mut out)?;
            }
        }
    }

    /// The edge leaves over whole stores of block-boundary sizes.
    #[test]
    fn kernel_edges_equal_the_interpreter(
        seed in 0u64..u64::MAX,
        n in prop::sample::select(vec![1usize, 63, 64, 65, 128, 129, 300]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = edge_store(n, &mut rng);
        let mut out = Bitset::new(0);
        for _ in 0..8 {
            let pred = edge_pred(&mut rng);
            let compiled = CompiledPredicate::compile(&pred);
            for id in 0..n as u32 {
                prop_assert_eq!(compiled.eval(&store, id), pred.eval(&store, id), "row {}", id);
            }
            let oracle = Bitset::from_ids(n, (0..n as u32).filter(|&i| pred.eval(&store, i)));
            prop_assert_eq!(&compiled.to_bitset(&store), &oracle);
            check_range(&compiled, &pred, &store, 0, n, &mut out)?;
        }
    }

    #[test]
    fn compiled_equals_interpreted_everywhere(
        seed in 0u64..u64::MAX,
        n in prop::sample::select(vec![0usize, 1, 2, 63, 64, 65, 127, 128, 129, 200]),
        depth in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = random_store(n, &mut rng);
        let pred = random_pred(depth, &mut rng);
        let compiled = CompiledPredicate::compile(&pred);
        let normalized = pred.clone().normalize();

        // Scalar: compiled and normalized agree with the interpreted oracle
        // on every row.
        for id in 0..n as u32 {
            let want = pred.eval(&store, id);
            prop_assert_eq!(compiled.eval(&store, id), want, "compiled row {}", id);
            prop_assert_eq!(normalized.eval(&store, id), want, "normalized row {}", id);
        }

        // Block materialization: identical to the per-row oracle bitset,
        // including tail-block masking.
        let oracle = Bitset::from_ids(n, (0..n as u32).filter(|&i| pred.eval(&store, i)));
        prop_assert_eq!(&compiled.to_bitset(&store), &oracle);
        prop_assert_eq!(&pred.to_bitset(&store), &oracle);
        if n % 64 != 0 && !oracle.words().is_empty() {
            let last = compiled.to_bitset(&store);
            let tail = last.words()[oracle.words().len() - 1];
            prop_assert_eq!(tail >> (n % 64), 0, "bits beyond n must be zero");
        }
    }

    /// The range kernel is the matching slice of the whole-store kernel for
    /// every start/end, aligned or not, and it recycles its output bitmap.
    #[test]
    fn to_bitset_range_is_a_slice_of_to_bitset(
        seed in 0u64..u64::MAX,
        n in prop::sample::select(vec![0usize, 1, 63, 64, 65, 200]),
        depth in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = random_store(n, &mut rng);
        let pred = random_pred(depth, &mut rng);
        let compiled = CompiledPredicate::compile(&pred);
        let whole = compiled.to_bitset(&store);

        // One recycled output across every range: stale words from a wider
        // previous range must never leak into a narrower one.
        let mut out = Bitset::full(333);
        #[allow(clippy::reversed_empty_ranges)]
        compiled.to_bitset_range(&store, 1..=0, &mut out);
        prop_assert_eq!(&out, &Bitset::new(0), "an empty range yields the empty universe");
        let mut bounds: Vec<usize> = vec![0, 1, 31, 62, 63, 64, 65, 127, 128, 199];
        bounds.extend((0..4).map(|_| rng.gen_range(0..n.max(1))));
        bounds.retain(|&b| b < n);
        for &start in &bounds {
            for &end in &bounds {
                if start > end {
                    continue;
                }
                compiled.to_bitset_range(&store, start as u32..=end as u32, &mut out);
                let want = Bitset::from_ids(
                    end - start + 1,
                    (start..=end).filter(|&r| whole.get(r as u32)).map(|r| (r - start) as u32),
                );
                prop_assert_eq!(&out, &want, "rows {}..={} of {}", start, end, n);
            }
        }
    }

    /// `as_const` is `Some(b)` exactly when normalization folded the whole
    /// predicate to the constant `b`.
    #[test]
    fn as_const_matches_the_folded_ast(seed in 0u64..u64::MAX, depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = random_store(70, &mut rng);
        let pred = random_pred(depth, &mut rng);
        let compiled = CompiledPredicate::compile(&pred);
        let normalized = pred.clone().normalize();
        let folded = match &normalized {
            Predicate::True => Some(true),
            Predicate::Not(p) if matches!(**p, Predicate::True) => Some(false),
            _ => None,
        };
        prop_assert_eq!(compiled.as_const(), folded);
        if let Some(b) = compiled.as_const() {
            prop_assert_eq!(compiled.num_ops(), 1, "a constant program is one node");
            for id in 0..70u32 {
                prop_assert_eq!(pred.eval(&store, id), b, "row {}", id);
            }
        }
    }

    #[test]
    fn normalize_is_idempotent(seed in 0u64..u64::MAX, depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = random_store(80, &mut rng);
        let pred = random_pred(depth, &mut rng);
        let once = pred.clone().normalize();
        let twice = once.clone().normalize();
        for id in 0..80u32 {
            prop_assert_eq!(once.eval(&store, id), twice.eval(&store, id), "row {}", id);
        }
        // A normalized tree lowers to the same program size as its own
        // normalization — i.e. normalize left nothing foldable behind.
        prop_assert_eq!(
            CompiledPredicate::compile(&once).num_ops(),
            CompiledPredicate::compile(&twice).num_ops()
        );
    }
}
