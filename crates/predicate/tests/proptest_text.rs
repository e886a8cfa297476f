//! Property tests: a text column's arena answers as its strings do.
//!
//! `AttrStoreBuilder::build` copies every text column into one
//! `TextArena`, and only the block kernels read it: `literal_block` (a
//! substring scan per run of active rows) and, through it,
//! `Regex::match_block`. The interpreter (`Predicate::eval`) still reads
//! each row's own `String`, so it is an independent oracle here.
//!
//! Texts are empty, ASCII or multibyte (`é`, `日本`, emoji), and rows are
//! long enough that one needle scan takes several 32-byte steps. Needles of
//! 1 to 40 bytes are drawn from the rows, from pieces, and planted across a
//! row end — split between the tail of one row and the head of the next,
//! where they must not match. Active masks are scattered runs; ranges start
//! unaligned and end in partial blocks; regexes sit under `And`, `Or` and
//! `Not`. The kernels run on whichever body `kernel_path` picked for this
//! process, and on the scalar one, so CI runs this file with
//! `ACORN_FORCE_SCALAR=0` and `=1`.

use acorn_predicate::kernels::{kernel_path, literal_block, KernelPath};
use acorn_predicate::{AttrStore, Bitset, CompiledPredicate, Predicate, Regex, TextArena};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// What rows and needles are made of: ASCII words, one- to four-byte code
/// points, a combining accent, and a NUL (the arena's padding byte).
const PIECES: [&str; 14] =
    ["a", "b", "ab", "dog", "photo", " ", "9", "é", "日本", "🦀", "e\u{301}", "ba", "\0", "xyz"];

fn piece(rng: &mut StdRng) -> &'static str {
    PIECES[rng.gen_range(0..PIECES.len())]
}

/// Up to `most` pieces; a fifth of the rows are empty.
fn text(rng: &mut StdRng, most: usize) -> String {
    if rng.gen_bool(0.2) {
        return String::new();
    }
    (0..rng.gen_range(1..=most)).map(|_| piece(rng)).collect()
}

/// The longest prefix of `s` of at most `max` bytes that ends on a char
/// boundary.
fn clip(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// `n` rows, some of them holding a needle split across their end and the
/// next row's start. Returns the rows and the split needles.
fn rows_with_split_needles(rng: &mut StdRng, n: usize) -> (Vec<String>, Vec<String>) {
    let mut rows: Vec<String> = (0..n).map(|_| text(rng, 30)).collect();
    let mut split = Vec::new();
    for _ in 0..n / 8 {
        let r = rng.gen_range(0..n.saturating_sub(1).max(1));
        if r + 1 >= n {
            break;
        }
        let needle: String = (0..rng.gen_range(2..6)).map(|_| piece(rng)).collect();
        let needle = clip(&needle, 40).to_string();
        let cuts: Vec<usize> = (1..needle.len()).filter(|&i| needle.is_char_boundary(i)).collect();
        if cuts.is_empty() {
            continue;
        }
        let cut = cuts[rng.gen_range(0..cuts.len())];
        rows[r].push_str(&needle[..cut]);
        rows[r + 1].insert_str(0, &needle[cut..]);
        split.push(needle);
    }
    (rows, split)
}

/// A needle of 1 to 40 bytes: a split one, a piece of a row, or new pieces.
fn needle(rng: &mut StdRng, rows: &[String], split: &[String]) -> String {
    let drawn = match rng.gen_range(0..3) {
        0 if !split.is_empty() => split[rng.gen_range(0..split.len())].clone(),
        1 => {
            let row = &rows[rng.gen_range(0..rows.len())];
            let starts: Vec<usize> = (0..row.len()).filter(|&i| row.is_char_boundary(i)).collect();
            if starts.is_empty() {
                piece(rng).to_string()
            } else {
                let from = starts[rng.gen_range(0..starts.len())];
                clip(&row[from..], rng.gen_range(1..=40)).to_string()
            }
        }
        _ => (0..rng.gen_range(1..12)).map(|_| piece(rng)).collect(),
    };
    let clipped = clip(&drawn, 40);
    if clipped.is_empty() {
        piece(rng).to_string()
    } else {
        clipped.to_string()
    }
}

/// A mask of scattered runs of set bits, random run and gap lengths.
fn scattered_runs(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..6) {
        0 => u64::MAX,
        1 => rng.next_u64(),
        _ => {
            let (mut mask, mut at) = (0u64, rng.gen_range(0..8u32));
            while at < 64 {
                let len = rng.gen_range(1..=20u32).min(64 - at);
                mask |= u64::MAX >> (64 - len) << at;
                at += len + rng.gen_range(1..24u32);
            }
            mask
        }
    }
}

/// A pattern over `needles`: literal, alternation, wildcard, anchored, or
/// with a class between two runs.
fn pattern(rng: &mut StdRng, needles: &[String]) -> String {
    let mut pick = || needles[rng.gen_range(0..needles.len())].replace('\0', "");
    let (a, b) = (pick(), pick());
    match rng.gen_range(0..7) {
        0 => a,
        1 => format!("({a}|{b})"),
        2 => format!("{a}.*{b}"),
        3 => format!("^{a}.*{b}"),
        4 => format!("{a}[0-9 ]?{b}"),
        5 => format!("{a}$"),
        _ => format!("(ab|dog)+.*{a}"),
    }
}

fn regex_leaf(rng: &mut StdRng, needles: &[String]) -> Predicate {
    let regex = Regex::new(&pattern(rng, needles)).expect("pieces hold no metacharacters");
    Predicate::RegexMatch { field: 1, regex }
}

/// Regexes alone and under `And`, `Or` and `Not`, beside int leaves.
fn text_pred(rng: &mut StdRng, needles: &[String], depth: usize) -> Predicate {
    let int_leaf = |rng: &mut StdRng| Predicate::Between {
        field: 0,
        lo: rng.gen_range(0..10),
        hi: rng.gen_range(0..10),
    };
    if depth == 0 {
        return match rng.gen_range(0..4) {
            0 => int_leaf(rng),
            _ => regex_leaf(rng, needles),
        };
    }
    let child = |rng: &mut StdRng| text_pred(rng, needles, depth - 1);
    match rng.gen_range(0..5) {
        0 => Predicate::Not(Box::new(child(rng))),
        1 => Predicate::And((0..rng.gen_range(1..4)).map(|_| child(rng)).collect()),
        2 => Predicate::Or((0..rng.gen_range(1..4)).map(|_| child(rng)).collect()),
        _ => regex_leaf(rng, needles),
    }
}

/// A store of `n` rows: an int column, then the text column.
fn store(rows: Vec<String>, rng: &mut StdRng) -> AttrStore {
    let ints = (0..rows.len()).map(|_| rng.gen_range(0..10)).collect();
    AttrStore::builder().add_int("x", ints).add_text("cap", rows).build()
}

/// `literal_block` on `path` against `str::contains` over the rows' own
/// strings.
fn check_literal(
    path: KernelPath,
    arena: &TextArena,
    rows: &[String],
    base: usize,
    active: u64,
    needle: &str,
) -> Result<(), TestCaseError> {
    let mut want = 0u64;
    for i in (0..64).filter(|&i| active >> i & 1 == 1) {
        want |= u64::from(rows[base + i].contains(needle)) << i;
    }
    let got = literal_block(path, arena, base, active, needle);
    prop_assert_eq!(got, want, "{:?} needle {:?} at {} active {:#x}", path, needle, base, active);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every active mask shape at every kind of start, on both bodies; and
    /// each needle split across a row end over every whole block, where it
    /// matches neither row unless one of them holds it whole elsewhere.
    #[test]
    fn literal_block_is_contains_per_row(
        seed in 0u64..u64::MAX,
        n in prop::sample::select(vec![1usize, 2, 31, 64, 65, 130, 300]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, split) = rows_with_split_needles(&mut rng, n);
        let s = store(rows.clone(), &mut rng);
        let arena = s.text_arena(1);
        for _ in 0..24 {
            let needle = needle(&mut rng, &rows, &split);
            prop_assert!((1..=40).contains(&needle.len()));
            let base = rng.gen_range(0..n);
            let in_range = u64::MAX >> (64 - (n - base).min(64));
            let active = scattered_runs(&mut rng) & in_range;
            check_literal(kernel_path(), arena, &rows, base, active, &needle)?;
            check_literal(KernelPath::Scalar, arena, &rows, base, active, &needle)?;
        }
        for needle in &split {
            for base in (0..n).step_by(64) {
                let in_range = u64::MAX >> (64 - (n - base).min(64));
                check_literal(kernel_path(), arena, &rows, base, in_range, needle)?;
            }
        }
    }

    /// Regex programs, alone and nested, over unaligned ranges with partial
    /// last blocks: the dispatched and the scalar range kernels both equal
    /// the interpreter row by row.
    #[test]
    fn regex_programs_over_the_arena_equal_the_interpreter(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..260usize);
        let (rows, split) = rows_with_split_needles(&mut rng, n);
        let needles: Vec<String> = (0..6).map(|_| needle(&mut rng, &rows, &split)).collect();
        let s = store(rows, &mut rng);
        let mut out = Bitset::full(300);
        for _ in 0..6 {
            let pred = text_pred(&mut rng, &needles, 2);
            let compiled = CompiledPredicate::compile(&pred);
            let start = rng.gen_range(0..n);
            let len = rng.gen_range(1..=n - start);
            let want = Bitset::from_ids(
                len,
                (0..len as u32).filter(|&i| pred.eval(&s, start as u32 + i)),
            );
            let span = start as u32..=(start + len - 1) as u32;
            compiled.to_bitset_range(&s, span.clone(), &mut out);
            prop_assert_eq!(&out, &want, "dispatched {} rows {}+{}", pred.describe(&s), start, len);
            compiled.to_bitset_range_scalar(&s, span, &mut out);
            prop_assert_eq!(&out, &want, "scalar {} rows {}+{}", pred.describe(&s), start, len);
        }
    }
}
