//! The compiled predicate engine: vectorized 64-row block evaluation.
//!
//! The hybrid query path is predicate-bound — tens of thousands of
//! `Predicate::eval` AST walks per query against only hundreds of distance
//! computations when evaluated naively. ACORN's cost model (§6.3.2) *assumes*
//! the predicate check is a cheap constant-time operation; this module makes
//! that true by lowering the [`Predicate`] AST once per query into a flat
//! [`CompiledPredicate`] program:
//!
//! * the AST is [normalized](Predicate::normalize) first (constant-folded,
//!   `And`/`Or`-flattened, clauses stably reordered cheapest-first), so
//!   short-circuit evaluation runs constant-time compares before any
//!   `RegexMatch`;
//! * nodes live in one contiguous arena (`Vec<Op>`, children by index)
//!   instead of a pointer tree, and `In` lists are lowered to a binary
//!   search — or a single bitmask test when the value span fits in 64;
//! * every kernel evaluates a **64-row block** directly against the columnar
//!   [`AttrStore`] slices into a `u64` mask word — the cheap leaves on the
//!   branch-free scalar or AVX2 bodies in [`kernels`]. `And`/`Or` combine
//!   words with short-circuiting *active masks*: a child only evaluates rows
//!   still undecided, so a regex clause behind a cheap date filter runs on
//!   the few rows that survive the date check.
//!
//! [`CompiledPredicate::eval`] answers one row at a time.
//! [`CompiledPredicate::to_bitset_range`] is the word-at-a-time columnar
//! scan over one segment's row span.
//!
//! ## Two routes to a bitmap
//!
//! A program whose root is an int `Equals`, `Between` or `In` — or an `And`
//! with such a conjunct, the first one in its cheapest-first order — can be
//! materialized without evaluating every row. Each int column carries its
//! rows ordered by value, with every 64th value beside them as a fence
//! ([`AttrStore`] builds both), so each value range of that conjunct is
//! two searches — of the fences, then of the 64 rows between two — and
//! the rows between them are exactly its passing rows:
//!
//! * **the ordered route**: [`CompiledPredicate::ordered_candidates`] sets
//!   those rows (the *candidates*) in one store-wide bitmap, and
//!   [`CompiledPredicate::ordered_range`] cuts a span out of it (a word
//!   shift) and runs the `And`'s other conjuncts through the block kernels
//!   on the candidate rows alone;
//! * **the block route**: the block kernels over every row of the span.
//!
//! One rule picks, for [`CompiledPredicate::to_bitset`] and for the hybrid
//! query planner alike: the ordered route when its candidates, as the
//! fences count them, cost less than evaluating the spanned rows would
//! (`ordered_wins`; the constants and their fit are in this module's
//! source), which on a 2-vCPU AVX2 host means fewer than about a quarter
//! of the spanned rows. Rejecting the ordered route costs the fence
//! searches alone (~0.25 µs a query on the repo benchmark's 32,000 rows). Either route
//! yields the same bits. Results are bit-identical to interpreted
//! evaluation (property tested over random ASTs × stores, each route
//! forced in turn).

use std::ops::RangeInclusive;

use crate::attrs::AttrStore;
use crate::bitmap::Bitset;
use crate::filter::NodeFilter;
use crate::kernels::{self, kernel_path, KernelPath};
use crate::predicate::Predicate;
use crate::regex::Regex;
use crate::FieldId;

/// Coarse per-row cost of a compiled predicate. The hybrid query planner
/// (`acorn_core::plan`) no longer reads it — it materializes every segment
/// whatever the cost — but the repo benchmark's staged replay still uses it
/// to choose between lazy memoized evaluation and up-front block
/// materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Bounded per-row work: column compares, membership tests, and their
    /// boolean combinations.
    Cheap,
    /// Contains a regex: per-row cost is unbounded, so evaluating each row
    /// **at most once** (materialize, then test bits) always wins.
    Expensive,
}

/// One node of the flattened program. Children are arena indices; a node's
/// children always precede it (post-order lowering), so the root is last.
#[derive(Debug, Clone)]
enum Op {
    /// Constant result (folded `True` / `!true`).
    Const(bool),
    /// `column[id] == value`.
    Equals { field: FieldId, value: i64 },
    /// `lo <= column[id] <= hi`.
    Between { field: FieldId, lo: i64, hi: i64 },
    /// Small-span membership: bit `v - base` of `mask`.
    InMask { field: FieldId, base: i64, mask: u64 },
    /// General sorted membership via binary search.
    InSorted { field: FieldId, values: Vec<i64> },
    /// `column[id] & mask != 0`.
    ContainsAny { field: FieldId, mask: u64 },
    /// `column[id] & mask == mask`.
    ContainsAll { field: FieldId, mask: u64 },
    /// Regex search over a text column: one row through
    /// [`Regex::is_match`] on the column's string, a block through
    /// [`Regex::match_block`] on the column's arena, so the block never
    /// touches the per-row strings.
    Regex { field: FieldId, regex: Regex },
    /// Conjunction over children (cheapest-first).
    And { children: Vec<u32> },
    /// Disjunction over children (cheapest-first).
    Or { children: Vec<u32> },
    /// Negation.
    Not { child: u32 },
}

/// A [`Predicate`] lowered to a flat block-evaluable program.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    ops: Vec<Op>,
    root: u32,
    has_regex: bool,
    /// The int leaf the ordered index can answer: the root itself, or the
    /// first such conjunct of a root `And`.
    ordered: Option<u32>,
}

/// Which kernels materialize a program: the rule's choice, or one route
/// forced (the seam this crate's tests hold both routes to the interpreter
/// through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// Whichever route [`ordered_wins`] picks.
    Rule,
    /// The ordered index, whenever the program has an indexable conjunct.
    #[cfg_attr(not(test), allow(dead_code))]
    Ordered,
    /// The block kernels over every row.
    Blocks,
}

// The work rule between the two routes, in units of one row evaluated by
// a cheap block kernel. Fitted on a `Between` over 32,000- and
// 1,000,000-row columns of uniform values, 1–50 % of the rows passing,
// each route forced in turn (a 2-vCPU AVX2 host, the planner's pooled
// bitmaps; `benches/predicate_eval.rs`'s `to_bitset` rows time the rule's
// choice against `to_bitset_range`):
// - the block route costs ~0.19 ns a row at 32,000 rows and ~0.25 at
//   1,000,000, whatever passes: one unit per spanned row;
// - the ordered route costs ~0.8 ns per candidate at both sizes — reading
//   its row id from the order and setting one bit of the store-wide
//   bitmap, a random write — so `ORDERED_ROW` units, plus ~0.011 ns per
//   row of the store for zeroing that bitmap and cutting the spans out of
//   it, `ORDERED_CLEAR` units.
// The routes tie at ~21 % passing at 32,000 rows and ~30 % at 1,000,000;
// the rule switches at ~24 %.

/// Ordered-route work per candidate row.
const ORDERED_ROW: f64 = 4.0;
/// Ordered-route work per row of the store.
const ORDERED_CLEAR: f64 = 0.05;

/// Whether `candidates` rows set through the ordered index, in a store of
/// `store_rows`, cost no more than the block kernels over `spanned` rows.
fn ordered_wins(candidates: usize, spanned: usize, store_rows: usize) -> bool {
    candidates as f64 * ORDERED_ROW + store_rows as f64 * ORDERED_CLEAR <= spanned as f64
}

impl CompiledPredicate {
    /// Lower `predicate` into its compiled form. The input is normalized
    /// first (see [`Predicate::normalize`]); the original value is not
    /// modified. Compilation is cheap — linear in the AST size — and done
    /// once per query.
    pub fn compile(predicate: &Predicate) -> Self {
        let normalized = predicate.clone().normalize();
        let mut ops = Vec::new();
        let root = lower(&normalized, &mut ops);
        let has_regex = ops.iter().any(|op| matches!(op, Op::Regex { .. }));
        let indexable = |&i: &u32| {
            matches!(
                ops[i as usize],
                Op::Equals { .. } | Op::Between { .. } | Op::InMask { .. } | Op::InSorted { .. }
            )
        };
        let ordered = match &ops[root as usize] {
            Op::And { children } => children.iter().copied().find(indexable),
            _ => Some(root).filter(indexable),
        };
        Self { ops, root, has_regex, ordered }
    }

    /// Number of program nodes (after folding and flattening).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The dispatch cost class (see [`CostClass`]).
    pub fn cost_class(&self) -> CostClass {
        if self.has_regex {
            CostClass::Expensive
        } else {
            CostClass::Cheap
        }
    }

    /// The program's value when it folded to a constant: `Some(true)` for
    /// `Predicate::True` and anything normalization reduces to it,
    /// `Some(false)` for the canonical constant-false forms (empty `In`,
    /// `!true`), `None` when the result depends on the row. Normalization
    /// leaves constants only at the root, so this is one tag test — the
    /// hybrid query planner uses it to skip materializing and filtering
    /// outright.
    pub fn as_const(&self) -> Option<bool> {
        match self.ops[self.root as usize] {
            Op::Const(b) => Some(b),
            _ => None,
        }
    }

    /// Evaluate one row; bit-identical to `Predicate::eval` on the source
    /// AST. The scalar kernel behind lazy filtering ([`CompiledFilter`]);
    /// the engine's planner materializes with the block kernels instead.
    #[inline]
    pub fn eval(&self, attrs: &AttrStore, id: u32) -> bool {
        self.eval_op(self.root, attrs, id)
    }

    fn eval_op(&self, op: u32, attrs: &AttrStore, id: u32) -> bool {
        match &self.ops[op as usize] {
            Op::Const(b) => *b,
            Op::Equals { field, value } => attrs.int(*field, id) == *value,
            Op::Between { field, lo, hi } => kernels::between(attrs.int(*field, id), *lo, *hi),
            Op::InMask { field, base, mask } => {
                kernels::in_mask(attrs.int(*field, id), *base, *mask)
            }
            Op::InSorted { field, values } => values.binary_search(&attrs.int(*field, id)).is_ok(),
            Op::ContainsAny { field, mask } => attrs.keywords(*field, id) & mask != 0,
            Op::ContainsAll { field, mask } => attrs.keywords(*field, id) & mask == *mask,
            Op::Regex { field, regex } => regex.is_match(attrs.text(*field, id)),
            Op::And { children } => children.iter().all(|&c| self.eval_op(c, attrs, id)),
            Op::Or { children } => children.iter().any(|&c| self.eval_op(c, attrs, id)),
            Op::Not { child } => !self.eval_op(*child, attrs, id),
        }
    }

    /// Block kernel: evaluate the rows whose bits are set in `active`,
    /// returning the subset that passes. Cheap leaves compute the whole
    /// block branchlessly on `path`'s body and mask afterwards
    /// ([`kernels`]). A regex reads only the active rows of its column's
    /// [`TextArena`](crate::attrs::TextArena) ([`Regex::match_block`]: its
    /// literals scanned as byte spans on `path`'s body, the automaton run
    /// on the rows that hold them), which is what makes cheapest-first
    /// `And` ordering pay off.
    fn eval_block_masked(
        &self,
        path: KernelPath,
        op: u32,
        attrs: &AttrStore,
        base: usize,
        active: u64,
    ) -> u64 {
        match &self.ops[op as usize] {
            Op::Const(b) => {
                if *b {
                    active
                } else {
                    0
                }
            }
            Op::Equals { field, value } => {
                kernels::equals_block(path, attrs.ints(*field), base, *value) & active
            }
            Op::Between { field, lo, hi } => {
                kernels::between_block(path, attrs.ints(*field), base, *lo, *hi) & active
            }
            Op::InMask { field, base: b0, mask } => {
                kernels::in_mask_block(path, attrs.ints(*field), base, *b0, *mask) & active
            }
            Op::InSorted { field, values } => {
                let hit = |v| values.binary_search(&v).is_ok();
                kernels::scalar_block(attrs.ints(*field), base, hit) & active
            }
            Op::ContainsAny { field, mask } => {
                kernels::contains_any_block(path, attrs.keyword_masks(*field), base, *mask) & active
            }
            Op::ContainsAll { field, mask } => {
                kernels::contains_all_block(path, attrs.keyword_masks(*field), base, *mask) & active
            }
            Op::Regex { field, regex } => {
                regex.match_block(path, attrs.text_arena(*field), base, active)
            }
            Op::And { children } => {
                let mut acc = active;
                for &c in children {
                    if acc == 0 {
                        break;
                    }
                    acc = self.eval_block_masked(path, c, attrs, base, acc);
                }
                acc
            }
            Op::Or { children } => {
                let mut acc = 0u64;
                let mut rem = active;
                for &c in children {
                    if rem == 0 {
                        break;
                    }
                    let w = self.eval_block_masked(path, c, attrs, base, rem);
                    acc |= w;
                    rem &= !w;
                }
                acc
            }
            Op::Not { child } => {
                active & !self.eval_block_masked(path, *child, attrs, base, active)
            }
        }
    }

    /// Materialize the predicate over all rows, on the route the rule picks
    /// for a span of the whole store: through the ordered index, or with
    /// the block kernels, one mask word per 64 rows written straight into
    /// the bitset's backing words. Bit-identical to setting
    /// `eval(attrs, id)` per row.
    pub fn to_bitset(&self, attrs: &AttrStore) -> Bitset {
        self.to_bitset_via(attrs, Via::Rule)
    }

    /// [`to_bitset`](Self::to_bitset) on the route `via` names.
    pub(crate) fn to_bitset_via(&self, attrs: &AttrStore, via: Via) -> Bitset {
        let mut bits = Bitset::default();
        if self.candidates_via(attrs, attrs.len(), via, &mut bits).is_some() {
            self.refine(kernel_path(), attrs, 0, bits.words_mut());
        } else {
            self.fill_rows(kernel_path(), attrs, 0, attrs.len(), &mut bits);
        }
        bits
    }

    /// The ordered route's first step, when the rule picks it for `spanned`
    /// rows (what the block kernels would evaluate instead): set in `out`,
    /// over the whole store's universe, every row the program's indexed
    /// conjunct passes — its *candidates*, found with two searches per
    /// value range of the conjunct — and return how many there are.
    /// When the program has no indexed conjunct, or the rule picks the
    /// block kernels, it returns `None` and leaves `out` as it was.
    /// [`ordered_range`](Self::ordered_range) then cuts each span out.
    ///
    /// The indexed conjunct is an int `Equals`, `Between` or `In` at the
    /// root, or the first of them among a root `And`'s conjuncts.
    pub fn ordered_candidates(
        &self,
        attrs: &AttrStore,
        spanned: usize,
        out: &mut Bitset,
    ) -> Option<usize> {
        self.candidates_via(attrs, spanned, Via::Rule, out)
    }

    /// The ordered route over rows `rows`: what
    /// [`to_bitset_range`](Self::to_bitset_range) writes into `out`, built
    /// from `candidates`, the store-wide bitmap
    /// [`ordered_candidates`](Self::ordered_candidates) filled for this
    /// program. The span's words are shifted out of `candidates`, and a
    /// root `And`'s other conjuncts run on the candidate rows alone.
    /// Returns the candidates in the span: the rows the program ran on.
    ///
    /// # Panics
    /// Panics if a non-empty range ends beyond `candidates`' universe.
    pub fn ordered_range(
        &self,
        attrs: &AttrStore,
        candidates: &Bitset,
        rows: RangeInclusive<u32>,
        out: &mut Bitset,
    ) -> usize {
        let (start, end) = (*rows.start() as usize, *rows.end() as usize + 1);
        assert!(
            start >= end || end <= candidates.len(),
            "row range {rows:?} exceeds the candidates ({} rows)",
            candidates.len()
        );
        let len = end.saturating_sub(start);
        let (words, shift) = (candidates.words(), start % 64);
        out.refill(
            len,
            (start / 64..).take(len.div_ceil(64)).map(|w| {
                let high = match (shift, words.get(w + 1)) {
                    (1.., Some(next)) => next << (64 - shift),
                    _ => 0,
                };
                words[w] >> shift | high
            }),
        );
        let count = out.count();
        self.refine(kernel_path(), attrs, start, out.words_mut());
        count
    }

    /// [`ordered_candidates`](Self::ordered_candidates), or with `via` a
    /// route forced. The rule reads the candidates as the fences count
    /// them; only the route it picks places them exactly.
    fn candidates_via(
        &self,
        attrs: &AttrStore,
        spanned: usize,
        via: Via,
        out: &mut Bitset,
    ) -> Option<usize> {
        if via == Via::Blocks {
            return None;
        }
        let (field, ranges) = match &self.ops[self.ordered? as usize] {
            Op::Equals { field, value } => (*field, vec![(*value, *value)]),
            Op::Between { field, lo, hi } => (*field, vec![(*lo, *hi)]),
            // Bit `i` is value `base + i`, which the `In` list held.
            Op::InMask { field, base, mask } => {
                (*field, value_runs((0..64).filter(|i| mask >> i & 1 == 1).map(|i| base + i)))
            }
            Op::InSorted { field, values } => (*field, value_runs(values.iter().copied())),
            op => unreachable!("{op:?} is not an indexed leaf"),
        };
        let (order, column) = (attrs.order(field)?, attrs.ints(field));
        let approx = ranges.iter().map(|&(lo, hi)| order.approx_count(lo, hi)).sum();
        if via == Via::Rule && !ordered_wins(approx, spanned, attrs.len()) {
            return None;
        }
        out.refill(attrs.len(), std::iter::repeat(0).take(attrs.len().div_ceil(64)));
        let (words, mut count) = (out.words_mut(), 0);
        for (lo, hi) in ranges {
            let rows = &order.rows()[order.positions(column, lo, hi)];
            count += rows.len();
            for &row in rows {
                words[row as usize / 64] |= 1 << (row % 64);
            }
        }
        Some(count)
    }

    /// Run a root `And`'s conjuncts other than the indexed one over the set
    /// bits of `words`, bit `i` of word `j` standing for row
    /// `first + 64 j + i`, keeping the rows that pass them all. Any other
    /// program is its indexed leaf, which the candidates answered already.
    fn refine(&self, path: KernelPath, attrs: &AttrStore, first: usize, words: &mut [u64]) {
        let (Some(indexed), Op::And { children }) = (self.ordered, &self.ops[self.root as usize])
        else {
            return;
        };
        for (j, word) in words.iter_mut().enumerate() {
            for &c in children.iter().filter(|&&c| c != indexed) {
                if *word == 0 {
                    break;
                }
                *word = self.eval_block_masked(path, c, attrs, first + 64 * j, *word);
            }
        }
    }

    /// The range form of [`to_bitset`](Self::to_bitset): materialize rows
    /// `rows` into `out`, whose universe becomes the span — bit `i` answers
    /// row `rows.start() + i` — reusing `out`'s allocation. The start need
    /// not be 64-aligned: the block kernels read `column[base..base + 64]`
    /// at any `base`, so an unaligned span costs the same `span / 64` mask
    /// words as an aligned one. An empty range (`start > end`) yields the
    /// empty universe. Cheap leaves run on the process's
    /// [`kernel_path`]; see [`to_bitset_range_scalar`](Self::to_bitset_range_scalar)
    /// for the portable body alone.
    ///
    /// # Panics
    /// Panics if a non-empty range ends beyond the store's last row.
    pub fn to_bitset_range(&self, attrs: &AttrStore, rows: RangeInclusive<u32>, out: &mut Bitset) {
        self.fill_range(kernel_path(), attrs, rows, out);
    }

    /// [`to_bitset_range`](Self::to_bitset_range) on the scalar block
    /// kernels whatever the CPU offers: the reference the SIMD bodies are
    /// held to, and the forced-scalar row of `benches/predicate_eval.rs`.
    ///
    /// # Panics
    /// Panics if a non-empty range ends beyond the store's last row.
    pub fn to_bitset_range_scalar(
        &self,
        attrs: &AttrStore,
        rows: RangeInclusive<u32>,
        out: &mut Bitset,
    ) {
        self.fill_range(KernelPath::Scalar, attrs, rows, out);
    }

    /// Check `rows` against the store, then block-evaluate it on `path`.
    fn fill_range(
        &self,
        path: KernelPath,
        attrs: &AttrStore,
        rows: RangeInclusive<u32>,
        out: &mut Bitset,
    ) {
        let (start, end) = (*rows.start() as usize, *rows.end() as usize + 1);
        assert!(
            start >= end || end <= attrs.len(),
            "row range {rows:?} exceeds the attribute store ({} rows)",
            attrs.len()
        );
        self.fill_rows(path, attrs, start, end.max(start), out);
    }

    /// Block-evaluate rows `start..end` into `out` (universe `end - start`).
    fn fill_rows(
        &self,
        path: KernelPath,
        attrs: &AttrStore,
        start: usize,
        end: usize,
        out: &mut Bitset,
    ) {
        let len = end - start;
        out.refill(
            len,
            (start..end).step_by(64).map(|base| {
                let rows = (end - base).min(64);
                let active = if rows == 64 { u64::MAX } else { (1u64 << rows) - 1 };
                self.eval_block_masked(path, self.root, attrs, base, active)
            }),
        );
    }
}

/// Post-order lowering of a normalized AST into the arena; returns the index
/// of the node representing `p`.
fn lower(p: &Predicate, ops: &mut Vec<Op>) -> u32 {
    let op = match p {
        Predicate::True => Op::Const(true),
        // The canonical constant-false form folds to one node, so a
        // constant program is always a lone `Const` root.
        Predicate::Not(c) if matches!(**c, Predicate::True) => Op::Const(false),
        Predicate::Equals { field, value } => Op::Equals { field: *field, value: *value },
        Predicate::Between { field, lo, hi } => Op::Between { field: *field, lo: *lo, hi: *hi },
        Predicate::In { field, values } => lower_in(*field, values),
        Predicate::ContainsAny { field, mask } => Op::ContainsAny { field: *field, mask: *mask },
        Predicate::ContainsAll { field, mask } => Op::ContainsAll { field: *field, mask: *mask },
        Predicate::RegexMatch { field, regex } => Op::Regex { field: *field, regex: regex.clone() },
        Predicate::And(ps) => Op::And { children: ps.iter().map(|c| lower(c, ops)).collect() },
        Predicate::Or(ps) => Op::Or { children: ps.iter().map(|c| lower(c, ops)).collect() },
        Predicate::Not(c) => Op::Not { child: lower(c, ops) },
    };
    ops.push(op);
    (ops.len() - 1) as u32
}

/// Choose the `In` kernel: a value span under 64 becomes one bitmask test,
/// anything else binary-searches the list. The input arrives sorted and
/// deduplicated — `compile` normalizes first, and [`Predicate::normalize`]
/// rewrites every `In` through [`Predicate::in_values`] (folding empty
/// lists to constant false), so no re-sort is needed here.
fn lower_in(field: FieldId, values: &[i64]) -> Op {
    debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "normalize must sort+dedup In values");
    match (values.first().copied(), values.last().copied()) {
        (None, _) | (_, None) => Op::Const(false),
        (Some(lo), Some(hi)) => {
            if (hi as i128 - lo as i128) < 64 {
                let mut mask = 0u64;
                for &v in values {
                    mask |= 1u64 << (v - lo);
                }
                Op::InMask { field, base: lo, mask }
            } else {
                Op::InSorted { field, values: values.to_vec() }
            }
        }
    }
}

/// Ascending, distinct `In` values as inclusive ranges of consecutive
/// values.
fn value_runs(values: impl IntoIterator<Item = i64>) -> Vec<(i64, i64)> {
    let mut runs: Vec<(i64, i64)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((_, hi)) if hi.checked_add(1) == Some(v) => *hi = v,
            _ => runs.push((v, v)),
        }
    }
    runs
}

/// Lazy per-node evaluation through a compiled program: the compiled
/// counterpart of [`PredicateFilter`](crate::filter::PredicateFilter).
/// Usually wrapped in a [`MemoFilter`](crate::memo::MemoFilter) so each row
/// is evaluated at most once per query.
#[derive(Clone)]
pub struct CompiledFilter<'a> {
    attrs: &'a AttrStore,
    compiled: &'a CompiledPredicate,
}

impl<'a> CompiledFilter<'a> {
    /// Wrap a compiled predicate and the attribute store it applies to.
    pub fn new(attrs: &'a AttrStore, compiled: &'a CompiledPredicate) -> Self {
        Self { attrs, compiled }
    }
}

impl NodeFilter for CompiledFilter<'_> {
    #[inline]
    fn passes(&self, id: u32) -> bool {
        self.compiled.eval(self.attrs, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store() -> AttrStore {
        AttrStore::builder()
            .add_int("year", (0..100i64).map(|i| 1950 + i % 70).collect())
            .add_keywords("kw", (0..100u64).map(|i| i % 8).collect())
            .add_text("cap", (0..100).map(|i| format!("item {i} of red things")).collect())
            .build()
    }

    fn assert_matches_interpreted(p: &Predicate, s: &AttrStore) {
        let c = CompiledPredicate::compile(p);
        for id in 0..s.len() as u32 {
            assert_eq!(c.eval(s, id), p.eval(s, id), "row {id} of {}", p.describe(s));
        }
        let want = Bitset::from_ids(s.len(), (0..s.len() as u32).filter(|&i| p.eval(s, i)));
        assert_eq!(c.to_bitset(s), want, "bitset mismatch for {}", p.describe(s));
    }

    #[test]
    fn leaves_match_interpreted() {
        let s = store();
        let year = s.field("year").unwrap();
        let kw = s.field("kw").unwrap();
        let cap = s.field("cap").unwrap();
        for p in [
            Predicate::True,
            Predicate::Equals { field: year, value: 1960 },
            Predicate::Between { field: year, lo: 1955, hi: 1990 },
            Predicate::in_values(year, vec![1951, 2011, 1999]),
            Predicate::ContainsAny { field: kw, mask: 0b101 },
            Predicate::ContainsAll { field: kw, mask: 0b11 },
            Predicate::RegexMatch { field: cap, regex: Regex::new("item [0-4] ").unwrap() },
        ] {
            assert_matches_interpreted(&p, &s);
        }
    }

    #[test]
    fn combinators_and_tail_blocks() {
        let s = store(); // 100 rows: one full block + a 36-row tail
        let year = s.field("year").unwrap();
        let cap = s.field("cap").unwrap();
        let p = Predicate::And(vec![
            Predicate::RegexMatch { field: cap, regex: Regex::new("red").unwrap() },
            Predicate::Between { field: year, lo: 1950, hi: 1980 },
            Predicate::Not(Box::new(Predicate::Equals { field: year, value: 1970 })),
        ]);
        assert_matches_interpreted(&p, &s);
        let c = CompiledPredicate::compile(&p);
        // Tail block must zero bits beyond row 99.
        assert_eq!(c.to_bitset(&s).words()[1] >> 36, 0);
    }

    #[test]
    fn empty_in_is_const_false() {
        let s = store();
        let year = s.field("year").unwrap();
        let p = Predicate::In { field: year, values: vec![] };
        let c = CompiledPredicate::compile(&p);
        assert_eq!(c.to_bitset(&s).count(), 0);
        assert_matches_interpreted(&p, &s);
    }

    #[test]
    fn small_span_in_lowers_to_bitmask() {
        let s = store();
        let year = s.field("year").unwrap();
        // Span 1951..=1999 < 64 → one InMask op (plus nothing else).
        let c = CompiledPredicate::compile(&Predicate::in_values(year, vec![1951, 1999, 1960]));
        assert_eq!(c.num_ops(), 1);
        assert!(matches!(c.cost_class(), CostClass::Cheap));
        // Span >= 64 → sorted binary search.
        let wide = CompiledPredicate::compile(&Predicate::in_values(year, vec![0, 1_000_000]));
        assert_eq!(wide.num_ops(), 1);
        assert_matches_interpreted(&Predicate::in_values(year, vec![0, 1_000_000]), &s);
    }

    #[test]
    fn regex_is_expensive_and_sorted_last() {
        let s = store();
        let year = s.field("year").unwrap();
        let cap = s.field("cap").unwrap();
        let p = Predicate::And(vec![
            Predicate::RegexMatch { field: cap, regex: Regex::new("red").unwrap() },
            Predicate::Equals { field: year, value: 1999 },
        ]);
        let c = CompiledPredicate::compile(&p);
        assert_eq!(c.cost_class(), CostClass::Expensive);
        // Normalization hoists the cheap equality before the regex: the And
        // node is last (post-order root), its first child evaluates Equals.
        match &c.ops[c.root as usize] {
            Op::And { children } => {
                assert!(matches!(c.ops[children[0] as usize], Op::Equals { .. }));
                assert!(matches!(c.ops[children[1] as usize], Op::Regex { .. }));
            }
            other => panic!("expected And root, got {other:?}"),
        }
    }

    #[test]
    fn compiled_filter_matches_eval() {
        let s = store();
        let year = s.field("year").unwrap();
        let p = Predicate::Between { field: year, lo: 1960, hi: 1975 };
        let c = CompiledPredicate::compile(&p);
        let f = CompiledFilter::new(&s, &c);
        for id in 0..s.len() as u32 {
            assert_eq!(f.passes(id), p.eval(&s, id));
        }
    }

    #[test]
    fn the_rule_takes_the_order_for_a_selective_conjunct_and_the_blocks_for_a_wide_one() {
        // `v = row id`: `Between(0, c - 1)` has exactly `c` candidates.
        let n = 10_000;
        let s = AttrStore::builder()
            .add_int("v", (0..n as i64).collect())
            .add_keywords("kw", vec![1; n])
            .build();
        let mut out = Bitset::default();
        for (passing, ordered) in [(0, true), (100, true), (2_000, true), (3_000, false)] {
            let band = Predicate::Between { field: 0, lo: 0, hi: passing - 1 };
            let with_kw =
                Predicate::And(vec![Predicate::ContainsAny { field: 1, mask: 1 }, band.clone()]);
            for p in [band, with_kw] {
                let c = CompiledPredicate::compile(&p);
                let got = c.ordered_candidates(&s, n, &mut out);
                assert_eq!(got, ordered.then_some(passing as usize), "{passing} of {n}");
                // Spanning a fortieth of the store, clearing the store-wide
                // bitmap alone costs more than the blocks.
                assert_eq!(c.ordered_candidates(&s, n / 40, &mut out), None, "{passing}");
            }
        }
        // No int leaf to index: the blocks.
        let kw = CompiledPredicate::compile(&Predicate::ContainsAny { field: 1, mask: 1 });
        assert_eq!(kw.ordered_candidates(&s, n, &mut out), None);
        let not = Predicate::Not(Box::new(Predicate::Equals { field: 0, value: 3 }));
        assert_eq!(CompiledPredicate::compile(&not).ordered_candidates(&s, n, &mut out), None);
    }

    /// Int values with duplicates, negatives and both extremes.
    fn ordered_value(rng: &mut StdRng) -> i64 {
        match rng.gen_range(0..10) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.gen_range(-6..6),
        }
    }

    /// An int leaf on `field`: `Equals` of a present or absent value,
    /// `Between` with inverted or extreme bounds, `In` in its mask form
    /// (a span under 64) and in its sorted form.
    fn ordered_leaf(rng: &mut StdRng, field: FieldId) -> Predicate {
        match rng.gen_range(0..5) {
            0 => Predicate::Equals { field, value: ordered_value(rng) },
            1 => Predicate::Equals { field, value: 1_000 },
            2 => Predicate::Between { field, lo: ordered_value(rng), hi: ordered_value(rng) },
            3 => {
                let values = (0..rng.gen_range(1..6)).map(|_| rng.gen_range(-8..8)).collect();
                Predicate::in_values(field, values)
            }
            _ => {
                let mut values: Vec<i64> =
                    (0..rng.gen_range(0..5)).map(|_| ordered_value(rng)).collect();
                values.push([i64::MIN, i64::MAX, 1_000_000][rng.gen_range(0..3usize)]);
                Predicate::in_values(field, values)
            }
        }
    }

    /// An int leaf on the random column (0) or the constant one (1), alone
    /// or in an `And` with a keyword or regex conjunct and maybe a second
    /// int leaf.
    fn ordered_pred(rng: &mut StdRng) -> Predicate {
        let field = rng.gen_range(0..2);
        let leaf = ordered_leaf(rng, field);
        let other = match rng.gen_range(0..3) {
            0 => return leaf,
            1 => Predicate::ContainsAny { field: 2, mask: rng.gen_range(1..16) },
            _ => Predicate::RegexMatch { field: 3, regex: Regex::new("^r|9").unwrap() },
        };
        let mut conjuncts = vec![other, leaf];
        if rng.gen_bool(0.3) {
            conjuncts.push(ordered_leaf(rng, 0));
        }
        Predicate::And(conjuncts)
    }

    fn ordered_store(n: usize, rng: &mut StdRng) -> AttrStore {
        let words = ["red", "cat 9", "dog", ""];
        let constant = ordered_value(rng);
        AttrStore::builder()
            .add_int("x", (0..n).map(|_| ordered_value(rng)).collect())
            .add_int("c", vec![constant; n])
            .add_keywords("kw", (0..n).map(|_| rng.gen_range(0..16)).collect())
            .add_text("cap", (0..n).map(|_| words[rng.gen_range(0..4usize)].to_string()).collect())
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ordered route's bitmap is the block kernels' and the
        /// interpreter's, over the whole store and over unaligned spans cut
        /// from one store-wide candidate bitmap; each span reports the
        /// candidates in it.
        #[test]
        fn ordered_route_equals_the_blocks_and_the_interpreter(
            seed in 0u64..u64::MAX,
            n in prop::sample::select(vec![0usize, 1, 63, 64, 65, 200, 333]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = ordered_store(n, &mut rng);
            let mut all = Bitset::default();
            let mut out = Bitset::full(400);
            for _ in 0..8 {
                let p = ordered_pred(&mut rng);
                let c = CompiledPredicate::compile(&p);
                let oracle = Bitset::from_ids(n, (0..n as u32).filter(|&i| p.eval(&s, i)));
                for via in [Via::Ordered, Via::Blocks, Via::Rule] {
                    prop_assert_eq!(&c.to_bitset_via(&s, via), &oracle, "{:?}", via);
                }
                if c.as_const().is_some() {
                    continue;
                }
                let count = c.candidates_via(&s, 0, Via::Ordered, &mut all);
                prop_assert!(count.is_some(), "{} has an indexed conjunct", p.describe(&s));
                prop_assert_eq!((all.len(), Some(all.count())), (n, count));
                #[allow(clippy::reversed_empty_ranges)]
                c.ordered_range(&s, &all, 1..=0, &mut out);
                prop_assert_eq!(&out, &Bitset::new(0), "an empty range is the empty universe");
                let mut bounds = vec![0usize, 1, 63, 64, 65, 130, 199];
                bounds.extend((0..3).map(|_| rng.gen_range(0..n.max(1))));
                bounds.retain(|&b| b < n);
                for &start in &bounds {
                    for &end in bounds.iter().filter(|&&end| end >= start) {
                        let rows = start as u32..=end as u32;
                        let got = c.ordered_range(&s, &all, rows.clone(), &mut out);
                        let mut blocks = Bitset::default();
                        c.to_bitset_range(&s, rows, &mut blocks);
                        prop_assert_eq!(&out, &blocks, "rows {}..={}", start, end);
                        let want = Bitset::from_ids(
                            end - start + 1,
                            (start..=end).filter(|&r| oracle.get(r as u32)).map(|r| (r - start) as u32),
                        );
                        prop_assert_eq!(&out, &want, "rows {}..={}", start, end);
                        let in_span = (start..=end).filter(|&r| all.get(r as u32)).count();
                        prop_assert_eq!(got, in_span, "candidates in rows {}..={}", start, end);
                    }
                }
            }
        }
    }

    #[test]
    fn constant_folding_shrinks_program() {
        let s = store();
        let year = s.field("year").unwrap();
        // And(True, Or(x)) folds to just x.
        let p = Predicate::And(vec![
            Predicate::True,
            Predicate::Or(vec![Predicate::Equals { field: year, value: 1950 }]),
        ]);
        let c = CompiledPredicate::compile(&p);
        assert_eq!(c.num_ops(), 1);
        assert_matches_interpreted(&p, &s);
    }
}
