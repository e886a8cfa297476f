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
//! [`CompiledPredicate::to_bitset`] (backing `Predicate::to_bitset` and
//! `BitmapFilter::from_predicate`) is therefore a word-at-a-time columnar
//! scan, [`CompiledPredicate::to_bitset_range`] is the same scan over one
//! segment's row span (what the hybrid query planner materializes for every
//! segment), and [`CompiledPredicate::eval`] answers one row at a time.
//! Results are bit-identical to interpreted evaluation (property tested over
//! random ASTs × stores).

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
    /// Regex search over a text column.
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
    cost: u64,
    has_regex: bool,
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
        Self { ops, root, cost: normalized.cost_weight(), has_regex }
    }

    /// Number of program nodes (after folding and flattening).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Relative evaluation cost weight of the whole program.
    pub fn cost(&self) -> u64 {
        self.cost
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
    /// ([`kernels`]); the regex kernel iterates only the set bits, which is
    /// what makes cheapest-first `And` ordering pay off.
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
                let col = attrs.texts(*field);
                let mut w = 0u64;
                let mut rem = active;
                while rem != 0 {
                    let i = rem.trailing_zeros() as u64;
                    rem &= rem - 1;
                    w |= u64::from(regex.is_match(&col[base + i as usize])) << i;
                }
                w
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

    /// Materialize the predicate over all rows with the block kernels: one
    /// mask word per 64 rows, written straight into the bitset's backing
    /// words. Bit-identical to setting `eval(attrs, id)` per row.
    pub fn to_bitset(&self, attrs: &AttrStore) -> Bitset {
        let mut bits = Bitset::default();
        self.fill_rows(kernel_path(), attrs, 0, attrs.len(), &mut bits);
        bits
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
