//! The predicate AST and its evaluator.
//!
//! Covers the operator set exercised by the ACORN paper's four workloads
//! (Table 2): `equals(y)` on integers, `contains(y1 ∨ y2 ∨ ...)` on keyword
//! lists, `between(y1, y2)` on dates/integers, and `regex-match(y)` on text,
//! plus boolean combinators so workloads like TripClick's
//! `contains(...) & between(...)` compose naturally.

use crate::attrs::AttrStore;
use crate::bitmap::Bitset;
use crate::regex::Regex;
use crate::FieldId;

/// A predicate over one dataset row.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Always true (the pure-ANN query).
    True,
    /// `field == value` on an int column.
    Equals {
        /// Target int column.
        field: FieldId,
        /// Value to match.
        value: i64,
    },
    /// `field ∈ values` on an int column (small-set membership).
    In {
        /// Target int column.
        field: FieldId,
        /// Accepted values, **sorted ascending and deduplicated** — the
        /// evaluator binary-searches this list. Construct through
        /// [`Predicate::in_values`] (or run [`Predicate::normalize`]) to
        /// maintain the invariant.
        values: Vec<i64>,
    },
    /// `lo <= field <= hi` (inclusive) on an int column.
    Between {
        /// Target int column.
        field: FieldId,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Keyword-list intersection: row passes if it has *any* of the masked
    /// terms (the paper's `contains(y1 ∨ y2 ∨ ...)`).
    ContainsAny {
        /// Target keywords column.
        field: FieldId,
        /// Bitmask of accepted terms.
        mask: u64,
    },
    /// Keyword-list superset: row passes if it has *all* masked terms.
    ContainsAll {
        /// Target keywords column.
        field: FieldId,
        /// Bitmask of required terms.
        mask: u64,
    },
    /// Regex match over a text column (unanchored search semantics).
    RegexMatch {
        /// Target text column.
        field: FieldId,
        /// Compiled pattern.
        regex: Regex,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

/// Relative per-row evaluation cost weights, which drive
/// [`Predicate::normalize`]'s clause reordering. Regex dominates everything
/// else by orders of magnitude, so its weight keeps any regex clause sorted
/// after every structured clause.
pub(crate) mod cost {
    /// Constant-time column compare (`Equals`, `Between`, `Contains*`).
    pub const LEAF: u64 = 1;
    /// Binary search over a sorted value list.
    pub const IN: u64 = 2;
    /// Substring search and an automaton walk over a text row.
    pub const REGEX: u64 = 1000;
}

impl Predicate {
    /// `field ∈ values` with the [`In`](Predicate::In) sorted/deduplicated
    /// invariant established at construction, so membership checks
    /// binary-search instead of scanning `O(|values|)` per row.
    pub fn in_values(field: FieldId, mut values: Vec<i64>) -> Predicate {
        values.sort_unstable();
        values.dedup();
        Predicate::In { field, values }
    }

    /// Evaluate against row `id` of `attrs`.
    pub fn eval(&self, attrs: &AttrStore, id: u32) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Equals { field, value } => attrs.int(*field, id) == *value,
            Predicate::In { field, values } => {
                // The sorted invariant is the constructor's contract (see
                // the variant docs); debug builds verify it so a
                // hand-assembled unsorted list fails fast instead of
                // silently mis-evaluating.
                debug_assert!(
                    values.windows(2).all(|w| w[0] <= w[1]),
                    "In values must be sorted (use Predicate::in_values or normalize())"
                );
                values.binary_search(&attrs.int(*field, id)).is_ok()
            }
            Predicate::Between { field, lo, hi } => {
                let v = attrs.int(*field, id);
                *lo <= v && v <= *hi
            }
            Predicate::ContainsAny { field, mask } => attrs.keywords(*field, id) & mask != 0,
            Predicate::ContainsAll { field, mask } => attrs.keywords(*field, id) & mask == *mask,
            Predicate::RegexMatch { field, regex } => regex.is_match(attrs.text(*field, id)),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(attrs, id)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(attrs, id)),
            Predicate::Not(p) => !p.eval(attrs, id),
        }
    }

    /// Materialize the predicate into a bitset over all rows (the
    /// pre-filtering strategy). Routed through the compiled engine's 64-row
    /// block kernels ([`CompiledPredicate`](crate::compiled::CompiledPredicate)),
    /// so this is a word-at-a-time columnar scan rather than `n` AST walks;
    /// results are bit-identical to evaluating [`eval`](Self::eval) per row.
    pub fn to_bitset(&self, attrs: &AttrStore) -> Bitset {
        crate::compiled::CompiledPredicate::compile(self).to_bitset(attrs)
    }

    /// The canonical constant-false predicate (`!true`); the AST has no
    /// dedicated `False` variant because no workload generates one directly.
    pub fn const_false() -> Predicate {
        Predicate::Not(Box::new(Predicate::True))
    }

    /// True if this node is the canonical constant-false form.
    fn is_const_false(&self) -> bool {
        matches!(self, Predicate::Not(p) if matches!(**p, Predicate::True))
    }

    /// Relative evaluation cost of this subtree (drives cheapest-first
    /// clause ordering in [`normalize`](Self::normalize) and the compiled
    /// engine).
    pub(crate) fn cost_weight(&self) -> u64 {
        match self {
            Predicate::True => 0,
            Predicate::Equals { .. }
            | Predicate::Between { .. }
            | Predicate::ContainsAny { .. }
            | Predicate::ContainsAll { .. } => cost::LEAF,
            Predicate::In { .. } => cost::IN,
            Predicate::RegexMatch { .. } => cost::REGEX,
            Predicate::Not(p) => cost::LEAF + p.cost_weight(),
            Predicate::And(ps) | Predicate::Or(ps) => {
                cost::LEAF + ps.iter().map(Predicate::cost_weight).sum::<u64>()
            }
        }
    }

    /// Rewrite into the canonical form the compiled engine lowers from:
    ///
    /// * nested `And`/`Or` chains are flattened into one n-ary node;
    /// * `True`, double negation, and empty combinators are constant-folded
    ///   (`And([])` → `True`, `Or([])` → `!true`, `In([])` → `!true`, a
    ///   false conjunct kills its `And`, a true disjunct wins its `Or`);
    /// * sibling clauses are stably reordered cheapest-first, hoisting
    ///   constant-time compares in front of `RegexMatch` so short-circuit
    ///   evaluation skips the expensive clause on most rows;
    /// * `In` value lists are sorted and deduplicated.
    ///
    /// Semantics are preserved exactly: for every row, the normalized
    /// predicate evaluates to the same boolean as the original (property
    /// tested). Workload generators normalize every query predicate at
    /// construction.
    pub fn normalize(self) -> Predicate {
        match self {
            Predicate::In { field, values } => {
                if values.is_empty() {
                    Predicate::const_false()
                } else {
                    Predicate::in_values(field, values)
                }
            }
            Predicate::Not(p) => {
                let p = p.normalize();
                match p {
                    // !!p = p (normalize(p) already normalized its insides).
                    Predicate::Not(inner) => *inner,
                    p => Predicate::Not(Box::new(p)),
                }
            }
            Predicate::And(ps) => {
                let mut out = Vec::with_capacity(ps.len());
                for p in ps {
                    let p = p.normalize();
                    match p {
                        Predicate::True => {}
                        p if p.is_const_false() => return Predicate::const_false(),
                        Predicate::And(children) => out.extend(children),
                        p => out.push(p),
                    }
                }
                out.sort_by_key(Predicate::cost_weight);
                match out.len() {
                    0 => Predicate::True,
                    1 => out.pop().expect("len checked"),
                    _ => Predicate::And(out),
                }
            }
            Predicate::Or(ps) => {
                let mut out = Vec::with_capacity(ps.len());
                for p in ps {
                    let p = p.normalize();
                    match p {
                        Predicate::True => return Predicate::True,
                        p if p.is_const_false() => {}
                        Predicate::Or(children) => out.extend(children),
                        p => out.push(p),
                    }
                }
                out.sort_by_key(Predicate::cost_weight);
                match out.len() {
                    0 => Predicate::const_false(),
                    1 => out.pop().expect("len checked"),
                    _ => Predicate::Or(out),
                }
            }
            leaf => leaf,
        }
    }

    /// A short human-readable rendering (used in experiment logs).
    pub fn describe(&self, attrs: &AttrStore) -> String {
        match self {
            Predicate::True => "true".into(),
            Predicate::Equals { field, value } => {
                format!("{} == {value}", attrs.field_name(*field))
            }
            Predicate::In { field, values } => {
                format!("{} in {values:?}", attrs.field_name(*field))
            }
            Predicate::Between { field, lo, hi } => {
                format!("{} in [{lo}, {hi}]", attrs.field_name(*field))
            }
            Predicate::ContainsAny { field, mask } => {
                format!("{} ∩ {mask:#x} != ∅", attrs.field_name(*field))
            }
            Predicate::ContainsAll { field, mask } => {
                format!("{} ⊇ {mask:#x}", attrs.field_name(*field))
            }
            Predicate::RegexMatch { field, regex } => {
                format!("{} ~ /{}/", attrs.field_name(*field), regex.pattern())
            }
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.describe(attrs)).collect();
                format!("({})", parts.join(" & "))
            }
            Predicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.describe(attrs)).collect();
                format!("({})", parts.join(" | "))
            }
            Predicate::Not(p) => format!("!({})", p.describe(attrs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrStore;

    fn store() -> AttrStore {
        AttrStore::builder()
            .add_int("year", vec![1999, 2005, 2020, 2005])
            .add_keywords("kw", vec![0b001, 0b011, 0b100, 0b000])
            .add_text(
                "cap",
                vec!["red dog".into(), "blue cat".into(), "red cat".into(), "fish".into()],
            )
            .build()
    }

    #[test]
    fn equals_and_between() {
        let s = store();
        let year = s.field("year").unwrap();
        let eq = Predicate::Equals { field: year, value: 2005 };
        assert!(!eq.eval(&s, 0));
        assert!(eq.eval(&s, 1));
        assert!(eq.eval(&s, 3));

        let bw = Predicate::Between { field: year, lo: 2000, hi: 2010 };
        assert_eq!(bw.to_bitset(&s).to_ids(), vec![1, 3]);
    }

    #[test]
    fn in_predicate_membership() {
        let s = store();
        let year = s.field("year").unwrap();
        let p = Predicate::In { field: year, values: vec![1999, 2020] };
        assert_eq!(p.to_bitset(&s).to_ids(), vec![0, 2]);
        let empty = Predicate::In { field: year, values: vec![] };
        assert_eq!(empty.to_bitset(&s).count(), 0);
        assert_eq!(p.describe(&s), "year in [1999, 2020]");
    }

    #[test]
    fn contains_any_and_all() {
        let s = store();
        let kw = s.field("kw").unwrap();
        let any = Predicate::ContainsAny { field: kw, mask: 0b010 };
        assert_eq!(any.to_bitset(&s).to_ids(), vec![1]);
        let all = Predicate::ContainsAll { field: kw, mask: 0b011 };
        assert_eq!(all.to_bitset(&s).to_ids(), vec![1]);
        let any_of_two = Predicate::ContainsAny { field: kw, mask: 0b101 };
        assert_eq!(any_of_two.to_bitset(&s).to_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn regex_match_predicate() {
        let s = store();
        let cap = s.field("cap").unwrap();
        let p = Predicate::RegexMatch { field: cap, regex: Regex::new("^red").unwrap() };
        assert_eq!(p.to_bitset(&s).to_ids(), vec![0, 2]);
    }

    #[test]
    fn boolean_combinators() {
        let s = store();
        let year = s.field("year").unwrap();
        let cap = s.field("cap").unwrap();
        let p = Predicate::And(vec![
            Predicate::Between { field: year, lo: 2000, hi: 2030 },
            Predicate::RegexMatch { field: cap, regex: Regex::new("cat").unwrap() },
        ]);
        assert_eq!(p.to_bitset(&s).to_ids(), vec![1, 2]);

        let n = Predicate::Not(Box::new(p));
        assert_eq!(n.to_bitset(&s).to_ids(), vec![0, 3]);

        let o = Predicate::Or(vec![
            Predicate::Equals { field: year, value: 1999 },
            Predicate::Equals { field: year, value: 2020 },
        ]);
        assert_eq!(o.to_bitset(&s).to_ids(), vec![0, 2]);
    }

    #[test]
    fn true_passes_everything() {
        let s = store();
        assert_eq!(Predicate::True.to_bitset(&s).count(), s.len());
    }

    #[test]
    fn describe_is_stable() {
        let s = store();
        let year = s.field("year").unwrap();
        let p = Predicate::Between { field: year, lo: 1, hi: 2 };
        assert_eq!(p.describe(&s), "year in [1, 2]");
    }
}
