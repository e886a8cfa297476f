//! The hot-path filtering contract used by every index.
//!
//! Graph search evaluates "does row `id` pass the query predicate?" once per
//! scanned neighbor. [`NodeFilter`] abstracts over the two realistic
//! strategies:
//!
//! * [`PredicateFilter`] — evaluate the predicate AST lazily per node
//!   (cheap for bitmask/int predicates; what ACORN's analysis assumes is a
//!   constant-time check, §6.3.2).
//! * [`BitmapFilter`] — precompute a [`Bitset`] once per query (`O(n)` up
//!   front, one load per check; what Weaviate does, and what we use for
//!   expensive predicates like regex so that per-node cost stays constant).
//!
//! [`AllPass`] turns a hybrid index into a plain ANN index.

use crate::attrs::AttrStore;
use crate::bitmap::Bitset;
use crate::predicate::Predicate;

/// "Does dataset row `id` pass this query's predicate?"
pub trait NodeFilter {
    /// True if [`passes`](Self::passes) is a side-effect-free test cheap
    /// enough to ask of every row the graph lookups scan, visited or not.
    ///
    /// The graph lookups (`acorn_core::lookup`) then ask the filter about
    /// every candidate and mask the verdict with "not visited", so no jump
    /// depends on a verdict that may pass only one time in five. A filter
    /// that does work per call — a lazy predicate walk, a memo that counts
    /// its hits — keeps the default `false` and is asked only about
    /// unvisited rows, so its evaluations and hits stay exactly the checks
    /// the lookups count. [`AllPass`] and [`BitmapFilter`] opt in; wrappers
    /// forward their inner filter's value.
    const BRANCH_FREE: bool = false;

    /// Evaluate row `id`.
    fn passes(&self, id: u32) -> bool;
}

/// Filter that accepts everything (pure ANN search).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllPass;

impl NodeFilter for AllPass {
    const BRANCH_FREE: bool = true;

    #[inline]
    fn passes(&self, _id: u32) -> bool {
        true
    }
}

/// Lazy per-node predicate evaluation.
#[derive(Clone)]
pub struct PredicateFilter<'a> {
    attrs: &'a AttrStore,
    predicate: &'a Predicate,
}

impl<'a> PredicateFilter<'a> {
    /// Wrap a predicate and the attribute store it applies to.
    pub fn new(attrs: &'a AttrStore, predicate: &'a Predicate) -> Self {
        Self { attrs, predicate }
    }
}

impl NodeFilter for PredicateFilter<'_> {
    #[inline]
    fn passes(&self, id: u32) -> bool {
        self.predicate.eval(self.attrs, id)
    }
}

/// Precomputed bitmap filter.
#[derive(Debug, Clone)]
pub struct BitmapFilter {
    bits: Bitset,
}

impl BitmapFilter {
    /// Wrap an existing bitset.
    pub fn new(bits: Bitset) -> Self {
        Self { bits }
    }

    /// Materialize a predicate into a bitmap filter.
    pub fn from_predicate(attrs: &AttrStore, predicate: &Predicate) -> Self {
        Self { bits: predicate.to_bitset(attrs) }
    }

    /// The underlying bitset.
    pub fn bits(&self) -> &Bitset {
        &self.bits
    }

    /// Give the bitset back (so a pooled bitmap's allocation outlives the
    /// filter that borrowed it for one search).
    pub fn into_bits(self) -> Bitset {
        self.bits
    }

    /// Exact selectivity of the materialized predicate.
    pub fn selectivity(&self) -> f64 {
        self.bits.selectivity()
    }
}

impl NodeFilter for BitmapFilter {
    const BRANCH_FREE: bool = true;

    #[inline]
    fn passes(&self, id: u32) -> bool {
        self.bits.get(id)
    }
}

impl<F: NodeFilter + ?Sized> NodeFilter for &F {
    const BRANCH_FREE: bool = F::BRANCH_FREE;

    #[inline]
    fn passes(&self, id: u32) -> bool {
        (**self).passes(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AttrStore {
        AttrStore::builder().add_int("x", vec![1, 2, 3, 4, 5]).build()
    }

    #[test]
    fn predicate_filter_evaluates_lazily() {
        let s = store();
        let f = s.field("x").unwrap();
        let p = Predicate::Between { field: f, lo: 2, hi: 4 };
        let filter = PredicateFilter::new(&s, &p);
        assert!(!filter.passes(0));
        assert!(filter.passes(1));
        assert!(filter.passes(3));
        assert!(!filter.passes(4));
    }

    #[test]
    fn bitmap_filter_matches_lazy_filter() {
        let s = store();
        let f = s.field("x").unwrap();
        let p = Predicate::Equals { field: f, value: 3 };
        let lazy = PredicateFilter::new(&s, &p);
        let bm = BitmapFilter::from_predicate(&s, &p);
        for id in 0..s.len() as u32 {
            assert_eq!(lazy.passes(id), bm.passes(id), "row {id}");
        }
        assert!((bm.selectivity() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn all_pass_accepts_all() {
        assert!(AllPass.passes(0));
        assert!(AllPass.passes(u32::MAX));
    }
}
