//! Per-query predicate memoization.
//!
//! ACORN's overlapping one-/two-hop lookups revisit the same rows dozens of
//! times per query; without caching, each revisit re-evaluates the query
//! predicate (NaviX calls this out as the deciding factor in hybrid-search
//! throughput). A [`MemoTable`] is a tri-state memo over row ids — unknown /
//! known-pass / known-fail — packed as two bitset words per 64 rows, and a
//! [`MemoFilter`] wraps any [`NodeFilter`] so every row is evaluated **at
//! most once per query** no matter how many hops touch it.
//!
//! The table is owned by `SearchScratch` (in `acorn-hnsw`) and recycled
//! through its `ScratchPool`, so steady-state serving never allocates memo
//! words per query; resetting costs one `memset` of `n / 64` words. Interior
//! mutability uses `AtomicU64` words with `Relaxed` plain loads/stores (not
//! read-modify-write ops): the table is only ever used single-threaded
//! within one query — each worker owns its scratch — but the scratch that
//! carries it must stay `Sync`, which rules out `Cell`. On mainstream
//! targets a relaxed load/store compiles to the same `mov` a plain word
//! access would.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::filter::NodeFilter;

/// Tri-state (unknown / pass / fail) memo over row ids `0..n`.
///
/// `known` and `pass` are parallel packed bitsets. Only `known` is cleared
/// on [`reset_for`](Self::reset_for): a `pass` bit is written together with
/// its `known` bit on every [`record`](Self::record), so stale `pass` bits
/// from a previous query are never observable.
#[derive(Debug, Default)]
pub struct MemoTable {
    known: Vec<AtomicU64>,
    pass: Vec<AtomicU64>,
}

impl Clone for MemoTable {
    fn clone(&self) -> Self {
        let copy = |v: &[AtomicU64]| v.iter().map(|w| AtomicU64::new(w.load(Relaxed))).collect();
        Self { known: copy(&self.known), pass: copy(&self.pass) }
    }
}

impl MemoTable {
    /// An empty table; size it with [`reset_for`](Self::reset_for).
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepare for a query over rows `0..n`: grow to cover the universe and
    /// mark every row unknown.
    pub fn reset_for(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.known.len() < words {
            self.known.resize_with(words, || AtomicU64::new(0));
            self.pass.resize_with(words, || AtomicU64::new(0));
        }
        for w in &self.known {
            w.store(0, Relaxed);
        }
    }

    /// Number of addressable rows.
    pub fn capacity(&self) -> usize {
        self.known.len() * 64
    }

    /// The memoized verdict for `id`, if one was recorded this query.
    ///
    /// # Panics
    /// Panics if `id` is beyond the capacity established by
    /// [`reset_for`](Self::reset_for).
    #[inline]
    pub fn lookup(&self, id: u32) -> Option<bool> {
        let (w, b) = (id as usize / 64, 1u64 << (id % 64));
        if self.known[w].load(Relaxed) & b == 0 {
            None
        } else {
            Some(self.pass[w].load(Relaxed) & b != 0)
        }
    }

    /// Record the verdict for `id` (overwrites any previous one).
    #[inline]
    pub fn record(&self, id: u32, pass: bool) {
        let (w, b) = (id as usize / 64, 1u64 << (id % 64));
        // Plain load/store (not fetch_or): the table is single-threaded
        // within a query, atomics only keep the carrying scratch `Sync`.
        self.known[w].store(self.known[w].load(Relaxed) | b, Relaxed);
        if pass {
            self.pass[w].store(self.pass[w].load(Relaxed) | b, Relaxed);
        } else {
            self.pass[w].store(self.pass[w].load(Relaxed) & !b, Relaxed);
        }
    }

    /// Number of rows with a recorded verdict (diagnostics/tests).
    pub fn known_count(&self) -> usize {
        self.known.iter().map(|w| w.load(Relaxed).count_ones() as usize).sum()
    }

    /// Heap bytes held by the two word arrays.
    pub fn memory_bytes(&self) -> usize {
        (self.known.len() + self.pass.len()) * 8
    }
}

/// A memoizing wrapper around any [`NodeFilter`]: first check per row
/// evaluates the inner filter and records the verdict; revisits are answered
/// from the memo. Search results are bit-identical to using the inner filter
/// directly (property tested) — only the evaluation count changes.
///
/// The filter takes ownership of the table for the duration of the query
/// (take it from the scratch with `SearchScratch::take_memo`, return it with
/// [`into_memo`](Self::into_memo)); [`hits`](Self::hits) reports how many
/// checks were answered from the memo, which callers feed into
/// `SearchStats::npred_cached`.
pub struct MemoFilter<'a, F: NodeFilter> {
    inner: &'a F,
    memo: MemoTable,
    hits: Cell<u64>,
}

impl<'a, F: NodeFilter> MemoFilter<'a, F> {
    /// Wrap `inner` with a memo that has been
    /// [`reset_for`](MemoTable::reset_for) the query's row universe.
    pub fn new(inner: &'a F, memo: MemoTable) -> Self {
        Self { inner, memo, hits: Cell::new(0) }
    }

    /// Checks answered from the memo (cache hits) so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// The memo table (for introspection).
    pub fn memo(&self) -> &MemoTable {
        &self.memo
    }

    /// Release the memo table back to its owner (typically the scratch).
    pub fn into_memo(self) -> MemoTable {
        self.memo
    }
}

impl<F: NodeFilter> NodeFilter for MemoFilter<'_, F> {
    #[inline]
    fn passes(&self, id: u32) -> bool {
        if let Some(verdict) = self.memo.lookup(id) {
            self.hits.set(self.hits.get() + 1);
            verdict
        } else {
            let verdict = self.inner.passes(id);
            self.memo.record(id, verdict);
            verdict
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Passes every row, counting its evaluations.
    #[derive(Default)]
    struct CountedAllPass(Cell<u64>);

    impl NodeFilter for CountedAllPass {
        fn passes(&self, _id: u32) -> bool {
            self.0.set(self.0.get() + 1);
            true
        }
    }

    #[test]
    fn records_and_replays_verdicts() {
        let mut memo = MemoTable::new();
        memo.reset_for(130);
        assert!(memo.capacity() >= 130);
        assert_eq!(memo.lookup(64), None);
        memo.record(64, true);
        memo.record(129, false);
        assert_eq!(memo.lookup(64), Some(true));
        assert_eq!(memo.lookup(129), Some(false));
        assert_eq!(memo.known_count(), 2);
        memo.reset_for(130);
        assert_eq!(memo.lookup(64), None, "reset must forget verdicts");
    }

    #[test]
    fn stale_pass_bits_never_leak_across_queries() {
        let mut memo = MemoTable::new();
        memo.reset_for(64);
        memo.record(7, true);
        memo.reset_for(64);
        // The pass bit for 7 is still set internally, but unknown gates it.
        assert_eq!(memo.lookup(7), None);
        memo.record(7, false);
        assert_eq!(memo.lookup(7), Some(false), "record must overwrite the stale pass bit");
    }

    #[test]
    fn memo_filter_evaluates_each_row_once() {
        let counted = CountedAllPass::default();
        let mut memo = MemoTable::new();
        memo.reset_for(100);
        let mf = MemoFilter::new(&counted, memo);
        for round in 0..3 {
            for id in 0..100u32 {
                assert!(mf.passes(id), "round {round}");
            }
        }
        assert_eq!(counted.0.get(), 100, "inner filter must see each row exactly once");
        assert_eq!(mf.hits(), 200);
        assert_eq!(mf.memo().known_count(), 100);
    }

    #[test]
    fn grows_for_larger_universes() {
        let mut memo = MemoTable::new();
        memo.reset_for(10);
        memo.reset_for(1000);
        memo.record(999, true);
        assert_eq!(memo.lookup(999), Some(true));
    }
}
