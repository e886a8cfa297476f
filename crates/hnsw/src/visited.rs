//! Epoch-stamped per-node tables: the visited set and the resume memo.
//!
//! Graph search must test "have I touched this node during *this* query?"
//! millions of times. Clearing a boolean array per query would cost `O(n)`;
//! instead each slot stores the epoch at which it was last marked and a query
//! simply bumps the epoch. The array is only wiped on the (rare) epoch
//! overflow. Stamps start at 0 and the epoch never is, so a fresh or
//! freshly grown slot reads unvisited. [`ResumeMemo`] stamps its marks the
//! same way, with one tick per neighbor lookup.

/// A reusable visited-set over node ids `0..n`.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Default for VisitedSet {
    fn default() -> Self {
        Self::new(0)
    }
}

impl VisitedSet {
    /// Create a set covering ids `0..n`, none of them visited.
    pub fn new(n: usize) -> Self {
        Self { stamps: vec![0; n], epoch: 1 }
    }

    /// Begin a new query: all ids become unvisited in O(1).
    #[inline]
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Grow the universe to cover ids `0..n` (no-op if already large enough).
    pub fn grow(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
    }

    /// Mark `id` visited. Returns `true` if it was *newly* visited.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// True if `id` has been visited since the last [`reset`](Self::reset).
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }

    /// Capacity (number of addressable ids).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }
}

/// Where ACORN's two-hop expansion left off in each node's neighbor list,
/// for one layer search.
///
/// A mark says that the lookup with tick `tick` walked node `y`'s list up
/// to `offset`, and that `failing` of the entries in that prefix were fresh
/// (unvisited, and not the node being expanded) and failed the filter. The
/// layer search that owns the memo marks every id a lookup admits visited
/// before the next lookup runs, so once that lookup is over each entry of
/// the prefix is visited or failing for the rest of the layer search: a
/// later lookup may skip the prefix and count `failing` checks for it (see
/// `acorn_core::lookup`). Each mark is 8 bytes.
///
/// [`begin`](Self::begin) forgets every mark in O(1) and
/// [`next_lookup`](Self::next_lookup) starts a lookup; a mark is returned
/// only to a later lookup of the same layer search. The table is wiped only
/// when the tick wraps.
#[derive(Debug, Clone, Default)]
pub struct ResumeMemo {
    marks: Vec<ResumeMark>,
    /// Ticks up to here belong to earlier layer searches.
    base: u32,
    /// The current lookup's tick.
    tick: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct ResumeMark {
    tick: u32,
    offset: u16,
    failing: u16,
}

impl ResumeMemo {
    /// Begin a layer search over ids `0..n`: grow the table if needed and
    /// forget every mark, in O(1).
    pub fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, ResumeMark::default());
        }
        self.base = self.tick;
    }

    /// Begin a lookup. Marks it records are returned only to later
    /// lookups; on tick wrap the table is wiped, which forgets them all.
    #[inline]
    pub fn next_lookup(&mut self) {
        if self.tick == u32::MAX {
            self.marks.fill(ResumeMark::default());
            (self.base, self.tick) = (0, 0);
        }
        self.tick += 1;
    }

    /// `(offset, failing)` as an earlier lookup of this layer search left
    /// them for `y`'s list, or `(0, 0)` when none did.
    #[inline]
    pub fn resume(&self, y: u32) -> (usize, u64) {
        let mark = self.marks[y as usize];
        if mark.tick > self.base && mark.tick < self.tick {
            (usize::from(mark.offset), u64::from(mark.failing))
        } else {
            (0, 0)
        }
    }

    /// Record that this lookup walked `y`'s list up to `offset` with
    /// `failing` fresh failing entries in that prefix. A prefix too long
    /// for a mark is not recorded: a later lookup resumes from the mark
    /// before it, or walks the list from its start.
    #[inline]
    pub fn record(&mut self, y: u32, offset: usize, failing: u64) {
        if let (Ok(offset), Ok(failing)) = (u16::try_from(offset), u16::try_from(failing)) {
            self.marks[y as usize] = ResumeMark { tick: self.tick, offset, failing };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_set_has_visited_nothing() {
        let mut v = VisitedSet::new(3);
        assert!((0..3).all(|id| !v.contains(id)));
        assert!(v.insert(0), "the first insert into a fresh set is new");
        let mut d = VisitedSet::default();
        d.grow(2);
        assert!(!d.contains(1));
    }

    #[test]
    fn insert_and_contains() {
        let mut v = VisitedSet::new(10);
        v.reset();
        assert!(!v.contains(3));
        assert!(v.insert(3));
        assert!(v.contains(3));
        assert!(!v.insert(3), "second insert must report already-visited");
    }

    #[test]
    fn reset_clears_in_constant_time() {
        let mut v = VisitedSet::new(4);
        v.reset();
        v.insert(0);
        v.insert(1);
        v.reset();
        assert!(!v.contains(0));
        assert!(!v.contains(1));
    }

    #[test]
    fn epoch_overflow_is_safe() {
        let mut v = VisitedSet::new(2);
        v.epoch = u32::MAX - 1;
        v.reset(); // -> MAX
        v.insert(0);
        assert!(v.contains(0));
        v.reset(); // overflow path: wipes and restarts
        assert!(!v.contains(0));
        v.insert(1);
        assert!(v.contains(1));
    }

    #[test]
    fn grow_extends_universe() {
        let mut v = VisitedSet::new(2);
        v.grow(5);
        v.reset();
        assert!(v.insert(4));
        assert!(v.contains(4));
    }

    #[test]
    fn a_mark_reaches_only_later_lookups_of_its_layer_search() {
        let mut memo = ResumeMemo::default();
        memo.begin(3);
        memo.next_lookup();
        assert_eq!(memo.resume(1), (0, 0), "nothing recorded yet");
        memo.record(1, 5, 2);
        assert_eq!(memo.resume(1), (0, 0), "the lookup that recorded it walks again");
        memo.next_lookup();
        assert_eq!(memo.resume(1), (5, 2));
        memo.record(1, 70_000, 0);
        memo.next_lookup();
        assert_eq!(memo.resume(1), (5, 2), "an offset past u16 keeps the older mark");
        memo.begin(3);
        memo.next_lookup();
        assert_eq!(memo.resume(1), (0, 0), "a new layer search forgets every mark");
    }

    #[test]
    fn tick_wrap_wipes_every_mark() {
        let mut memo = ResumeMemo::default();
        memo.begin(2);
        memo.tick = u32::MAX - 2;
        memo.next_lookup();
        memo.record(0, 4, 1);
        memo.next_lookup(); // -> u32::MAX
        assert_eq!(memo.resume(0), (4, 1));
        memo.record(1, 3, 0);
        memo.next_lookup(); // wraps: wiped, tick 1
        assert_eq!(memo.tick, 1);
        assert_eq!((memo.resume(0), memo.resume(1)), ((0, 0), (0, 0)));
        memo.record(1, 2, 2);
        memo.next_lookup();
        assert_eq!(memo.resume(1), (2, 2), "the memo works on after the wrap");
        memo.begin(2);
        memo.next_lookup();
        assert_eq!(memo.resume(1), (0, 0));
    }
}
