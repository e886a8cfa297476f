//! Epoch-stamped visited sets.
//!
//! Graph search must test "have I touched this node during *this* query?"
//! millions of times. Clearing a boolean array per query would cost `O(n)`;
//! instead each slot stores the epoch at which it was last marked and a query
//! simply bumps the epoch. The array is only wiped on the (rare) epoch
//! overflow. Stamps start at 0 and the epoch never is, so a fresh or
//! freshly grown slot reads unvisited.

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
}
