//! Ordered `(distance, id)` pairs and the heap types used by graph search.
//!
//! The greedy beam search keeps two priority queues: a min-heap of
//! *candidates* (closest first, to pick the next node to expand) and a
//! max-heap of *results* (furthest first, to evict the worst of the dynamic
//! list `W`). Both are `std::collections::BinaryHeap` over [`Neighbor`] with
//! the ordering flipped where needed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A node id together with its distance to the current query.
///
/// Ordering is by `dist` (using `f32::total_cmp`, so NaN is handled
/// deterministically), tie-broken by `id` for reproducibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Distance to the query (smaller = closer).
    pub dist: f32,
    /// Node id within the index.
    pub id: u32,
}

impl Neighbor {
    /// Convenience constructor.
    #[inline]
    pub fn new(dist: f32, id: u32) -> Self {
        Self { dist, id }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist).then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap over [`Neighbor`]: `pop` returns the *closest* element.
#[derive(Debug, Clone, Default)]
pub struct MinHeap {
    inner: BinaryHeap<std::cmp::Reverse<Neighbor>>,
}

impl MinHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an element.
    #[inline]
    pub fn push(&mut self, n: Neighbor) {
        self.inner.push(std::cmp::Reverse(n));
    }

    /// Remove and return the closest element.
    #[inline]
    pub fn pop(&mut self) -> Option<Neighbor> {
        self.inner.pop().map(|r| r.0)
    }

    /// Remove all elements, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

/// A `(distance, id)` pair ordered by distance first, under `f32::total_cmp`,
/// then by id: what a [`TopK`] holds. [`Neighbor`] is one; the segmented
/// index's global-id result is the other.
pub trait Scored: Ord + Copy {
    /// The distance the order is keyed on first.
    fn dist(&self) -> f32;
}

impl Scored for Neighbor {
    fn dist(&self) -> f32 {
        self.dist
    }
}

/// Bounded max-heap holding the best (closest) `k` [`Scored`] elements seen.
///
/// `push` keeps at most `k` elements, evicting the furthest. This is the
/// dynamic result list `W` of Algorithm 1/2 in the ACORN paper as well as the
/// top-K accumulator of the brute-force scans.
#[derive(Debug, Clone)]
pub struct TopK<T = Neighbor> {
    k: usize,
    inner: BinaryHeap<T>,
}

impl<T: Scored> TopK<T> {
    /// Create an accumulator that retains the closest `k` elements.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "TopK requires k > 0");
        Self { k, inner: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offer an element; it is retained only if among the closest `k` so far.
    /// Returns `true` if the element was kept.
    #[inline]
    pub fn push(&mut self, n: T) -> bool {
        if self.inner.len() < self.k {
            self.inner.push(n);
            true
        } else if let Some(mut worst) = self.inner.peek_mut() {
            if n < *worst {
                *worst = n;
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// The distance an element must not exceed to have a chance of being
    /// kept: the `k`-th distance once the accumulator is full, `+∞` before.
    /// An element whose distance is strictly greater (`d > bound`, an IEEE
    /// compare, false whenever either side is NaN) is greater than the worst
    /// retained one in the total order too, so `push` would turn it away.
    #[inline]
    pub fn bound(&self) -> f32 {
        match self.inner.peek() {
            Some(worst) if self.is_full() => worst.dist(),
            _ => f32::INFINITY,
        }
    }

    /// True when the accumulator holds `k` elements.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.inner.len() >= self.k
    }

    /// Consume and return the retained elements sorted closest-first.
    pub fn into_sorted(self) -> Vec<T> {
        let mut v = self.inner.into_vec();
        v.sort_unstable();
        v
    }
}

/// K-way merge of ascending-sorted lists: the `k` smallest elements across
/// all of `lists`, ascending; generic so any `(distance, id)`-like ordering
/// works. The engine no longer calls it — the segmented index collects every
/// segment into one query-wide [`TopK`] — and it stays public only because
/// the repo benchmark's adapter binds it (its `hnsw.merge_k_us` stage).
///
/// Runs in `O(k · log L)` for `L` input lists via a cursor heap — no
/// concatenate-and-sort of all inputs.
pub fn merge_k_sorted<T: Ord + Copy>(lists: &[Vec<T>], k: usize) -> Vec<T> {
    let mut heap: BinaryHeap<std::cmp::Reverse<(T, usize)>> =
        BinaryHeap::with_capacity(lists.len());
    let mut pos = vec![0usize; lists.len()];
    for (i, l) in lists.iter().enumerate() {
        debug_assert!(l.windows(2).all(|w| w[0] <= w[1]), "input list {i} must be sorted");
        if let Some(&t) = l.first() {
            heap.push(std::cmp::Reverse((t, i)));
            pos[i] = 1;
        }
    }
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(k.min(total));
    while out.len() < k {
        let Some(std::cmp::Reverse((t, i))) = heap.pop() else { break };
        out.push(t);
        if let Some(&next) = lists[i].get(pos[i]) {
            pos[i] += 1;
            heap.push(std::cmp::Reverse((next, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_ordering_is_by_distance_then_id() {
        let a = Neighbor::new(1.0, 5);
        let b = Neighbor::new(2.0, 1);
        let c = Neighbor::new(1.0, 7);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn neighbor_ordering_handles_nan_deterministically() {
        let nan = Neighbor::new(f32::NAN, 0);
        let one = Neighbor::new(1.0, 1);
        // total_cmp places NaN above all numbers.
        assert!(one < nan);
    }

    #[test]
    fn min_heap_pops_closest_first() {
        let mut h = MinHeap::new();
        for (d, id) in [(3.0, 0), (1.0, 1), (2.0, 2)] {
            h.push(Neighbor::new(d, id));
        }
        assert_eq!(h.pop().unwrap().id, 1);
        assert_eq!(h.pop().unwrap().id, 2);
        assert_eq!(h.pop().unwrap().id, 0);
        assert!(h.pop().is_none());
    }

    #[test]
    fn topk_keeps_closest_k() {
        let mut t = TopK::new(3);
        for (d, id) in [(5.0, 0), (4.0, 1), (3.0, 2), (2.0, 3), (1.0, 4)] {
            t.push(Neighbor::new(d, id));
        }
        let got: Vec<u32> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(got, vec![4, 3, 2]);
    }

    #[test]
    fn topk_push_reports_kept() {
        let mut t = TopK::new(2);
        assert!(t.push(Neighbor::new(1.0, 0)));
        assert!(t.push(Neighbor::new(2.0, 1)));
        assert!(!t.push(Neighbor::new(3.0, 2)), "worse than worst must be rejected");
        assert!(t.push(Neighbor::new(0.5, 3)));
        assert_eq!(t.into_sorted().len(), 2);
    }

    #[test]
    fn topk_matches_sort_oracle() {
        // Deterministic pseudo-random data, no external RNG needed here.
        let mut xs: Vec<f32> =
            (0..200).map(|i| ((i * 2654435761u64 % 1000) as f32) / 10.0).collect();
        let mut t = TopK::new(10);
        for (i, &d) in xs.iter().enumerate() {
            t.push(Neighbor::new(d, i as u32));
        }
        let got: Vec<f32> = t.into_sorted().iter().map(|n| n.dist).collect();
        xs.sort_by(f32::total_cmp);
        assert_eq!(got, &xs[..10]);
    }

    #[test]
    fn topk_bound_is_infinite_until_full_then_the_kth_distance() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f32::INFINITY);
        t.push(Neighbor::new(3.0, 0));
        assert_eq!(t.bound(), f32::INFINITY, "one of two held");
        t.push(Neighbor::new(1.0, 1));
        assert_eq!(t.bound(), 3.0);
        t.push(Neighbor::new(2.0, 2));
        assert_eq!(t.bound(), 2.0, "the evicted row no longer bounds");
        t.push(Neighbor::new(f32::NAN, 3));
        assert_eq!(t.bound(), 2.0, "NaN sorts last and is turned away");
        t.push(Neighbor::new(-f32::NAN, 4));
        assert_eq!(t.bound(), 1.0, "-NaN sorts first and enters");
        t.push(Neighbor::new(-f32::NAN, 5));
        assert!(t.bound().is_nan(), "two -NaN held: a bound no compare exceeds");
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn topk_zero_panics() {
        let _ = TopK::<Neighbor>::new(0);
    }

    #[test]
    fn merge_k_sorted_matches_sort_oracle() {
        let lists = vec![vec![1u32, 4, 7, 9], vec![2u32, 3, 8], vec![], vec![5u32, 6]];
        let mut all: Vec<u32> = lists.iter().flatten().copied().collect();
        all.sort_unstable();
        for k in [0usize, 1, 3, 9, 20] {
            let got = merge_k_sorted(&lists, k);
            assert_eq!(got, all[..k.min(all.len())].to_vec(), "k = {k}");
        }
        assert!(merge_k_sorted::<u32>(&[], 5).is_empty());
    }

    #[test]
    fn merge_k_sorted_breaks_distance_ties_by_id() {
        let a = vec![Neighbor::new(1.0, 4), Neighbor::new(2.0, 0)];
        let b = vec![Neighbor::new(1.0, 2), Neighbor::new(1.0, 9)];
        let got: Vec<u32> = merge_k_sorted(&[a, b], 3).iter().map(|n| n.id).collect();
        assert_eq!(got, vec![2, 4, 9]);
    }
}
