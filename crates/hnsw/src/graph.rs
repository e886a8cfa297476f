//! The multi-level adjacency structure shared by HNSW, ACORN, and the
//! graph-based baselines.
//!
//! A [`LayeredGraph`] stores, for every node, its maximum level and one
//! neighbor list per level `0..=max_level`. Neighbor lists are in
//! (approximate) nearest-first order; the *order* is load bearing for
//! ACORN, whose search truncates lists to a prefix and whose compression
//! keeps the `M_β` nearest candidates verbatim.
//!
//! Every list lives in one append-only `u32` buffer shared by every clone of
//! the graph — the sharing protocol of [`VectorStore`](crate::VectorStore)'s
//! rows — and a graph is a handle onto it: the buffer, a `Copy` table of
//! spans (`start`, `len`, `cap`) per node and level, and the level tags.
//! [`LayeredGraph::clone`] is therefore one `Arc` bump plus a copy of the
//! tables (~18 B per node); no list is copied. No edit writes a word another
//! handle reaches:
//!
//! * a list whose region was claimed since the buffer was last shared (a
//!   clone raises that watermark to the cloned handle's tip) is this
//!   handle's alone, and a new version that fits the region is written over
//!   it. That covers most edits of a graph that was never cloned — whose
//!   lists are claimed with room to grow, as a `Vec` would be — and an
//!   insert's second edit of a list it already moved;
//! * a list that ends at the handle's tip grows past it;
//! * any other edit writes the list's new version at the tip, and the old
//!   version becomes dead words.
//!
//! When the dead words outnumber the live ones the handle compacts its lists
//! into a fresh buffer, so below a handle's tip the dead words never exceed
//! the live ones; the spare words of lists claimed with room come on top,
//! fewer than the live ones after a compaction. Views pinned on an old
//! buffer keep it alive. A handle that is not at its buffer's tip — a clone
//! of an older view whose sibling has appended since — moves to a fresh
//! buffer on its first edit.

use std::ops::Range;
use std::sync::Arc;

use crate::vecs::RowBuf;

/// Read-only view of a multi-level graph: the contract query-time traversal
/// is written against.
///
/// Both the mutable build-time layout ([`LayeredGraph`]) and the frozen
/// query-time layout ([`CsrGraph`](crate::csr::CsrGraph)) implement this
/// trait, so every search routine (`search_layer`'s neighborhoods,
/// `greedy_descend`, ACORN's lookups) is generic over the
/// representation and monomorphizes to direct slice access on either. The
/// graph baselines' flat one-level `[Vec<u32>]` implements it too.
pub trait GraphView {
    /// Number of nodes.
    fn len(&self) -> usize;
    /// True if the graph has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The fixed entry point (highest node inserted so far).
    fn entry_point(&self) -> Option<u32>;
    /// Maximum level index present.
    fn max_level(&self) -> usize;
    /// Maximum level of node `v`.
    fn level_of(&self, v: u32) -> usize;
    /// Borrow the neighbor list of `v` at `level`.
    fn neighbors(&self, v: u32, level: usize) -> &[u32];
}

/// Per-level statistics used by Table 6 and Figure 13 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Level index (0 = bottom).
    pub level: usize,
    /// Number of nodes present on this level.
    pub nodes: usize,
    /// Total directed edges on this level.
    pub edges: usize,
    /// Average out-degree of nodes on this level.
    pub avg_out_degree: f64,
    /// Maximum out-degree on this level.
    pub max_out_degree: usize,
}

/// The words a list of `len` words is claimed with while its buffer has
/// never been shared: the next power of two, as a `Vec` grows, so that a
/// bulk build's pushes land in place.
#[inline]
fn room(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

/// Where one neighbor list lives in a graph's edge buffer: `len` words from
/// `start`, in a region of `cap` words this handle claimed for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// Every field fits `u32` because every edge buffer does (see
    /// [`LayeredGraph::relocate`]).
    #[inline]
    fn new(start: usize, len: usize, cap: usize) -> Self {
        Self { start: start as u32, len: len as u32, cap: cap as u32 }
    }

    #[inline]
    fn end(self) -> usize {
        self.start as usize + self.len as usize
    }

    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..self.end()
    }

    /// Claimed words past the list.
    #[inline]
    fn spare(self) -> usize {
        (self.cap - self.len) as usize
    }
}

/// Multi-level directed graph over node ids `0..len`.
///
/// A handle onto a shared edge buffer (see the [module docs](self)): a
/// clone shares every list with the original, and the two then behave as
/// independent graphs — no edit through one is ever seen through the other.
#[derive(Debug)]
pub struct LayeredGraph {
    /// Every list this handle reaches, among dead words and words only
    /// other handles reach.
    edges: Arc<RowBuf<u32>>,
    /// Words of `edges` this handle has claimed: every region ends at or
    /// below it, and every word below it outside a region is dead.
    tip: usize,
    /// Words the spans reach.
    live: usize,
    /// Claimed words past the lists, in their regions: `Σ cap - len`. The
    /// rest of `tip - live`, old versions of lists, is dead, and compaction
    /// holds it at or below `live`.
    spare: usize,
    /// `levels[v]` = maximum level index of node `v`.
    levels: Vec<u8>,
    /// `base[v]` = the level-0 list of node `v`: one load from the list.
    base: Vec<Span>,
    /// Node `v`'s lists on levels `1..=levels[v]` are
    /// `upper[upper_at[v]..][..levels[v]]`.
    upper_at: Vec<u32>,
    upper: Vec<Span>,
    /// Entry point node, if any node has been added.
    entry: Option<u32>,
    /// Maximum level index present in the graph.
    max_level: usize,
}

impl Clone for LayeredGraph {
    /// One `Arc` bump and a copy of the span and level tables. The buffer's
    /// watermark rises to this handle's tip first, so neither graph
    /// rewrites a word the other reaches.
    fn clone(&self) -> Self {
        self.edges.share(self.tip);
        Self {
            edges: Arc::clone(&self.edges),
            tip: self.tip,
            live: self.live,
            spare: self.spare,
            levels: self.levels.clone(),
            base: self.base.clone(),
            upper_at: self.upper_at.clone(),
            upper: self.upper.clone(),
            entry: self.entry,
            max_level: self.max_level,
        }
    }
}

impl Default for LayeredGraph {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl LayeredGraph {
    /// The smallest edge buffer a graph allocates, so that a small graph's
    /// first edges do not each move it.
    const MIN_WORDS: usize = 64;

    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with capacity reserved for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            edges: Arc::new(RowBuf::with_capacity(0)),
            tip: 0,
            live: 0,
            spare: 0,
            levels: Vec::with_capacity(n),
            base: Vec::with_capacity(n),
            upper_at: Vec::with_capacity(n),
            upper: Vec::new(),
            entry: None,
            max_level: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The fixed entry point (highest node inserted so far).
    #[inline]
    pub fn entry_point(&self) -> Option<u32> {
        self.entry
    }

    /// Maximum level index present.
    #[inline]
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Maximum level of node `v`.
    #[inline]
    pub fn level_of(&self, v: u32) -> usize {
        self.levels[v as usize] as usize
    }

    /// Add a node with the given maximum level; returns its id.
    ///
    /// The first node added becomes the entry point, as does any later node
    /// whose level exceeds the current maximum.
    pub fn add_node(&mut self, level: usize) -> u32 {
        assert!(level <= u8::MAX as usize, "level {level} exceeds supported maximum");
        let id = self.levels.len() as u32;
        self.levels.push(level as u8);
        self.base.push(Span::default());
        let upper_at = u32::try_from(self.upper.len()).expect("upper-level lists fit u32 ids");
        self.upper_at.push(upper_at);
        self.upper.resize(self.upper.len() + level, Span::default());
        match self.entry {
            None => {
                self.entry = Some(id);
                self.max_level = level;
            }
            Some(_) if level > self.max_level => {
                self.entry = Some(id);
                self.max_level = level;
            }
            _ => {}
        }
        id
    }

    /// Position in `upper` of `v`'s list on `level >= 1`.
    ///
    /// # Panics
    /// Panics if `level > level_of(v)`.
    #[inline]
    fn upper_index(&self, v: u32, level: usize) -> usize {
        let top = self.levels[v as usize] as usize;
        assert!(level <= top, "node {v} has no level {level} (its top is {top})");
        self.upper_at[v as usize] as usize + level - 1
    }

    #[inline]
    fn span(&self, v: u32, level: usize) -> Span {
        if level == 0 {
            self.base[v as usize]
        } else {
            self.upper[self.upper_index(v, level)]
        }
    }

    #[inline]
    fn span_mut(&mut self, v: u32, level: usize) -> &mut Span {
        if level == 0 {
            &mut self.base[v as usize]
        } else {
            let i = self.upper_index(v, level);
            &mut self.upper[i]
        }
    }

    /// Borrow the neighbor list of `v` at `level`.
    ///
    /// # Panics
    /// Panics if `level > level_of(v)`.
    #[inline]
    pub fn neighbors(&self, v: u32, level: usize) -> &[u32] {
        // SAFETY: the span lies below this handle's tip. A word below a tip
        // is written again only in place, by the one handle that claimed it
        // since the buffer was last shared (`exclusive`), through `&mut` of
        // that handle: no other handle reaches the word, and this one does
        // not write while this `&self` borrow lives.
        unsafe { self.edges.get(self.span(v, level).range()) }
    }

    /// True when no other handle reaches `span`'s region: it was claimed
    /// by this handle since the buffer was last shared, so this handle may
    /// rewrite it in place.
    #[inline]
    fn exclusive(&self, span: Span) -> bool {
        span.start as usize >= self.edges.shared()
    }

    /// The region a list of `len` words is claimed with: [`room`] to grow
    /// while the buffer has never been shared (a bulk build's pushes then
    /// land in place), exactly `len` once it has been (a publication
    /// shares the list before the next push could).
    #[inline]
    fn reserve(&self, len: usize) -> usize {
        if self.edges.shared() == 0 {
            room(len)
        } else {
            len
        }
    }

    /// Claim the region of a new list of `len` words at this handle's tip,
    /// first moving to a fresh, compacted buffer when the claim fails: the
    /// buffer is full, or another handle on it (a clone) has claimed past
    /// this one's tip. The span returned is empty; the caller fills it.
    fn claim_list(&mut self, len: usize) -> Span {
        let mut cap = self.reserve(len);
        if !self.edges.claim(self.tip, cap) {
            self.relocate(room(len));
            cap = self.reserve(len);
            assert!(self.edges.claim(self.tip, cap), "a fresh buffer has room at its tip");
        }
        self.tip += cap;
        Span::new(self.tip - cap, 0, cap)
    }

    /// Copy every list, in node order, into a fresh buffer with room for
    /// `extra` more words and as many again as the lists take (at least
    /// [`MIN_WORDS`](Self::MIN_WORDS)). Each list keeps its spare words up
    /// to what a fresh claim would reserve; the dead words stay behind, and
    /// every list becomes this handle's alone.
    ///
    /// # Panics
    /// Panics if the buffer would exceed `u32::MAX` words.
    fn relocate(&mut self, extra: usize) {
        let capacity = (2 * (self.live + self.spare + extra)).max(Self::MIN_WORDS);
        assert!(capacity <= u32::MAX as usize, "a graph's lists exceed 2^32 words");
        let mut words = vec![0; capacity];
        let mut at = 0;
        for v in 0..self.levels.len() {
            let first = self.upper_at[v] as usize;
            let upper = &mut self.upper[first..first + self.levels[v] as usize];
            for span in std::iter::once(&mut self.base[v]).chain(upper) {
                let len = span.len as usize;
                // SAFETY: the span lies below this handle's tip, and nothing
                // writes this buffer while `&mut self` is held (see
                // `neighbors`).
                words[at..at + len].copy_from_slice(unsafe { self.edges.get(span.range()) });
                let cap = (span.cap as usize).min(room(len));
                *span = Span::new(at, len, cap);
                at += cap;
            }
        }
        (self.tip, self.spare) = (at, at - self.live);
        self.edges = Arc::new(RowBuf::from_vec(words, at));
    }

    /// Make `span` the list of `v` at `level`, and compact once the dead
    /// words outnumber the live ones.
    #[inline]
    fn put(&mut self, v: u32, level: usize, span: Span) {
        let old = std::mem::replace(self.span_mut(v, level), span);
        self.live = self.live + span.len as usize - old.len as usize;
        self.spare = self.spare + span.spare() - old.spare();
        if self.tip - self.live - self.spare > self.live {
            self.relocate(0);
        }
    }

    /// Replace the neighbor list of `v` at `level`.
    ///
    /// The list is written over the old one when it fits the old one's
    /// region and no other handle reaches that; otherwise it is written at
    /// the tip.
    pub fn set_neighbors(&mut self, v: u32, level: usize, list: Vec<u32>) {
        let old = self.span(v, level);
        let region = if list.len() <= old.cap as usize && self.exclusive(old) {
            old
        } else {
            self.claim_list(list.len())
        };
        // SAFETY: the region is this handle's alone and unborrowed (`&mut
        // self`): just claimed, or claimed since the buffer was last
        // shared, which no other handle reaches.
        unsafe { self.edges.write(region.start as usize, &list) };
        self.put(v, level, Span { len: list.len() as u32, ..region });
    }

    /// Append one directed edge `v -> w` at `level` (no dedup, no cap).
    ///
    /// The list grows in place into its region's spare words, or past this
    /// handle's tip when it ends there; any other list is copied to a new
    /// region at the tip with `w` after it.
    pub fn push_edge(&mut self, v: u32, w: u32, level: usize) {
        let old = self.span(v, level);
        let len = old.len as usize;
        // A list ending at the tip fills its region: `cap == len`.
        let grow = self.reserve(len + 1) - len;
        let region = if old.spare() > 0 && self.exclusive(old) {
            old
        } else if old.end() == self.tip && self.edges.claim(self.tip, grow) {
            self.tip += grow;
            Span { cap: (len + grow) as u32, ..old }
        } else {
            let region = self.claim_list(len + 1);
            // Re-read: a failed claim moved every list.
            let old = self.span(v, level);
            // SAFETY: the region was just claimed and nothing borrows it;
            // the old list lies below it, unwritten while it is read (see
            // `neighbors`).
            unsafe { self.edges.write(region.start as usize, self.edges.get(old.range())) };
            region
        };
        // SAFETY: the word after the list is in the region, which is this
        // handle's alone (see `set_neighbors`).
        unsafe { self.edges.write(region.start as usize + len, &[w]) };
        self.put(v, level, Span { len: len as u32 + 1, ..region });
    }

    /// Per-level statistics (Table 6 / Figure 13 support).
    pub fn level_stats(&self) -> Vec<LevelStats> {
        let mut out = Vec::with_capacity(self.max_level + 1);
        for level in 0..=self.max_level {
            let mut nodes = 0usize;
            let mut edges = 0usize;
            let mut max_deg = 0usize;
            for v in 0..self.len() as u32 {
                if self.level_of(v) >= level {
                    nodes += 1;
                    let d = self.span(v, level).len as usize;
                    edges += d;
                    max_deg = max_deg.max(d);
                }
            }
            out.push(LevelStats {
                level,
                nodes,
                edges,
                avg_out_degree: if nodes == 0 { 0.0 } else { edges as f64 / nodes as f64 },
                max_out_degree: max_deg,
            });
        }
        out
    }

    /// Freeze this graph into the flat, query-optimized
    /// [`CsrGraph`](crate::csr::CsrGraph) layout.
    ///
    /// The frozen graph is a read-only snapshot: neighbor lists, ordering,
    /// entry point, and levels are preserved exactly, so search over either
    /// layout returns bit-identical results.
    ///
    /// # Panics
    /// Panics if any single level holds more than `u32::MAX` edges (the
    /// offset table is 32-bit; at `M·γ` ≤ a few hundred edges per node that
    /// is over ten billion nodes, far past the `u32` id space itself).
    pub fn freeze(&self) -> crate::csr::CsrGraph {
        let mut b = crate::csr::CsrBuilder::new(self.len());
        for v in 0..self.len() as u32 {
            let level = self.level_of(v);
            b.push_node(level).expect("a layered graph's levels fit the CSR");
            for lev in 0..=level {
                b.push_list(self.neighbors(v, lev).iter().copied())
                    .expect("a layered graph's lists fit the CSR");
            }
        }
        b.finish().expect("every node of the layered graph was pushed")
    }

    /// The growing graph a frozen one was [`freeze`](Self::freeze)d from:
    /// the same nodes, levels, entry point and lists, appended in node order
    /// to one fresh buffer in one pass, with room to grow as much again.
    pub fn thaw(frozen: &crate::csr::CsrGraph) -> Self {
        let n = frozen.len() as u32;
        let lists = |v: u32| (0..=frozen.level_of(v)).map(move |l| frozen.neighbors(v, l));
        let live: usize = (0..n).flat_map(lists).map(<[u32]>::len).sum();
        let capacity = (2 * live).max(Self::MIN_WORDS);
        assert!(capacity <= u32::MAX as usize, "a graph's lists exceed 2^32 words");
        let mut words = vec![0; capacity];
        let mut g = Self::with_capacity(frozen.len());
        for v in 0..n {
            g.add_node(frozen.level_of(v));
            for (level, list) in lists(v).enumerate() {
                words[g.tip..g.tip + list.len()].copy_from_slice(list);
                *g.span_mut(v, level) = Span::new(g.tip, list.len(), list.len());
                g.tip += list.len();
            }
        }
        debug_assert_eq!(g.entry_point(), frozen.entry_point());
        g.edges = Arc::new(RowBuf::from_vec(words, live));
        g.live = live;
        g
    }

    /// Bytes this graph reaches: the words of its lists plus its span and
    /// level tables (index-only footprint; vectors are accounted
    /// separately). Words shared with a clone are counted in full by each
    /// graph. The dead words below its tip, at most as many as the live
    /// ones, are not counted.
    pub fn memory_bytes(&self) -> usize {
        let spans = (self.base.len() + self.upper.len()) * std::mem::size_of::<Span>();
        self.live * std::mem::size_of::<u32>()
            + spans
            + self.upper_at.len() * std::mem::size_of::<u32>()
            + self.levels.len() * std::mem::size_of::<u8>()
    }
}

impl GraphView for LayeredGraph {
    #[inline]
    fn len(&self) -> usize {
        LayeredGraph::len(self)
    }

    #[inline]
    fn entry_point(&self) -> Option<u32> {
        LayeredGraph::entry_point(self)
    }

    #[inline]
    fn max_level(&self) -> usize {
        LayeredGraph::max_level(self)
    }

    #[inline]
    fn level_of(&self, v: u32) -> usize {
        LayeredGraph::level_of(self, v)
    }

    #[inline]
    fn neighbors(&self, v: u32, level: usize) -> &[u32] {
        LayeredGraph::neighbors(self, v, level)
    }
}

/// A flat, one-level adjacency — `self[v]` lists the neighbors of `v` — the
/// way the Vamana-family baselines and NHQ keep their graphs. It has no
/// designated entry point: those callers start from their own (a medoid, a
/// label's start point, node 0).
impl GraphView for [Vec<u32>] {
    #[inline]
    fn len(&self) -> usize {
        <[Vec<u32>]>::len(self)
    }

    #[inline]
    fn entry_point(&self) -> Option<u32> {
        None
    }

    #[inline]
    fn max_level(&self) -> usize {
        0
    }

    #[inline]
    fn level_of(&self, _: u32) -> usize {
        0
    }

    #[inline]
    fn neighbors(&self, v: u32, level: usize) -> &[u32] {
        debug_assert_eq!(level, 0, "a flat adjacency has one level");
        &self[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_point_tracks_highest_node() {
        let mut g = LayeredGraph::new();
        let a = g.add_node(0);
        assert_eq!(g.entry_point(), Some(a));
        let b = g.add_node(3);
        assert_eq!(g.entry_point(), Some(b));
        assert_eq!(g.max_level(), 3);
        let _c = g.add_node(1);
        assert_eq!(g.entry_point(), Some(b), "lower node must not steal entry");
    }

    #[test]
    fn edges_are_per_level() {
        let mut g = LayeredGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.push_edge(a, b, 0);
        g.push_edge(b, a, 1);
        assert_eq!(g.neighbors(a, 0), &[b]);
        assert!(g.neighbors(a, 1).is_empty());
        assert_eq!(g.neighbors(b, 1), &[a]);
    }

    #[test]
    fn level_stats_counts_degrees() {
        let mut g = LayeredGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(0);
        let c = g.add_node(0);
        g.push_edge(a, b, 0);
        g.push_edge(a, c, 0);
        g.push_edge(b, a, 0);
        let s = g.level_stats();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].nodes, 3);
        assert_eq!(s[0].edges, 3);
        assert_eq!(s[0].max_out_degree, 2);
        assert!((s[0].avg_out_degree - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_clone_shares_nodes_and_never_sees_later_edits() {
        let mut g = LayeredGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(0);
        let c = g.add_node(0);
        g.push_edge(a, b, 0);
        g.push_edge(a, c, 1);
        g.push_edge(b, a, 0);
        let pinned = g.clone();
        let shared = |x: &LayeredGraph, y: &LayeredGraph, v: u32| {
            std::ptr::eq(x.neighbors(v, 0).as_ptr(), y.neighbors(v, 0).as_ptr())
        };
        assert!(shared(&g, &pinned, a) && shared(&g, &pinned, b), "cloning copies no list");

        // Every edit writes a new version of the list it touches, past the
        // clone's view, and leaves every other list where it was.
        g.push_edge(a, c, 0);
        g.set_neighbors(c, 0, vec![a, b]);
        g.push_edge(c, c, 0);
        let d = g.add_node(2);
        assert!(!shared(&g, &pinned, a));
        assert!(shared(&g, &pinned, b), "an untouched list stays shared");
        assert_eq!(g.neighbors(a, 0), &[b, c]);
        assert_eq!(g.neighbors(a, 1), &[c], "the other levels stay");
        assert_eq!(g.neighbors(c, 0), &[a, b, c]);
        assert_eq!((g.len(), g.entry_point(), g.max_level()), (4, Some(d), 2));

        assert_eq!(pinned.neighbors(a, 0), &[b]);
        assert_eq!(pinned.neighbors(a, 1), &[c]);
        assert!(pinned.neighbors(c, 0).is_empty());
        assert_eq!((pinned.len(), pinned.entry_point(), pinned.max_level()), (3, Some(a), 1));

        // A list moved since the clone is the survivor's alone: a shorter
        // version is written over it, and one at the tip grows in place.
        let moved = g.neighbors(a, 0).as_ptr();
        g.set_neighbors(a, 0, vec![c]);
        assert_eq!(g.neighbors(a, 0).as_ptr(), moved);
        let tip = g.neighbors(c, 0).as_ptr();
        g.push_edge(c, d, 0);
        assert_eq!(g.neighbors(c, 0).as_ptr(), tip);
        assert_eq!((g.neighbors(a, 0), g.neighbors(c, 0)), (&[c][..], &[a, b, c, d][..]));
        assert_eq!(pinned.neighbors(a, 0), &[b]);
        assert!(pinned.neighbors(c, 0).is_empty());
    }

    #[test]
    fn a_clone_that_edits_moves_to_its_own_buffer() {
        let mut g = LayeredGraph::new();
        for _ in 0..3 {
            g.add_node(0);
        }
        g.push_edge(0, 1, 0);
        let mut fork = g.clone();
        // Both handles sit at the tip: the first to append claims it, the
        // other finds it taken and compacts its lists into a fresh buffer.
        g.push_edge(2, 0, 0);
        fork.push_edge(2, 1, 0);
        assert!(!Arc::ptr_eq(&g.edges, &fork.edges));
        assert_eq!((g.neighbors(2, 0), fork.neighbors(2, 0)), (&[0][..], &[1][..]));
        assert_eq!((g.neighbors(0, 0), fork.neighbors(0, 0)), (&[1][..], &[1][..]));
        // The fresh buffer is the fork's alone: it rewrites in place.
        let list = fork.neighbors(0, 0).as_ptr();
        fork.set_neighbors(0, 0, vec![2]);
        assert_eq!(fork.neighbors(0, 0).as_ptr(), list);
        assert_eq!(g.neighbors(0, 0), &[1]);
    }

    #[test]
    fn dead_words_never_outnumber_live_ones() {
        let mut g = LayeredGraph::new();
        for v in 0..50 {
            g.add_node(usize::from(v % 7 == 0));
        }
        let mut views = Vec::new();
        for round in 0..400u32 {
            let v = round * 31 % 50;
            g.push_edge(v, round % 50, 0);
            if g.neighbors(v, 0).len() > 6 {
                let keep = g.neighbors(v, 0)[..3].to_vec();
                g.set_neighbors(v, 0, keep);
            }
            if round % 5 == 0 {
                views.push(g.clone());
            }
            let dead = g.tip - g.live - g.spare;
            assert!(dead <= g.live, "round {round}: {dead} dead, {} live", g.live);
        }
        let live: usize = (0..50).map(|v| g.neighbors(v, 0).len()).sum();
        assert_eq!(live, g.live);
        // Every view still reads what it was cloned with.
        for view in &views {
            let words: usize = (0..50).map(|v| view.neighbors(v, 0).len()).sum();
            assert_eq!(words, view.live);
        }
    }

    #[test]
    fn readers_on_other_threads_see_their_own_lists_while_the_writer_edits() {
        // The serving pattern: one writer edits and hands out clones; each
        // reader checks its clone against the lists it was sent with, while
        // later edits land in the same buffer (in place, past the tip, or in
        // a fresh one after a compaction).
        const NODES: u32 = 16;
        const ROUNDS: u32 = 64;
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel::<(LayeredGraph, Vec<Vec<u32>>)>();
            let reader = scope.spawn(move || {
                let mut seen = 0;
                for (snap, lists) in rx {
                    seen += 1;
                    for (v, list) in lists.iter().enumerate() {
                        assert_eq!(snap.neighbors(v as u32, 0), list.as_slice());
                    }
                }
                seen
            });
            let mut writer = LayeredGraph::new();
            let mut lists = vec![Vec::new(); NODES as usize];
            for _ in 0..NODES {
                writer.add_node(0);
            }
            for round in 0..ROUNDS {
                let v = round % NODES;
                writer.push_edge(v, round, 0);
                lists[v as usize].push(round);
                if round % 3 == 0 {
                    lists[v as usize].truncate(1);
                    writer.set_neighbors(v, 0, lists[v as usize].clone());
                }
                tx.send((writer.clone(), lists.clone())).expect("reader is alive");
            }
            drop(tx);
            assert_eq!(reader.join().expect("reader panicked"), ROUNDS);
        });
    }

    #[test]
    #[should_panic(expected = "has no level 1")]
    fn a_level_above_the_node_panics() {
        let mut g = LayeredGraph::new();
        g.add_node(2);
        let v = g.add_node(0);
        g.neighbors(v, 1);
    }

    #[test]
    fn thaw_is_the_inverse_of_freeze_and_the_thawed_graph_grows() {
        let mut g = LayeredGraph::new();
        for v in 0..40u32 {
            g.add_node((v % 9 == 4) as usize + (v == 13) as usize);
        }
        for v in 0..40u32 {
            for l in 0..=g.level_of(v) {
                for d in 1..=(v % 5) {
                    g.push_edge(v, (v * 7 + d * (l as u32 + 1)) % 40, l);
                }
            }
        }
        let mut thawed = LayeredGraph::thaw(&g.freeze());
        assert_eq!((thawed.len(), thawed.entry_point(), thawed.max_level()), (40, Some(13), 2));
        assert_eq!(thawed.memory_bytes(), g.memory_bytes());
        for v in 0..40u32 {
            for l in 0..=g.level_of(v) {
                assert_eq!(thawed.neighbors(v, l), g.neighbors(v, l), "node {v} level {l}");
            }
        }
        thawed.push_edge(3, 39, 0);
        thawed.set_neighbors(13, 2, vec![1, 2]);
        assert_eq!(thawed.neighbors(3, 0).last(), Some(&39));
        assert_eq!(thawed.neighbors(13, 2), &[1, 2]);
        assert_eq!(LayeredGraph::thaw(&LayeredGraph::new().freeze()).len(), 0);
    }

    #[test]
    fn memory_accounting_grows_with_edges() {
        let mut g = LayeredGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(0);
        let before = g.memory_bytes();
        g.push_edge(a, b, 0);
        assert!(g.memory_bytes() > before);
    }
}
