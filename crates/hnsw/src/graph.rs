//! The multi-level adjacency structure shared by HNSW, ACORN, and the
//! graph-based baselines.
//!
//! A [`LayeredGraph`] stores, for every node, its maximum level and one
//! neighbor list per level `0..=max_level`. Neighbor lists are in
//! (approximate) nearest-first order; the *order* is load bearing for
//! ACORN, whose search truncates lists to a prefix and whose compression
//! keeps the `M_β` nearest candidates verbatim.
//!
//! Every list lives in one `u32` buffer the graph owns: a graph is that
//! buffer, a `Copy` table of spans (`start`, `len`, `cap`) per node and level,
//! and the level tags. A list is claimed a region with room to the next power
//! of two, as a `Vec` would grow, so that a build's pushes land in place:
//!
//! * a new version of a list that fits its region is written over it;
//! * a list that ends at the end of the buffer grows past it;
//! * any other edit writes the list's new version at the end of the buffer,
//!   and the old version becomes dead words.
//!
//! When the dead words outnumber the live ones the graph compacts its lists
//! into a fresh buffer, so the dead words never exceed the live ones; the
//! spare words of lists claimed with room come on top, fewer than the live
//! ones after a compaction.

use std::ops::Range;

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

/// The words a list of `len` words is claimed with: the next power of two,
/// as a `Vec` grows, so that a build's pushes land in place.
#[inline]
fn room(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

/// Where one neighbor list lives in a graph's edge buffer: `len` words from
/// `start`, in a region of `cap` words claimed for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// Every field fits `u32` because every edge buffer does (see
    /// [`LayeredGraph::claim_list`]).
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

/// Multi-level directed graph over node ids `0..len`, its lists in one
/// edge buffer (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct LayeredGraph {
    /// Every list, among dead words: every region ends at or below its
    /// end, and every word outside a region is dead.
    edges: Vec<u32>,
    /// Words the spans reach.
    live: usize,
    /// Claimed words past the lists, in their regions: `Σ cap - len`. The
    /// rest of `edges.len() - live`, old versions of lists, is dead, and
    /// compaction holds it at or below `live`.
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

impl LayeredGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with capacity reserved for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            levels: Vec::with_capacity(n),
            base: Vec::with_capacity(n),
            upper_at: Vec::with_capacity(n),
            ..Self::default()
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
        &self.edges[self.span(v, level).range()]
    }

    /// Claim the region of a new list of `len` words at the end of the
    /// buffer. The span returned is empty; the caller fills it.
    ///
    /// # Panics
    /// Panics if the buffer would exceed `u32::MAX` words.
    fn claim_list(&mut self, len: usize) -> Span {
        let (start, cap) = (self.edges.len(), room(len));
        assert!(start + cap <= u32::MAX as usize, "a graph's lists exceed 2^32 words");
        self.edges.resize(start + cap, 0);
        Span::new(start, 0, cap)
    }

    /// Copy every list, in node order, into a fresh buffer with room for as
    /// many words again as the lists and their spare words take. Each list
    /// keeps its spare words up to what a fresh claim would reserve; the
    /// dead words stay behind.
    fn compact(&mut self) {
        let mut words = Vec::with_capacity(2 * (self.live + self.spare));
        for v in 0..self.levels.len() {
            let first = self.upper_at[v] as usize;
            let upper = &mut self.upper[first..first + self.levels[v] as usize];
            for span in std::iter::once(&mut self.base[v]).chain(upper) {
                let (at, len) = (words.len(), span.len as usize);
                let cap = (span.cap as usize).min(room(len));
                words.extend_from_slice(&self.edges[span.range()]);
                words.resize(at + cap, 0);
                *span = Span::new(at, len, cap);
            }
        }
        self.spare = words.len() - self.live;
        self.edges = words;
    }

    /// Make `span` the list of `v` at `level`, and compact once the dead
    /// words outnumber the live ones.
    #[inline]
    fn put(&mut self, v: u32, level: usize, span: Span) {
        let old = std::mem::replace(self.span_mut(v, level), span);
        self.live = self.live + span.len as usize - old.len as usize;
        self.spare = self.spare + span.spare() - old.spare();
        if self.edges.len() - self.live - self.spare > self.live {
            self.compact();
        }
    }

    /// Replace the neighbor list of `v` at `level`: written over the old
    /// one when it fits the old one's region, otherwise at the end of the
    /// buffer.
    pub fn set_neighbors(&mut self, v: u32, level: usize, list: Vec<u32>) {
        let old = self.span(v, level);
        let region = if list.len() <= old.cap as usize { old } else { self.claim_list(list.len()) };
        let start = region.start as usize;
        self.edges[start..start + list.len()].copy_from_slice(&list);
        self.put(v, level, Span { len: list.len() as u32, ..region });
    }

    /// Append one directed edge `v -> w` at `level` (no dedup, no cap).
    ///
    /// The list grows in place into its region's spare words, or past the
    /// end of the buffer when it ends there; any other list is copied to a
    /// new region at the end with `w` after it.
    pub fn push_edge(&mut self, v: u32, w: u32, level: usize) {
        let old = self.span(v, level);
        let len = old.len as usize;
        let region = if old.spare() > 0 {
            old
        } else if old.end() == self.edges.len() {
            // A list ending the buffer fills its region: `cap == len`.
            let cap = room(len + 1);
            self.edges.resize(old.start as usize + cap, 0);
            Span { cap: cap as u32, ..old }
        } else {
            let region = self.claim_list(len + 1);
            self.edges.copy_within(old.range(), region.start as usize);
            region
        };
        self.edges[region.start as usize + len] = w;
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

    /// Bytes this graph reaches: the words of its lists plus its span and
    /// level tables (index-only footprint; vectors are accounted
    /// separately). The dead words, at most as many as the live ones, and
    /// the spare words of its lists' regions are not counted.
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
        // The clone starts with every node and list of the original.
        assert_eq!((pinned.len(), pinned.entry_point(), pinned.max_level()), (3, Some(a), 1));
        for v in [a, b, c] {
            assert_eq!(pinned.level_of(v), g.level_of(v));
            for l in 0..=g.level_of(v) {
                assert_eq!(pinned.neighbors(v, l), g.neighbors(v, l));
            }
        }

        g.push_edge(a, c, 0);
        g.set_neighbors(c, 0, vec![a, b]);
        g.push_edge(c, c, 0);
        let d = g.add_node(2);
        assert_eq!(g.neighbors(a, 0), &[b, c]);
        assert_eq!(g.neighbors(a, 1), &[c], "the other levels stay");
        assert_eq!(g.neighbors(c, 0), &[a, b, c]);
        assert_eq!((g.len(), g.entry_point(), g.max_level()), (4, Some(d), 2));
        assert_eq!(pinned.neighbors(a, 0), &[b]);
        assert_eq!(pinned.neighbors(a, 1), &[c]);
        assert!(pinned.neighbors(c, 0).is_empty());
        assert_eq!((pinned.len(), pinned.entry_point(), pinned.max_level()), (3, Some(a), 1));

        // A shorter version is written over the old one, a list with spare
        // words grows into them, and one ending the buffer grows past it.
        let at = |g: &LayeredGraph, v: u32| g.neighbors(v, 0).as_ptr();
        let (a0, c0) = (at(&g, a), at(&g, c));
        g.set_neighbors(a, 0, vec![c]);
        assert_eq!(at(&g, a), a0);
        g.push_edge(c, d, 0);
        assert_eq!(at(&g, c), c0);
        assert_eq!((g.neighbors(a, 0), g.neighbors(c, 0)), (&[c][..], &[a, b, c, d][..]));
        let last = g.span(c, 0);
        assert_eq!((last.end(), last.spare()), (g.edges.len(), 0), "c's list ends the buffer");
        g.push_edge(c, a, 0);
        assert_eq!((g.span(c, 0).start, g.span(c, 0).cap), (last.start, 8));
        assert_eq!(g.neighbors(c, 0), &[a, b, c, d, a]);
    }

    #[test]
    fn a_clone_that_edits_moves_to_its_own_buffer() {
        let mut g = LayeredGraph::new();
        for _ in 0..3 {
            g.add_node(0);
        }
        g.push_edge(0, 1, 0);
        let mut fork = g.clone();
        // Each handle owns its buffer: the edits of one never reach the other.
        assert!(!std::ptr::eq(g.edges.as_ptr(), fork.edges.as_ptr()));
        g.push_edge(2, 0, 0);
        fork.push_edge(2, 1, 0);
        assert_eq!((g.neighbors(2, 0), fork.neighbors(2, 0)), (&[0][..], &[1][..]));
        assert_eq!((g.neighbors(0, 0), fork.neighbors(0, 0)), (&[1][..], &[1][..]));
        // The fork's buffer is its alone: it rewrites in place.
        let list = fork.neighbors(0, 0).as_ptr();
        fork.set_neighbors(0, 0, vec![2]);
        assert_eq!(fork.neighbors(0, 0).as_ptr(), list);
        assert_eq!(fork.neighbors(0, 0), &[2]);
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
            let dead = g.edges.len() - g.live - g.spare;
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
        // One writer edits and hands out clones; each reader checks its
        // clone against the lists it was sent with while the writer edits
        // on (in place, past the end of the buffer, or in a fresh one after
        // a compaction).
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
    fn memory_accounting_grows_with_edges() {
        let mut g = LayeredGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(0);
        let before = g.memory_bytes();
        g.push_edge(a, b, 0);
        assert!(g.memory_bytes() > before);
    }
}
