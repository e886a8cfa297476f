//! The multi-level adjacency structure shared by HNSW, ACORN, and the
//! graph-based baselines.
//!
//! A [`LayeredGraph`] stores, for every node, its maximum level and one
//! neighbor list per level `0..=max_level`. Neighbor lists are plain
//! `Vec<u32>` in (approximate) nearest-first order; the *order* is load
//! bearing for ACORN, whose search truncates lists to a prefix and whose
//! compression keeps the `M_β` nearest candidates verbatim.
//!
//! Each node's lists sit behind their own [`Arc`], and every mutator goes
//! through copy-on-write. [`LayeredGraph::clone`] is therefore a copy of the
//! node-handle spine plus one refcount bump per node — no neighbor list is
//! copied — and the next mutation of either copy re-allocates only the nodes
//! it rewires. A graph that was never cloned holds every node at refcount 1
//! and mutates in place, so a bulk build pays one uniqueness check per edit.

use std::sync::Arc;

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

/// Multi-level directed graph over node ids `0..len`.
#[derive(Debug, Clone, Default)]
pub struct LayeredGraph {
    /// `levels[v]` = maximum level index of node `v`.
    levels: Vec<u8>,
    /// `adj[v][l]` = neighbor list of node `v` at level `l` (l ≤ levels[v]).
    /// A node's lists are shared with every clone of the graph until one
    /// side edits that node.
    adj: Vec<Arc<[Vec<u32>]>>,
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
            adj: Vec::with_capacity(n),
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
        self.adj.push(std::iter::repeat_with(Vec::new).take(level + 1).collect());
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

    /// Borrow the neighbor list of `v` at `level`.
    ///
    /// # Panics
    /// Panics if `level > level_of(v)`.
    #[inline]
    pub fn neighbors(&self, v: u32, level: usize) -> &[u32] {
        &self.adj[v as usize][level]
    }

    /// The lists of node `v`, made exclusive to this graph first: a node
    /// still shared with a clone is re-allocated (all its levels copied, the
    /// clone keeps the original), an unshared one is handed out as is.
    /// Every mutator goes through here.
    #[inline]
    fn lists_mut(&mut self, v: u32) -> &mut [Vec<u32>] {
        let node = &mut self.adj[v as usize];
        // No weak handle to a node is ever made, and `&mut self` rules out a
        // concurrent clone of this one, so a strong count of 1 stays 1.
        if Arc::strong_count(node) > 1 {
            // The usual edit of a shared node is one `push_edge`; a spare
            // slot per list saves that push a second allocation.
            *node = node
                .iter()
                .map(|list| {
                    let mut copy = Vec::with_capacity(list.len() + 1);
                    copy.extend_from_slice(list);
                    copy
                })
                .collect();
        }
        Arc::get_mut(node).expect("a node just copied has no other owner")
    }

    /// Replace the neighbor list of `v` at `level`.
    #[inline]
    pub fn set_neighbors(&mut self, v: u32, level: usize, list: Vec<u32>) {
        self.lists_mut(v)[level] = list;
    }

    /// Append one directed edge `v -> w` at `level` (no dedup, no cap).
    #[inline]
    pub fn push_edge(&mut self, v: u32, w: u32, level: usize) {
        self.lists_mut(v)[level].push(w);
    }

    /// Per-level statistics (Table 6 / Figure 13 support).
    pub fn level_stats(&self) -> Vec<LevelStats> {
        let mut out = Vec::with_capacity(self.max_level + 1);
        for level in 0..=self.max_level {
            let mut nodes = 0usize;
            let mut edges = 0usize;
            let mut max_deg = 0usize;
            for v in 0..self.len() {
                if self.levels[v] as usize >= level {
                    nodes += 1;
                    let d = self.adj[v][level].len();
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

    /// Total bytes consumed by adjacency lists and level tags (index-only
    /// footprint; vectors are accounted separately). Nodes shared with a
    /// clone are counted in full by each graph.
    pub fn memory_bytes(&self) -> usize {
        /// The strong and weak counts heading every node's allocation.
        const REFCOUNTS: usize = 2 * std::mem::size_of::<usize>();
        let mut bytes = self.levels.len() * std::mem::size_of::<u8>();
        bytes += self.adj.len() * (std::mem::size_of::<Arc<[Vec<u32>]>>() + REFCOUNTS);
        for per_node in &self.adj {
            bytes += std::mem::size_of::<Vec<u32>>() * per_node.len();
            for list in per_node.iter() {
                bytes += list.len() * std::mem::size_of::<u32>();
            }
        }
        bytes
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

        // Every mutator re-allocates the node it edits and only that node.
        g.push_edge(a, c, 0);
        g.set_neighbors(c, 0, vec![a, b]);
        g.push_edge(c, c, 0);
        let d = g.add_node(2);
        assert!(!shared(&g, &pinned, a));
        assert!(shared(&g, &pinned, b), "an untouched node stays shared");
        assert_eq!(g.neighbors(a, 0), &[b, c]);
        assert_eq!(g.neighbors(a, 1), &[c], "the copy carries every level");
        assert_eq!(g.neighbors(c, 0), &[a, b, c]);
        assert_eq!((g.len(), g.entry_point(), g.max_level()), (4, Some(d), 2));

        assert_eq!(pinned.neighbors(a, 0), &[b]);
        assert_eq!(pinned.neighbors(a, 1), &[c]);
        assert!(pinned.neighbors(c, 0).is_empty());
        assert_eq!((pinned.len(), pinned.entry_point(), pinned.max_level()), (3, Some(a), 1));

        // Once the clone is gone the survivor edits in place again: `b` was
        // shared until the drop, and editing it now copies no node.
        drop(pinned);
        let before = Arc::as_ptr(&g.adj[b as usize]);
        g.push_edge(b, c, 0);
        assert_eq!(Arc::as_ptr(&g.adj[b as usize]), before);
        assert_eq!(g.neighbors(b, 0), &[a, c]);
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
