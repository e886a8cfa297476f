//! Frozen CSR (compressed sparse row) graph layout for the read path.
//!
//! [`LayeredGraph`] is the right shape for construction — per-node, per-level
//! `Vec<u32>` lists grow and shrink freely — but a terrible shape for
//! serving: every neighbor scan chases three pointers (`adj[v]` → `[level]`
//! → heap buffer) and each list is its own allocation scattered across the
//! heap. [`CsrGraph`] is the same graph compacted into one `targets` arena
//! per level with a flat `offsets` table, so `neighbors(v, level)` is two
//! array loads and a slice, adjacent lists are adjacent in memory, and the
//! structure is smaller (no per-list `Vec` headers or allocator slack):
//! ~1.1× at the repo's default `M = 32` where edge data dominates, growing
//! toward ~2× as `M` shrinks and headers dominate. Search over either
//! layout is bit-identical; see [`GraphView`].

use crate::graph::GraphView;
#[cfg(doc)]
use crate::graph::LayeredGraph;

/// A frozen, flat multi-level graph: per-level `offsets`/`targets` arenas.
///
/// Built by [`LayeredGraph::freeze`] or decoded through a [`CsrBuilder`];
/// immutable by design: an index that still takes inserts keeps its
/// [`LayeredGraph`], and one that is done replaces it with this.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// `levels[v]` = maximum level index of node `v`.
    levels: Vec<u8>,
    /// Entry point node, if any node was present at freeze time.
    entry: Option<u32>,
    /// Maximum level index present.
    max_level: usize,
    /// `offsets[l]` has `len() + 1` entries; node `v`'s neighbors at level
    /// `l` are `targets[l][offsets[l][v] .. offsets[l][v + 1]]`. Nodes not
    /// present on a level have an empty range.
    offsets: Vec<Vec<u32>>,
    /// Per-level edge arenas, concatenated in node order.
    targets: Vec<Vec<u32>>,
}

impl CsrGraph {
    /// Bytes consumed by the flat arenas, offset tables, and level tags
    /// (index-only footprint; vectors are accounted separately). Directly
    /// comparable to [`LayeredGraph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.levels.len() * std::mem::size_of::<u8>();
        for offs in &self.offsets {
            bytes += offs.len() * std::mem::size_of::<u32>();
        }
        for arena in &self.targets {
            bytes += arena.len() * std::mem::size_of::<u32>();
        }
        bytes
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn len(&self) -> usize {
        self.levels.len()
    }

    #[inline]
    fn entry_point(&self) -> Option<u32> {
        self.entry
    }

    #[inline]
    fn max_level(&self) -> usize {
        self.max_level
    }

    #[inline]
    fn level_of(&self, v: u32) -> usize {
        self.levels[v as usize] as usize
    }

    #[inline]
    fn neighbors(&self, v: u32, level: usize) -> &[u32] {
        let offs = &self.offsets[level];
        let start = offs[v as usize] as usize;
        let end = offs[v as usize + 1] as usize;
        &self.targets[level][start..end]
    }
}

/// Validating, streaming construction of a [`CsrGraph`] from per-node
/// neighbor lists in node order: [`LayeredGraph::freeze`] feeds it a graph
/// that is valid by construction, a deserializer feeds it lists decoded from
/// untrusted bytes, and both get the same arenas. Per node,
/// [`push_node`](Self::push_node) with its level, then one
/// [`push_list`](Self::push_list) per level `0..=level`;
/// [`finish`](Self::finish) once all `n` nodes are in.
///
/// Everything a traversal indexes with is checked on the way in — node
/// count, level ≤ 255, list length ≤ `n`, every target `< n`; the error
/// says which — so a graph that comes out cannot send a search out of
/// bounds. The entry point is
/// the one [`LayeredGraph::add_node`] picks for the same sequence of
/// levels: the first node, then each node that exceeds every level before
/// it.
#[derive(Debug)]
pub struct CsrBuilder {
    n: usize,
    graph: CsrGraph,
    /// Levels of the node last pushed that still await their list.
    owed: std::ops::Range<usize>,
}

impl CsrBuilder {
    /// A builder for a graph of exactly `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let graph = CsrGraph {
            levels: Vec::with_capacity(n),
            offsets: vec![offsets],
            targets: vec![Vec::new()],
            ..CsrGraph::default()
        };
        Self { n, graph, owed: 0..0 }
    }

    /// Begin the next node, present on levels `0..=level`.
    pub fn push_node(&mut self, level: usize) -> Result<(), &'static str> {
        if !self.owed.is_empty() {
            return Err("node begun before the previous one had all its lists");
        }
        let g = &mut self.graph;
        let v = g.levels.len();
        if v == self.n {
            return Err("more nodes than the graph declares");
        }
        let tag = u8::try_from(level).map_err(|_| "node level exceeds the maximum of 255")?;
        // A level first reached here is an empty range for every node so far.
        while g.offsets.len() <= level {
            let mut offs = Vec::with_capacity(self.n + 1);
            offs.resize(v + 1, 0);
            g.offsets.push(offs);
            g.targets.push(Vec::new());
        }
        if g.entry.is_none() || level > g.max_level {
            g.entry = Some(v as u32);
            g.max_level = level;
        }
        g.levels.push(tag);
        // ... and so is every level above this node for the node itself.
        for l in level + 1..g.offsets.len() {
            let end = g.offsets[l][v];
            g.offsets[l].push(end);
        }
        self.owed = 0..level + 1;
        Ok(())
    }

    /// The current node's neighbor list on its next level, lowest first.
    pub fn push_list(
        &mut self,
        ids: impl ExactSizeIterator<Item = u32>,
    ) -> Result<(), &'static str> {
        let Some(level) = self.owed.next() else {
            return Err("more neighbor lists than the node has levels");
        };
        // A node cannot have more neighbors than the graph has nodes;
        // refusing first also keeps a corrupt length from sizing the arena.
        if ids.len() > self.n {
            return Err("neighbor list longer than the graph");
        }
        let arena = &mut self.graph.targets[level];
        let start = arena.len();
        arena.extend(ids);
        if arena[start..].iter().any(|&t| t as usize >= self.n) {
            return Err("edge target out of range");
        }
        let end = u32::try_from(arena.len()).map_err(|_| "level exceeds u32 edge capacity")?;
        self.graph.offsets[level].push(end);
        Ok(())
    }

    /// The finished graph, arenas sized to their contents.
    pub fn finish(mut self) -> Result<CsrGraph, &'static str> {
        if self.graph.levels.len() != self.n || !self.owed.is_empty() {
            return Err("graph ended before all its nodes and lists");
        }
        for arena in &mut self.graph.targets {
            arena.shrink_to_fit();
        }
        Ok(self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LayeredGraph;

    fn sample() -> LayeredGraph {
        let mut g = LayeredGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(2);
        let c = g.add_node(1);
        g.push_edge(a, b, 0);
        g.push_edge(b, a, 0);
        g.push_edge(b, c, 0);
        g.push_edge(b, c, 1);
        g.push_edge(c, b, 1);
        g
    }

    #[test]
    fn freeze_preserves_structure() {
        let g = sample();
        let csr = g.freeze();
        assert_eq!(GraphView::len(&csr), g.len());
        assert_eq!(GraphView::entry_point(&csr), g.entry_point());
        assert_eq!(GraphView::max_level(&csr), g.max_level());
        for v in 0..g.len() as u32 {
            assert_eq!(GraphView::level_of(&csr, v), g.level_of(v));
            for lev in 0..=g.level_of(v) {
                assert_eq!(
                    GraphView::neighbors(&csr, v, lev),
                    g.neighbors(v, lev),
                    "node {v} level {lev}"
                );
            }
        }
    }

    #[test]
    fn absent_levels_have_empty_ranges() {
        let g = sample();
        let csr = g.freeze();
        // Node 0 only exists on level 0; the CSR view reports no neighbors
        // at higher levels instead of panicking like the nested layout.
        assert!(GraphView::neighbors(&csr, 0, 1).is_empty());
        assert!(GraphView::neighbors(&csr, 0, 2).is_empty());
    }

    #[test]
    fn empty_graph_freezes() {
        let g = LayeredGraph::new();
        let csr = g.freeze();
        assert!(GraphView::is_empty(&csr));
        assert_eq!(GraphView::entry_point(&csr), None);
    }

    #[test]
    fn csr_is_smaller_than_nested() {
        // A realistic shape: many nodes with short lists is exactly where
        // the per-Vec headers dominate the nested layout.
        let mut g = LayeredGraph::new();
        for _ in 0..500 {
            g.add_node(0);
        }
        for v in 0..500u32 {
            for d in 1..=8u32 {
                g.push_edge(v, (v + d) % 500, 0);
            }
        }
        let csr = g.freeze();
        assert_eq!(csr.targets[0].len(), 500 * 8);
        assert!(
            csr.memory_bytes() * 2 < g.memory_bytes(),
            "CSR {} bytes should be under half of nested {} bytes",
            csr.memory_bytes(),
            g.memory_bytes()
        );
    }

    /// Push `g`'s nodes through a builder, `corrupt` getting a say on every
    /// list on its way in.
    fn rebuild(
        g: &LayeredGraph,
        n: usize,
        corrupt: impl Fn(u32, usize, &[u32]) -> Vec<u32>,
    ) -> Result<CsrGraph, &'static str> {
        let mut b = CsrBuilder::new(n);
        for v in 0..g.len() as u32 {
            b.push_node(g.level_of(v))?;
            for lev in 0..=g.level_of(v) {
                b.push_list(corrupt(v, lev, g.neighbors(v, lev)).into_iter())?;
            }
        }
        b.finish()
    }

    #[test]
    fn builder_rejects_oversized_neighbor_list() {
        // A list longer than the graph is refused on its length alone,
        // before any of it reaches the arena.
        let g = sample();
        let err = rebuild(
            &g,
            g.len(),
            |v, lev, list| {
                if (v, lev) == (1, 0) {
                    vec![0; 4]
                } else {
                    list.to_vec()
                }
            },
        )
        .unwrap_err();
        assert!(err.contains("neighbor list longer"), "unexpected: {err}");
    }

    #[test]
    fn builder_rejects_out_of_range_edge_target() {
        let g = sample();
        let err = rebuild(
            &g,
            g.len(),
            |v, lev, list| if (v, lev) == (2, 1) { vec![3] } else { list.to_vec() },
        )
        .unwrap_err();
        assert!(err.contains("edge target out of range"), "unexpected: {err}");
    }

    #[test]
    fn builder_rejects_levels_beyond_u8() {
        let mut b = CsrBuilder::new(1);
        let err = b.push_node(256).unwrap_err();
        assert!(err.contains("255"), "unexpected: {err}");
        assert!(b.push_node(255).is_ok());
    }

    #[test]
    fn builder_rejects_a_truncated_or_overlong_stream() {
        let g = sample();
        // One node short of the declared count.
        let err = rebuild(&g, g.len() + 1, |_, _, list| list.to_vec()).unwrap_err();
        assert!(err.contains("ended before"), "unexpected: {err}");
        // A node cut off between its lists, seen by the next node and by
        // `finish` alike; and a list the node has no level for.
        let mut b = CsrBuilder::new(2);
        b.push_node(1).unwrap();
        b.push_list([1].into_iter()).unwrap();
        assert!(b.push_node(0).unwrap_err().contains("all its lists"));
        assert!(b.finish().unwrap_err().contains("ended before"));
        let mut b = CsrBuilder::new(1);
        b.push_node(0).unwrap();
        b.push_list([].into_iter()).unwrap();
        assert!(b.push_list([].into_iter()).unwrap_err().contains("more neighbor lists"));
        // One node more than declared.
        assert!(b.push_node(0).unwrap_err().contains("more nodes"));
    }

    #[test]
    fn builder_picks_the_entry_point_add_node_would() {
        // Levels rise, tie and fall: the entry is the first node of the
        // highest level, and ties never move it.
        let mut g = LayeredGraph::new();
        for level in [1, 0, 3, 3, 2] {
            g.add_node(level);
        }
        let csr = rebuild(&g, g.len(), |_, _, list| list.to_vec()).unwrap();
        assert_eq!((csr.entry, csr.max_level), (Some(2), 3));
        assert_eq!((g.entry_point(), g.max_level()), (Some(2), 3));
        assert_eq!(csr.offsets.len(), 4);
        assert!(csr.offsets.iter().all(|offs| offs.len() == g.len() + 1));
    }
}
