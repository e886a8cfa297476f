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

use crate::graph::{GraphView, LayeredGraph};

/// A frozen, flat multi-level graph: per-level `offsets`/`targets` arenas.
///
/// Built by [`LayeredGraph::freeze`]; immutable by design: an index that
/// still takes inserts keeps its [`LayeredGraph`], and one that is done
/// replaces it with this.
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
    /// Compact a [`LayeredGraph`] into CSR form.
    ///
    /// # Panics
    /// Panics if any single level holds more than `u32::MAX` edges (the
    /// offset table is 32-bit; at `M·γ` ≤ a few hundred edges per node that
    /// is over ten billion nodes, far past the `u32` id space itself).
    pub fn from_layered(g: &LayeredGraph) -> Self {
        let n = g.len();
        let max_level = g.max_level();
        let mut offsets = Vec::with_capacity(max_level + 1);
        let mut targets = Vec::with_capacity(max_level + 1);
        for level in 0..=max_level {
            let mut offs = Vec::with_capacity(n + 1);
            offs.push(0u32);
            let mut arena = Vec::new();
            for v in 0..n as u32 {
                if g.level_of(v) >= level {
                    arena.extend_from_slice(g.neighbors(v, level));
                }
                let end = u32::try_from(arena.len()).expect("level exceeds u32 edge capacity");
                offs.push(end);
            }
            arena.shrink_to_fit();
            offsets.push(offs);
            targets.push(arena);
        }
        Self {
            levels: (0..n as u32).map(|v| g.level_of(v) as u8).collect(),
            entry: g.entry_point(),
            max_level,
            offsets,
            targets,
        }
    }

    /// Total directed edges stored on `level`.
    pub fn edges_on_level(&self, level: usize) -> usize {
        self.targets.get(level).map_or(0, Vec::len)
    }

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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(csr.edges_on_level(0), 500 * 8);
        assert!(
            csr.memory_bytes() * 2 < g.memory_bytes(),
            "CSR {} bytes should be under half of nested {} bytes",
            csr.memory_bytes(),
            g.memory_bytes()
        );
    }
}
