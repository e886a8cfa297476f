//! Predicate-subgraph quality analysis (Figure 13 of the paper).
//!
//! For a given filter, the *predicate subgraph* at each level consists of
//! the passing nodes and the edges recovered by the search-time filtered
//! lookup (Figure 4a: filtered, truncated to `M`). Figure 13 compares this
//! subgraph against the HNSW oracle partition on three properties:
//!
//! * **connectivity** — number of strongly connected components per level
//!   (computed with an iterative Tarjan, safe for large graphs);
//! * **hierarchy** — graph height (max level holding a passing node);
//! * **navigability** — average filtered out-degree per level.

use acorn_hnsw::GraphView;
use acorn_predicate::NodeFilter;

/// Quality statistics of one predicate subgraph.
#[derive(Debug, Clone)]
pub struct SubgraphQuality {
    /// Strongly connected components per level (index = level).
    pub scc_per_level: Vec<usize>,
    /// Passing nodes per level.
    pub nodes_per_level: Vec<usize>,
    /// Average filtered out-degree per level (after truncation to `m`).
    pub avg_out_degree_per_level: Vec<f64>,
    /// Height: the highest level containing at least one passing node,
    /// plus one (0 for an empty subgraph).
    pub height: usize,
}

/// Analyze the predicate subgraph induced by `filter` over `graph`.
///
/// `m_truncate` applies the search-time neighbor-list truncation (pass the
/// index's `M`; `usize::MAX` analyzes untruncated lists).
pub fn predicate_subgraph_quality<G: GraphView, F: NodeFilter>(
    graph: &G,
    filter: &F,
    m_truncate: usize,
) -> SubgraphQuality {
    predicate_subgraph_quality_with(graph, filter, m_truncate, None)
}

/// Like [`predicate_subgraph_quality`], but models ACORN-γ's *search-time*
/// level-0 neighborhood: when `level0_m_beta` is `Some(M_β)`, level-0 edges
/// include the two-hop expansion of stored entries beyond `M_β`
/// (Figure 4b) — the connectivity the search actually traverses, including
/// recovered pruned edges.
pub fn predicate_subgraph_quality_with<G: GraphView, F: NodeFilter>(
    graph: &G,
    filter: &F,
    m_truncate: usize,
    level0_m_beta: Option<usize>,
) -> SubgraphQuality {
    let levels = graph.max_level() + 1;
    let mut scc_per_level = Vec::with_capacity(levels);
    let mut nodes_per_level = Vec::with_capacity(levels);
    let mut avg_deg = Vec::with_capacity(levels);
    let mut height = 0usize;

    for level in 0..levels {
        let nodes: Vec<u32> = (0..graph.len() as u32)
            .filter(|&v| graph.level_of(v) >= level && filter.passes(v))
            .collect();
        if !nodes.is_empty() {
            height = level + 1;
        }
        // Local adjacency with filtered, truncated lookups.
        let mut local_index = std::collections::HashMap::with_capacity(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            local_index.insert(v, i);
        }
        let mut adj: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        let mut total_deg = 0usize;
        for &v in &nodes {
            let mut out = Vec::new();
            let list = graph.neighbors(v, level);
            let head = match level0_m_beta {
                Some(mb) if level == 0 => list.len().min(mb),
                _ => list.len(),
            };
            'scan: {
                for &nb in &list[..head] {
                    if out.len() >= m_truncate {
                        break 'scan;
                    }
                    if let Some(&j) = local_index.get(&nb) {
                        out.push(j);
                    }
                }
                // Figure 4(b) phase 2: tail entries plus their one-hop
                // neighborhoods (recovering compressed edges).
                for &y in &list[head..] {
                    if out.len() >= m_truncate {
                        break 'scan;
                    }
                    if let Some(&j) = local_index.get(&y) {
                        out.push(j);
                    }
                    for &z in graph.neighbors(y, level) {
                        if out.len() >= m_truncate {
                            break 'scan;
                        }
                        if z == v {
                            continue;
                        }
                        if let Some(&j) = local_index.get(&z) {
                            if !out.contains(&j) {
                                out.push(j);
                            }
                        }
                    }
                }
            }
            total_deg += out.len();
            adj.push(out);
        }
        nodes_per_level.push(nodes.len());
        avg_deg.push(if nodes.is_empty() { 0.0 } else { total_deg as f64 / nodes.len() as f64 });
        scc_per_level.push(count_sccs(&adj));
    }

    SubgraphQuality { scc_per_level, nodes_per_level, avg_out_degree_per_level: avg_deg, height }
}

/// Count strongly connected components with an iterative Tarjan.
fn count_sccs(adj: &[Vec<usize>]) -> usize {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = 0usize;

    // Explicit DFS frames: (node, neighbor cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    sccs += 1;
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_hnsw::LayeredGraph;
    use acorn_predicate::{AllPass, BitmapFilter, Bitset};

    #[test]
    fn scc_counting_basics() {
        // 0 <-> 1 (one SCC), 2 isolated (second SCC).
        let adj = vec![vec![1], vec![0], vec![]];
        assert_eq!(count_sccs(&adj), 2);

        // A 3-cycle is one SCC.
        let cycle = vec![vec![1], vec![2], vec![0]];
        assert_eq!(count_sccs(&cycle), 1);

        // A directed path of 3 nodes = 3 SCCs.
        let path = vec![vec![1], vec![2], vec![]];
        assert_eq!(count_sccs(&path), 3);

        assert_eq!(count_sccs(&[]), 0);
    }

    #[test]
    fn scc_handles_deep_chains_iteratively() {
        // 50k-node path: a recursive Tarjan would blow the stack.
        let n = 50_000;
        let adj: Vec<Vec<usize>> =
            (0..n).map(|i| if i + 1 < n { vec![i + 1] } else { vec![] }).collect();
        assert_eq!(count_sccs(&adj), n);
    }

    fn two_cliques() -> LayeredGraph {
        let mut g = LayeredGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        // Clique A: 0,1,2; clique B: 3,4,5; one edge A -> B.
        for &(a, b) in &[
            (0u32, 1u32),
            (1, 2),
            (2, 0),
            (1, 0),
            (2, 1),
            (0, 2),
            (3, 4),
            (4, 5),
            (5, 3),
            (4, 3),
            (5, 4),
            (3, 5),
        ] {
            g.push_edge(a, b, 0);
        }
        g.push_edge(0, 3, 0);
        g
    }

    #[test]
    fn quality_counts_components_and_degrees() {
        let g = two_cliques();
        let q = predicate_subgraph_quality(&g, &AllPass, usize::MAX);
        assert_eq!(q.scc_per_level, vec![2]);
        assert_eq!(q.nodes_per_level, vec![6]);
        assert_eq!(q.height, 1);
        assert!(q.avg_out_degree_per_level[0] > 2.0);
    }

    #[test]
    fn filter_induces_subgraph() {
        let g = two_cliques();
        // Only clique A passes → one SCC of 3 nodes.
        let f = BitmapFilter::new(Bitset::from_ids(6, [0u32, 1, 2]));
        let q = predicate_subgraph_quality(&g, &f, usize::MAX);
        assert_eq!(q.scc_per_level, vec![1]);
        assert_eq!(q.nodes_per_level, vec![3]);
    }

    #[test]
    fn truncation_reduces_degree() {
        let g = two_cliques();
        let full = predicate_subgraph_quality(&g, &AllPass, usize::MAX);
        let trunc = predicate_subgraph_quality(&g, &AllPass, 1);
        assert!(trunc.avg_out_degree_per_level[0] < full.avg_out_degree_per_level[0]);
        assert!(trunc.avg_out_degree_per_level[0] <= 1.0);
    }

    #[test]
    fn two_hop_recovery_improves_connectivity() {
        // Chain 0 -> 1 -> 2 where only 0 and 2 pass: 1-hop filtered edges
        // give two isolated SCCs; with M_β = 0 the two-hop expansion of the
        // tail entry recovers 0 -> 2.
        let mut g = LayeredGraph::new();
        for _ in 0..3 {
            g.add_node(0);
        }
        g.push_edge(0, 1, 0);
        g.push_edge(1, 2, 0);
        g.push_edge(2, 1, 0);
        g.push_edge(1, 0, 0);
        let f = BitmapFilter::new(Bitset::from_ids(3, [0u32, 2]));
        let one_hop = predicate_subgraph_quality(&g, &f, usize::MAX);
        assert_eq!(one_hop.scc_per_level, vec![2]);
        let with_recovery = super::predicate_subgraph_quality_with(&g, &f, usize::MAX, Some(0));
        assert_eq!(with_recovery.scc_per_level, vec![1], "two-hop must reconnect 0 and 2");
    }

    #[test]
    fn frozen_graph_analysis_matches_nested() {
        let g = two_cliques();
        let csr = g.freeze();
        let f = BitmapFilter::new(Bitset::from_ids(6, [0u32, 1, 2, 4]));
        let nested = predicate_subgraph_quality(&g, &f, usize::MAX);
        let frozen = predicate_subgraph_quality(&csr, &f, usize::MAX);
        assert_eq!(nested.scc_per_level, frozen.scc_per_level);
        assert_eq!(nested.nodes_per_level, frozen.nodes_per_level);
        assert_eq!(nested.avg_out_degree_per_level, frozen.avg_out_degree_per_level);
        assert_eq!(nested.height, frozen.height);
    }

    #[test]
    fn empty_filter_yields_empty_subgraph() {
        let g = two_cliques();
        let f = BitmapFilter::new(Bitset::new(6));
        let q = predicate_subgraph_quality(&g, &f, usize::MAX);
        assert_eq!(q.height, 0);
        assert_eq!(q.scc_per_level, vec![0]);
    }
}
