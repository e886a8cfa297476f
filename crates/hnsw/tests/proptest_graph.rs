//! Model test for [`LayeredGraph`]'s edge buffer: a population of graphs is
//! grown, edited, cloned and dropped in random order, and after every step
//! each graph must hold exactly the lists a plain `Vec<Vec<Vec<u32>>>` model
//! of it holds (node → level → list) — whether an edit was written in place,
//! past the end of the buffer or into a new region, and however often the
//! edits compacted the buffer — and no graph ever observes an edit made to
//! another.

use acorn_hnsw::LayeredGraph;
use proptest::prelude::*;

/// Node → level → neighbor list.
type Model = Vec<Vec<Vec<u32>>>;

#[derive(Debug, Clone)]
enum Op {
    /// Add a node of the given level through handle `i % live`.
    AddNode(usize, usize),
    /// Push one edge onto node `v % len`'s list at level `l % (top + 1)`
    /// through handle `i % live`.
    Push(usize, usize, usize),
    /// Replace that list with the given number of fresh edges (a shorter
    /// list is written over the old one).
    Set(usize, usize, usize, usize),
    /// Keep the first half of that list: the bulk build's shrink.
    Shrink(usize, usize, usize),
    /// Clone handle `i % live` into a new handle.
    Clone(usize),
    /// Drop handle `i % live` (skipped when it is the last one).
    Drop(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0usize..64, 0usize..3).prop_map(|(i, l)| Op::AddNode(i, l)),
        8 => (0usize..64, 0usize..64, 0usize..4).prop_map(|(i, v, l)| Op::Push(i, v, l)),
        2 => (0usize..64, 0usize..64, 0usize..4, 0usize..12)
            .prop_map(|(i, v, l, n)| Op::Set(i, v, l, n)),
        2 => (0usize..64, 0usize..64, 0usize..4).prop_map(|(i, v, l)| Op::Shrink(i, v, l)),
        2 => (0usize..64).prop_map(Op::Clone),
        1 => (0usize..64).prop_map(Op::Drop),
    ]
}

/// The list `(v, l)` an op names in a model of `len > 0` nodes.
fn list_of(model: &Model, v: usize, l: usize) -> (u32, usize) {
    let v = v % model.len();
    (v as u32, l % model[v].len())
}

fn check(handles: &[(LayeredGraph, Model)]) -> Result<(), TestCaseError> {
    for (graph, model) in handles {
        prop_assert_eq!(graph.len(), model.len());
        let top = model.iter().map(|lists| lists.len() - 1).max();
        prop_assert_eq!(graph.max_level(), top.unwrap_or(0));
        let entry = top.and_then(|top| model.iter().position(|lists| lists.len() - 1 == top));
        prop_assert_eq!(graph.entry_point(), entry.map(|v| v as u32));
        let (mut words, mut spans) = (0, 0);
        for (v, lists) in model.iter().enumerate() {
            prop_assert_eq!(graph.level_of(v as u32), lists.len() - 1);
            for (l, list) in lists.iter().enumerate() {
                prop_assert_eq!(graph.neighbors(v as u32, l), list.as_slice());
                words += list.len();
            }
            spans += lists.len();
        }
        // The words its lists reach, a 12 B span per list, a 4 B
        // upper-level index and a 1 B level tag per node.
        prop_assert_eq!(graph.memory_bytes(), 4 * words + 12 * spans + 5 * model.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn handles_behave_as_independent_graphs(
        nodes in 1usize..12,
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut first = (LayeredGraph::new(), Model::new());
        for v in 0..nodes {
            first.0.add_node(v % 2);
            first.1.push(vec![Vec::new(); v % 2 + 1]);
        }
        let mut handles = vec![first];
        // Every edge target is unique, so an edge leaking from another
        // handle cannot pass for one of this handle's own.
        let mut next = 0u32;
        let mut fresh = || {
            next += 1;
            next
        };
        for op in ops {
            let live = handles.len();
            match op {
                Op::AddNode(i, level) => {
                    let (graph, model) = &mut handles[i % live];
                    prop_assert_eq!(graph.add_node(level) as usize, model.len());
                    model.push(vec![Vec::new(); level + 1]);
                }
                Op::Push(i, v, l) => {
                    let (graph, model) = &mut handles[i % live];
                    let (v, l) = list_of(model, v, l);
                    let w = fresh();
                    graph.push_edge(v, w, l);
                    model[v as usize][l].push(w);
                }
                Op::Set(i, v, l, n) => {
                    let (graph, model) = &mut handles[i % live];
                    let (v, l) = list_of(model, v, l);
                    let list: Vec<u32> = (0..n).map(|_| fresh()).collect();
                    graph.set_neighbors(v, l, list.clone());
                    model[v as usize][l] = list;
                }
                Op::Shrink(i, v, l) => {
                    let (graph, model) = &mut handles[i % live];
                    let (v, l) = list_of(model, v, l);
                    let list = &mut model[v as usize][l];
                    list.truncate(list.len() / 2);
                    graph.set_neighbors(v, l, list.clone());
                }
                Op::Clone(i) => {
                    let copy = handles[i % live].clone();
                    handles.push(copy);
                }
                Op::Drop(i) => {
                    if live > 1 {
                        handles.swap_remove(i % live);
                    }
                }
            }
            check(&handles)?;
        }
    }
}
