//! Model test for the shared append-only [`VectorStore`]: a population of
//! handles is pushed to, cloned and dropped in random order, and after every
//! step each handle must hold exactly the rows a plain `Vec<Vec<f32>>` model
//! of it holds — so no handle ever observes a row pushed through another,
//! and growing or forking a buffer leaves every older handle valid.
//!
//! CI also runs this file under Miri (`PROPTEST_CASES` lowered): together
//! with the unit tests in `vecs.rs` it covers the crate's only hand-written
//! aliasing argument.

use acorn_hnsw::VectorStore;
use proptest::prelude::*;

const DIM: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Append a fresh row through handle `i % live`.
    Push(usize),
    /// Clone handle `i % live` into a new handle.
    Clone(usize),
    /// Drop handle `i % live` (skipped when it is the last one).
    Drop(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0usize..64).prop_map(Op::Push),
        3 => (0usize..64).prop_map(Op::Clone),
        2 => (0usize..64).prop_map(Op::Drop),
    ]
}

fn check(handles: &[(VectorStore, Vec<Vec<f32>>)]) -> Result<(), TestCaseError> {
    for (store, model) in handles {
        prop_assert_eq!(store.len(), model.len());
        prop_assert_eq!(store.is_empty(), model.is_empty());
        prop_assert_eq!(store.as_flat().len(), model.len() * DIM);
        prop_assert_eq!(store.memory_bytes(), model.len() * DIM * 4);
        for (i, row) in model.iter().enumerate() {
            prop_assert_eq!(store.get(i as u32), row.as_slice());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn handles_behave_as_independent_stores(
        reserve in 0usize..6,
        ops in prop::collection::vec(op(), 1..80),
    ) {
        // `reserve` moves the first full-buffer fork around the script.
        let mut handles = vec![(VectorStore::with_capacity(DIM, reserve), Vec::new())];
        let mut next = 0.0f32;
        for op in ops {
            let live = handles.len();
            match op {
                Op::Push(i) => {
                    let (store, model) = &mut handles[i % live];
                    // Every row is unique, so a row leaking from another
                    // handle cannot pass for one of this handle's own.
                    let row = vec![next, next + 0.25, -next];
                    next += 1.0;
                    prop_assert_eq!(store.push(&row) as usize, model.len());
                    model.push(row);
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
