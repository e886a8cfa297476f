//! Property tests: `Bitset` must behave identically to a `Vec<bool>` model.

use acorn_predicate::Bitset;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set(u32),
    Clear(u32),
    Negate,
}

fn ops(universe: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0..universe as u32).prop_map(Op::Set),
            2 => (0..universe as u32).prop_map(Op::Clear),
            1 => Just(Op::Negate),
        ],
        0..40,
    )
}

proptest! {
    #[test]
    fn bitset_matches_vec_bool_model(universe in 1usize..300, ops in ops(299)) {
        let mut bits = Bitset::new(universe);
        let mut model = vec![false; universe];
        for op in ops {
            match op {
                Op::Set(i) => {
                    let i = i as usize % universe;
                    bits.set(i as u32);
                    model[i] = true;
                }
                Op::Clear(i) => {
                    let i = i as usize % universe;
                    bits.clear(i as u32);
                    model[i] = false;
                }
                Op::Negate => {
                    bits.negate();
                    for b in &mut model {
                        *b = !*b;
                    }
                }
            }
        }
        prop_assert_eq!(bits.count(), model.iter().filter(|&&b| b).count());
        let ones: Vec<u32> = model
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(bits.to_ids(), ones);
    }

    #[test]
    fn and_or_match_model(universe in 1usize..200, a in prop::collection::vec(any::<bool>(), 200), b in prop::collection::vec(any::<bool>(), 200)) {
        let ids_a: Vec<u32> = (0..universe).filter(|&i| a[i]).map(|i| i as u32).collect();
        let ids_b: Vec<u32> = (0..universe).filter(|&i| b[i]).map(|i| i as u32).collect();
        let ba = Bitset::from_ids(universe, ids_a.iter().copied());
        let bb = Bitset::from_ids(universe, ids_b.iter().copied());

        let mut and = ba.clone();
        and.and_with(&bb);
        let want_and: Vec<u32> = (0..universe).filter(|&i| a[i] && b[i]).map(|i| i as u32).collect();
        prop_assert_eq!(and.to_ids(), want_and);

        let mut or = ba.clone();
        or.or_with(&bb);
        let want_or: Vec<u32> = (0..universe).filter(|&i| a[i] || b[i]).map(|i| i as u32).collect();
        prop_assert_eq!(or.to_ids(), want_or);

        let mut and_not = ba.clone();
        and_not.and_not_with(&bb);
        let want: Vec<u32> = (0..universe).filter(|&i| a[i] && !b[i]).map(|i| i as u32).collect();
        prop_assert_eq!(and_not.to_ids(), want);
    }

    /// The in-place gather equals picking the source bits one by one, for
    /// any strictly ascending source list (dense, gapped, empty, or ending
    /// on a word boundary).
    #[test]
    fn gather_ascending_matches_model(
        bits in prop::collection::vec(any::<bool>(), 0..300),
        keep in prop::collection::vec(any::<bool>(), 300),
    ) {
        let universe = bits.len();
        let set = Bitset::from_ids(universe, (0..universe as u32).filter(|&i| bits[i as usize]));
        let sources: Vec<u32> = (0..universe as u32).filter(|&i| keep[i as usize]).collect();
        let mut gathered = set.clone();
        gathered.gather_ascending(sources.iter().copied());
        let want = Bitset::from_ids(
            sources.len(),
            (0..sources.len() as u32).filter(|&i| bits[sources[i as usize] as usize]),
        );
        prop_assert_eq!(gathered, want);
    }
}
