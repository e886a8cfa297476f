//! Selectivity estimation.
//!
//! ACORN's cost model (§5.2) routes a query to the pre-filter fallback when
//! its estimated selectivity is below `s_min = 1/γ`. The paper notes the
//! estimate "can be estimated empirically with or without knowing the
//! predicate set"; we implement the standard database approach — Bernoulli
//! sampling over the attribute store — plus an exact variant for analysis.
//! §5.2 also argues estimation errors degrade only efficiency, never result
//! quality; integration tests assert exactly that.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::attrs::AttrStore;
use crate::compiled::CompiledPredicate;
use crate::predicate::Predicate;

/// Draw the sample the hybrid query planner (and the per-segment estimator
/// below) routes on: `sample_size` positions in `0..universe`, uniform with
/// replacement, each handed to `visit` in draw order. The sequence depends
/// only on `(universe, sample_size, seed)`, so whatever evaluates the
/// sampled rows — interpreted or compiled, both bit-identical — sees
/// **identical samples** and tallies identical verdicts: ACORN's fallback
/// routing (§5.2) never changes with the evaluation engine. Nothing is drawn
/// from an empty universe.
///
/// The planner calls this **once per query** over the concatenated rows of
/// every segment it is about to search and tallies hits per segment; a
/// one-segment index is the same sequence over its own rows, which is what
/// keeps a fully-merged segment routing like a from-scratch rebuild.
pub fn sample_positions(
    universe: usize,
    sample_size: usize,
    seed: u64,
    mut visit: impl FnMut(usize),
) {
    if universe == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..sample_size {
        visit(rng.gen_range(0..universe));
    }
}

/// The fraction of `sample_size` [`sample_positions`] over a **remapped
/// universe** that pass `compiled`, recording every sampled verdict into
/// `memo` (0.0 when nothing was drawn): positions are drawn from
/// `0..universe`, position `p` is evaluated at row `map(p)` of `attrs`, and
/// the verdict is recorded under `p` (the segment-local row id, the id space
/// a `MemoFilter` over a remapped filter uses). Duplicate draws are answered
/// from the memo. `memo` must cover `universe` rows and be freshly reset.
///
/// The standard error is `sqrt(s(1-s)/sample_size)`: ±1.6% absolute at
/// `s = 0.5` for the router's 1,000 samples. The engine plans from one
/// [`sample_positions`] pass per query; this per-segment form is what the
/// repo benchmark's staged replay times.
#[allow(clippy::too_many_arguments)]
pub fn estimate_selectivity_seeding_mapped(
    attrs: &AttrStore,
    compiled: &CompiledPredicate,
    sample_size: usize,
    seed: u64,
    memo: &crate::memo::MemoTable,
    universe: usize,
    map: impl Fn(u32) -> u32,
) -> f64 {
    if sample_size == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    sample_positions(universe, sample_size, seed, |p| {
        let p = p as u32;
        let verdict = memo.lookup(p).unwrap_or_else(|| {
            let verdict = compiled.eval(attrs, map(p));
            memo.record(p, verdict);
            verdict
        });
        hits += usize::from(verdict);
    });
    hits as f64 / sample_size as f64
}

/// Exact selectivity by full scan (used for analysis and tests).
pub fn exact_selectivity(attrs: &AttrStore, predicate: &Predicate) -> f64 {
    let n = attrs.len();
    if n == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    for id in 0..n as u32 {
        if predicate.eval(attrs, id) {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrStore;

    fn store(n: usize) -> AttrStore {
        // x cycles 0..10, so Equals{value:0} has exact selectivity 0.1.
        AttrStore::builder().add_int("x", (0..n as i64).map(|i| i % 10).collect()).build()
    }

    /// Hit fraction of `p` over `size` [`sample_positions`] of `s`.
    fn sampled(s: &AttrStore, p: &Predicate, size: usize, seed: u64) -> f64 {
        let mut hits = 0usize;
        sample_positions(s.len(), size, seed, |pos| hits += usize::from(p.eval(s, pos as u32)));
        hits as f64 / size as f64
    }

    #[test]
    fn exact_matches_construction() {
        let s = store(1000);
        let f = s.field("x").unwrap();
        let p = Predicate::Equals { field: f, value: 0 };
        assert!((exact_selectivity(&s, &p) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn estimate_converges_to_exact() {
        let s = store(10_000);
        let f = s.field("x").unwrap();
        let p = Predicate::Between { field: f, lo: 0, hi: 4 }; // s = 0.5
        let est = sampled(&s, &p, 5000, 42);
        assert!((est - 0.5).abs() < 0.05, "estimate {est} too far from 0.5");
    }

    #[test]
    fn empty_store_is_zero() {
        let s = AttrStore::builder().add_int("x", vec![]).build();
        let p = Predicate::True;
        assert_eq!(sampled(&s, &p, 100, 0), 0.0);
        assert_eq!(exact_selectivity(&s, &p), 0.0);
    }

    #[test]
    fn estimate_is_deterministic_per_seed() {
        let s = store(1000);
        let f = s.field("x").unwrap();
        let p = Predicate::Equals { field: f, value: 3 };
        let a = sampled(&s, &p, 200, 7);
        let b = sampled(&s, &p, 200, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn sample_positions_is_the_sequence_every_estimator_draws() {
        let s = store(2000);
        let mut drawn = Vec::new();
        sample_positions(s.len(), 400, 13, |pos| drawn.push(pos));
        assert_eq!(drawn.len(), 400);
        assert!(drawn.iter().all(|&pos| pos < s.len()));

        let mut again = Vec::new();
        sample_positions(s.len(), 400, 13, |pos| again.push(pos));
        assert_eq!(drawn, again, "the sequence depends only on (universe, size, seed)");
        sample_positions(0, 400, 13, |_| panic!("an empty universe draws nothing"));
    }

    #[test]
    fn seeding_mapped_agrees_and_records_local_positions() {
        let s = store(3000);
        let f = s.field("x").unwrap();
        let p = Predicate::Equals { field: f, value: 4 };
        let c = CompiledPredicate::compile(&p);
        let mut memo = crate::memo::MemoTable::new();
        memo.reset_for(1000);
        // Sub-universe of 1000 positions mapped to rows 1000..2000.
        let est = estimate_selectivity_seeding_mapped(&s, &c, 500, 9, &memo, 1000, |p| p + 1000);
        let mut hits = 0usize;
        sample_positions(1000, 500, 9, |pos| hits += usize::from(p.eval(&s, pos as u32 + 1000)));
        assert_eq!(est, hits as f64 / 500.0, "seeding must not change the estimate");
        assert!(memo.known_count() > 0, "sampled verdicts must be recorded");
        // Every recorded verdict sits at a local position (< 1000) and
        // matches the predicate at the mapped row.
        for local in 0..1000u32 {
            if let Some(v) = memo.lookup(local) {
                assert_eq!(v, p.eval(&s, local + 1000), "position {local}");
            }
        }
    }
}
