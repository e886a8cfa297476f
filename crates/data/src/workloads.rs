//! Hybrid query-workload generators (§7.1 of the paper).
//!
//! Each generator produces [`HybridQuery`]s — a query vector plus a
//! predicate — mirroring one of the paper's workloads:
//!
//! * [`equality_workload`] — SIFT1M/Paper: `equals(y)` with `y` uniform in
//!   the 12-value label domain.
//! * [`keyword_workload`] — LAION: `contains(y1 ∨ ...)` with controllable
//!   query correlation: *positive* (keywords of the query vector's own
//!   cluster), *none* (uniform keywords), *negative* (keywords of a distant
//!   cluster).
//! * [`date_range_workload`] — TripClick dates: `between(lo, hi)` tuned to a
//!   target selectivity (the Figure 9 percentiles).
//! * [`area_workload`] — TripClick areas: `contains` over clinical areas.
//! * [`regex_workload`] — LAION regex: caption patterns from the paper's
//!   2–10-token shapes.
//!
//! Query vectors are drawn as perturbed dataset points (the paper samples
//! query vectors from the datasets themselves).
//!
//! Every generated predicate is passed through [`Predicate::normalize`], so
//! queries reach the indices in the canonical form the compiled predicate
//! engine lowers from (flattened, constant-folded, cheap clauses hoisted
//! before regex, `In` lists sorted) — exactly what a query planner would
//! hand a production serving path.

use acorn_predicate::{exact_selectivity, Predicate, Regex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::captions::KEYWORDS;
use crate::datasets::{preferred_keywords, HybridDataset, TRIPCLICK_AREAS};
use crate::synth::std_normal;

/// One hybrid query: vector + predicate.
#[derive(Debug, Clone)]
pub struct HybridQuery {
    /// The query vector.
    pub vector: Vec<f32>,
    /// The structured predicate.
    pub predicate: Predicate,
    /// Exact selectivity of the predicate over the base dataset.
    pub selectivity: f64,
}

/// A named collection of hybrid queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (for logs and tables).
    pub name: String,
    /// The queries.
    pub queries: Vec<HybridQuery>,
}

impl Workload {
    /// Mean predicate selectivity across queries.
    pub fn avg_selectivity(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(|q| q.selectivity).sum::<f64>() / self.queries.len() as f64
    }
}

/// Query correlation regimes (§3.2.1, Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlation {
    /// Search targets cluster near the query vector.
    Positive,
    /// Predicate unrelated to the query vector.
    None,
    /// Search targets cluster far from the query vector.
    Negative,
}

impl Correlation {
    /// Short label used in workload names.
    pub fn label(self) -> &'static str {
        match self {
            Correlation::Positive => "pos-cor",
            Correlation::None => "no-cor",
            Correlation::Negative => "neg-cor",
        }
    }
}

/// Sample a query vector: a dataset point plus small Gaussian noise.
/// Returns the source record's cluster as well.
fn sample_query_vector(ds: &HybridDataset, rng: &mut StdRng, noise: f32) -> (Vec<f32>, u32) {
    let i = rng.gen_range(0..ds.len()) as u32;
    let base = ds.vectors.get(i);
    let v: Vec<f32> = base.iter().map(|&x| x + noise * std_normal(rng)).collect();
    (v, ds.cluster_of[i as usize])
}

/// SIFT1M/Paper workload: equality on the integer label
/// ("for each query vector, the associated query predicate performs an
/// exact match with a randomly chosen integer in the attribute value
/// domain").
pub fn equality_workload(ds: &HybridDataset, nq: usize, seed: u64) -> Workload {
    let field = ds.attrs.field("label").expect("dataset has no 'label' field");
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..nq)
        .map(|_| {
            let (vector, _) = sample_query_vector(ds, &mut rng, 0.05);
            let predicate = Predicate::Equals { field, value: rng.gen_range(1..=12) }.normalize();
            let selectivity = exact_selectivity(&ds.attrs, &predicate);
            HybridQuery { vector, predicate, selectivity }
        })
        .collect();
    Workload { name: format!("{}/equality", ds.name), queries }
}

/// LAION keyword workload with controlled correlation.
///
/// Each query filters on 1–2 keywords. `Positive` draws them from the query
/// vector's own cluster's preferred set, `None` uniformly, and `Negative`
/// from the "opposite" cluster's preferred set (maximally distant cluster
/// id), reproducing the paper's pos-/no-/neg-correlation micro-benchmarks.
///
/// A cluster's preferred keywords are computed over a `KEYWORDS.len()`-term
/// vocabulary, so `ds` must draw its `keywords` column over that same
/// vocabulary (as `laion_like` does). A corpus over another vocabulary size,
/// such as `CorrelatedSpec::default()`'s 32, gives most clusters other
/// preferred keywords, and `Positive`/`Negative` filter on the wrong
/// clusters' terms.
pub fn keyword_workload(
    ds: &HybridDataset,
    correlation: Correlation,
    nq: usize,
    seed: u64,
) -> Workload {
    let field = ds.attrs.field("keywords").expect("dataset has no 'keywords' field");
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = KEYWORDS.len();
    let queries = (0..nq)
        .map(|_| {
            let (vector, cluster) = sample_query_vector(ds, &mut rng, 0.05);
            let n_terms = rng.gen_range(1..=2usize);
            let mut mask = 0u64;
            for _ in 0..n_terms {
                let kw = match correlation {
                    Correlation::Positive => {
                        preferred_keywords(cluster, vocab)[rng.gen_range(0..3usize)]
                    }
                    Correlation::None => rng.gen_range(0..vocab) as u8,
                    Correlation::Negative => {
                        let far = (cluster + ds.n_clusters as u32 / 2) % ds.n_clusters as u32;
                        preferred_keywords(far, vocab)[rng.gen_range(0..3usize)]
                    }
                };
                mask |= 1u64 << kw;
            }
            let predicate = Predicate::ContainsAny { field, mask }.normalize();
            let selectivity = exact_selectivity(&ds.attrs, &predicate);
            HybridQuery { vector, predicate, selectivity }
        })
        .collect();
    Workload { name: format!("{}/{}", ds.name, correlation.label()), queries }
}

/// TripClick clinical-area workload: `contains(y1 ∨ y2 ∨ ...)` over 1–3
/// areas drawn from the query's cluster-preferred set (real click logs show
/// users filter on areas related to their query).
pub fn area_workload(ds: &HybridDataset, nq: usize, seed: u64) -> Workload {
    let field = ds.attrs.field("areas").expect("dataset has no 'areas' field");
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..nq)
        .map(|_| {
            let (vector, cluster) = sample_query_vector(ds, &mut rng, 0.05);
            let n_terms = rng.gen_range(1..=3usize);
            let mut mask = 0u64;
            for _ in 0..n_terms {
                let kw = if rng.gen_bool(0.7) {
                    preferred_keywords(cluster, TRIPCLICK_AREAS)[rng.gen_range(0..3usize)]
                } else {
                    rng.gen_range(0..TRIPCLICK_AREAS) as u8
                };
                mask |= 1u64 << kw;
            }
            let predicate = Predicate::ContainsAny { field, mask }.normalize();
            let selectivity = exact_selectivity(&ds.attrs, &predicate);
            HybridQuery { vector, predicate, selectivity }
        })
        .collect();
    Workload { name: format!("{}/areas", ds.name), queries }
}

/// TripClick date workload: `between(lo, hi)` over publication years with a
/// target selectivity (Figure 9 sweeps the 1/25/50/75/99th percentiles).
///
/// The window is placed uniformly at random over the sorted year
/// distribution and sized to hit `target_selectivity` exactly (up to ties).
pub fn date_range_workload(
    ds: &HybridDataset,
    target_selectivity: f64,
    nq: usize,
    seed: u64,
) -> Workload {
    assert!((0.0..=1.0).contains(&target_selectivity), "selectivity must be in [0,1]");
    let field = ds.attrs.field("year").expect("dataset has no 'year' field");
    let mut years: Vec<i64> = (0..ds.len() as u32).map(|i| ds.attrs.int(field, i)).collect();
    years.sort_unstable();
    let n = years.len();
    let window = ((n as f64 * target_selectivity) as usize).clamp(1, n);

    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..nq)
        .map(|_| {
            let (vector, _) = sample_query_vector(ds, &mut rng, 0.05);
            let start = rng.gen_range(0..=(n - window));
            let lo = years[start];
            let hi = years[start + window - 1];
            let predicate = Predicate::Between { field, lo, hi }.normalize();
            let selectivity = exact_selectivity(&ds.attrs, &predicate);
            HybridQuery { vector, predicate, selectivity }
        })
        .collect();
    Workload { name: format!("{}/dates-s{:.3}", ds.name, target_selectivity), queries }
}

/// LAION regex workload: caption patterns shaped like the paper's examples
/// (anchors, classes, alternations, wildcards over vocabulary words).
///
/// Patterns with zero matches are re-drawn (the paper reports avg
/// selectivity 0.056 for its regex workload).
pub fn regex_workload(ds: &HybridDataset, nq: usize, seed: u64) -> Workload {
    let field = ds.attrs.field("caption").expect("dataset has no 'caption' field");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(nq);
    while queries.len() < nq {
        let (vector, _) = sample_query_vector(ds, &mut rng, 0.05);
        let w1 = KEYWORDS[rng.gen_range(0..KEYWORDS.len())];
        let w2 = KEYWORDS[rng.gen_range(0..KEYWORDS.len())];
        let pattern = match rng.gen_range(0..5) {
            0 => "^[0-9]".to_string(),
            1 => w1.to_string(),
            2 => format!("({w1}|{w2})"),
            3 => format!("{w1} .*{w2}"),
            _ => format!("^a photo of .*{w1}"),
        };
        let predicate = Predicate::RegexMatch {
            field,
            regex: Regex::new(&pattern).expect("generated pattern must compile"),
        }
        .normalize();
        let selectivity = exact_selectivity(&ds.attrs, &predicate);
        if selectivity == 0.0 {
            continue;
        }
        queries.push(HybridQuery { vector, predicate, selectivity });
    }
    Workload { name: format!("{}/regex", ds.name), queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{laion_like, sift_like, tripclick_like};

    #[test]
    fn equality_selectivity_near_one_twelfth() {
        let ds = sift_like(3000, 1);
        let w = equality_workload(&ds, 30, 2);
        assert_eq!(w.queries.len(), 30);
        let avg = w.avg_selectivity();
        assert!((avg - 1.0 / 12.0).abs() < 0.03, "avg selectivity {avg}");
    }

    #[test]
    fn date_ranges_hit_target_selectivity() {
        let ds = tripclick_like(4000, 3);
        for target in [0.05, 0.25, 0.6] {
            let w = date_range_workload(&ds, target, 20, 4);
            let avg = w.avg_selectivity();
            // Ties on years can stretch the window slightly.
            assert!((avg - target).abs() < 0.1, "target {target} produced avg {avg}");
        }
    }

    #[test]
    fn correlation_regimes_order_target_distance() {
        // Positive correlation ⇒ passing records nearer the query than
        // negative correlation, on average.
        let ds = laion_like(3000, 5);
        let near = |w: &Workload| -> f64 {
            let mut total = 0.0;
            for q in &w.queries {
                let mut best = f32::INFINITY;
                for i in 0..ds.len() as u32 {
                    if q.predicate.eval(&ds.attrs, i) {
                        let d = acorn_hnsw::Metric::L2.distance(ds.vectors.get(i), &q.vector);
                        best = best.min(d);
                    }
                }
                total += best as f64;
            }
            total / w.queries.len() as f64
        };
        let pos = near(&keyword_workload(&ds, Correlation::Positive, 15, 6));
        let neg = near(&keyword_workload(&ds, Correlation::Negative, 15, 6));
        assert!(
            pos < neg,
            "positive-correlation targets ({pos}) must be nearer than negative ({neg})"
        );
    }

    #[test]
    fn regex_workload_nonzero_selectivity() {
        let ds = laion_like(1500, 7);
        let w = regex_workload(&ds, 10, 8);
        assert_eq!(w.queries.len(), 10);
        for q in &w.queries {
            assert!(q.selectivity > 0.0);
        }
    }

    /// The served matcher (literal prefilter + DFA) against the Pike VM it
    /// was built from, on the corpus and patterns the benchmark runs.
    #[test]
    fn regex_workload_verdicts_are_the_vms_row_for_row() {
        use acorn_predicate::regex::{nfa::Program, parser};
        let ds = laion_like(2000, 42);
        let captions = ds.attrs.texts(ds.attrs.field("caption").unwrap());
        let mut patterns: Vec<String> = (0..4)
            .flat_map(|seed| regex_workload(&ds, 16, seed).queries)
            .map(|q| match q.predicate {
                Predicate::RegexMatch { regex, .. } => regex.pattern().to_string(),
                other => panic!("unexpected predicate {other:?}"),
            })
            .collect();
        patterns.sort();
        patterns.dedup();
        assert!(patterns.len() >= 30, "{} distinct patterns", patterns.len());
        for pattern in &patterns {
            // Best of three: one scheduler stall on a shared box is not the
            // construction's cost.
            let took = (0..3)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    Regex::new(pattern).unwrap();
                    t0.elapsed()
                })
                .min()
                .unwrap();
            assert!(took.as_micros() < 1000, "{pattern:?} compiled in {took:?}");
            let regex = Regex::new(pattern).unwrap();
            let vm = Program::compile(&parser::parse(pattern).unwrap());
            for caption in captions {
                assert_eq!(
                    regex.is_match(caption),
                    vm.is_match(caption),
                    "{pattern:?} on {caption:?}"
                );
            }
        }
    }

    #[test]
    fn area_workload_masks_in_vocabulary() {
        let ds = tripclick_like(1000, 9);
        let w = area_workload(&ds, 20, 10);
        for q in &w.queries {
            match &q.predicate {
                Predicate::ContainsAny { mask, .. } => {
                    assert!(*mask != 0);
                    assert!(*mask < (1u64 << TRIPCLICK_AREAS));
                }
                other => panic!("unexpected predicate {other:?}"),
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let ds = sift_like(500, 11);
        let a = equality_workload(&ds, 5, 12);
        let b = equality_workload(&ds, 5, 12);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.vector, y.vector);
            assert_eq!(x.selectivity, y.selectivity);
        }
    }
}
