//! Scalable correlated-attribute dataset generation for the production
//! workload harness.
//!
//! The paper stand-ins in [`datasets`](crate::datasets) reproduce specific
//! corpora at fixed dimensionality and schema. The workload harness
//! (`workload_bench` in `acorn-bench`) instead needs a dataset whose every
//! axis is a config knob — row count up to millions, vector dimension,
//! cluster count, attribute cardinalities, and, crucially, how strongly the
//! attribute columns *correlate* with the vector clusters and with each
//! other.
//!
//! [`correlated_dataset`] generates three attribute columns, all driven by
//! the row's mixture cluster, so they correlate with vector geometry and
//! (through the shared cluster) with each other:
//!
//! * `label` — an integer in `0..label_cardinality`; with probability
//!   `affinity` it is the cluster's preferred label, else uniform.
//! * `keywords` — 1–3 terms from a `vocab`-sized vocabulary, drawn
//!   cluster-affine exactly like the paper stand-ins.
//! * `year` — an integer in `[year_lo, year_hi]`; with probability
//!   `affinity` it falls in the cluster's own window of the span (clusters
//!   partition the year range), else uniform over the whole span. Range
//!   predicates over `year` therefore select cluster-correlated row sets,
//!   the regime where predicate-subgraph traversal is actually stressed
//!   (§3.2.1 of the paper; NaviX makes the same argument).

use std::sync::Arc;

use acorn_predicate::attrs::keyword_mask;
use acorn_predicate::AttrStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets::{preferred_keywords, HybridDataset};
use crate::synth::{gaussian_mixture, MixtureSpec};

/// Every knob of a generated correlated-attribute corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedSpec {
    /// Number of rows.
    pub n: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Gaussian-mixture components (the correlation anchor).
    pub clusters: usize,
    /// Per-coordinate std around each cluster center.
    pub std: f32,
    /// Cardinality of the `label` column.
    pub label_cardinality: usize,
    /// Keyword vocabulary size for the `keywords` column (max 64).
    pub vocab: usize,
    /// Probability that a column value is drawn from its cluster's
    /// preferred value/window rather than uniformly (0 = independent
    /// columns, 1 = fully cluster-determined).
    pub affinity: f64,
    /// Lower bound of the `year` column.
    pub year_lo: i64,
    /// Upper bound of the `year` column (inclusive).
    pub year_hi: i64,
    /// RNG seed; the whole corpus is a pure function of the spec.
    pub seed: u64,
}

impl Default for CorrelatedSpec {
    fn default() -> Self {
        Self {
            n: 10_000,
            dim: 32,
            clusters: 32,
            std: 0.55,
            label_cardinality: 16,
            vocab: 32,
            affinity: 0.8,
            year_lo: 1900,
            year_hi: 2020,
            seed: 42,
        }
    }
}

impl CorrelatedSpec {
    /// The preferred `label` of a cluster.
    fn preferred_label(&self, cluster: u32) -> i64 {
        (cluster as usize % self.label_cardinality.max(1)) as i64
    }

    /// The `[lo, hi]` year window of a cluster: clusters partition the year
    /// span into equal contiguous windows (cluster order is scrambled by a
    /// fixed multiplier so adjacent cluster ids do not imply adjacent
    /// years).
    fn year_window(&self, cluster: u32) -> (i64, i64) {
        let span = (self.year_hi - self.year_lo + 1).max(1);
        let c = self.clusters.max(1) as i64;
        // Fixed odd multiplier: a bijection over cluster ids that decouples
        // id adjacency from window adjacency.
        let slot = (cluster as i64 * 11 + 3) % c;
        let lo = self.year_lo + span * slot / c;
        let hi = self.year_lo + span * (slot + 1) / c - 1;
        (lo, hi.max(lo))
    }
}

/// Generate a corpus from a [`CorrelatedSpec`]. Deterministic per spec;
/// see the [module docs](self) for the column semantics.
///
/// # Panics
/// Panics when `n == 0`, `dim == 0`, `clusters == 0`,
/// `label_cardinality == 0`, `vocab` is 0 or exceeds 64, `affinity` is
/// outside `[0, 1]`, or `year_lo > year_hi`.
pub fn correlated_dataset(spec: &CorrelatedSpec) -> HybridDataset {
    assert!(spec.n > 0, "need at least one row");
    assert!(spec.label_cardinality > 0, "label cardinality must be positive");
    assert!(spec.vocab > 0 && spec.vocab <= 64, "vocab must be in 1..=64");
    assert!((0.0..=1.0).contains(&spec.affinity), "affinity must be in [0, 1]");
    assert!(spec.year_lo <= spec.year_hi, "year range is inverted");

    let mix = gaussian_mixture(MixtureSpec {
        n: spec.n,
        dim: spec.dim,
        clusters: spec.clusters,
        std: spec.std,
        seed: spec.seed,
    });
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5CA1E);

    let mut labels = Vec::with_capacity(spec.n);
    let mut masks = Vec::with_capacity(spec.n);
    let mut years = Vec::with_capacity(spec.n);
    for &cluster in &mix.cluster_of {
        labels.push(if rng.gen_bool(spec.affinity) {
            spec.preferred_label(cluster)
        } else {
            rng.gen_range(0..spec.label_cardinality as i64)
        });

        let count = 1 + rng.gen_range(0..3usize).min(rng.gen_range(0..3)); // 1..=3, small-heavy
        let preferred = preferred_keywords(cluster, spec.vocab);
        let mut terms: Vec<u8> = Vec::with_capacity(count);
        while terms.len() < count {
            let kw = if rng.gen_bool(spec.affinity) {
                preferred[rng.gen_range(0..3usize)]
            } else {
                rng.gen_range(0..spec.vocab) as u8
            };
            if !terms.contains(&kw) {
                terms.push(kw);
            }
        }
        masks.push(keyword_mask(&terms));

        let (lo, hi) = if rng.gen_bool(spec.affinity) {
            spec.year_window(cluster)
        } else {
            (spec.year_lo, spec.year_hi)
        };
        years.push(rng.gen_range(lo..=hi));
    }

    let attrs = AttrStore::builder()
        .add_int("label", labels)
        .add_keywords("keywords", masks)
        .add_int("year", years)
        .build();
    HybridDataset {
        name: format!("correlated-{}x{}d", spec.n, spec.dim),
        vectors: Arc::new(mix.vectors),
        attrs: Arc::new(attrs),
        cluster_of: mix.cluster_of,
        n_clusters: spec.clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_predicate::Predicate;

    fn small_spec() -> CorrelatedSpec {
        CorrelatedSpec { n: 4000, dim: 8, clusters: 8, ..Default::default() }
    }

    #[test]
    fn schema_has_all_three_columns() {
        let d = correlated_dataset(&small_spec());
        assert_eq!(d.len(), 4000);
        assert_eq!(d.vectors.dim(), 8);
        for field in ["label", "keywords", "year"] {
            assert!(d.attrs.field(field).is_some(), "missing column {field}");
        }
    }

    #[test]
    fn deterministic_per_spec() {
        let spec = small_spec();
        let (a, b) = (correlated_dataset(&spec), correlated_dataset(&spec));
        assert_eq!(a.vectors.as_flat(), b.vectors.as_flat());
        let (la, ya) = (a.attrs.field("label").unwrap(), a.attrs.field("year").unwrap());
        let (lb, yb) = (b.attrs.field("label").unwrap(), b.attrs.field("year").unwrap());
        for i in 0..a.len() as u32 {
            assert_eq!(a.attrs.int(la, i), b.attrs.int(lb, i));
            assert_eq!(a.attrs.int(ya, i), b.attrs.int(yb, i));
        }
    }

    #[test]
    fn labels_and_years_are_cluster_correlated() {
        let spec = small_spec();
        let d = correlated_dataset(&spec);
        let label = d.attrs.field("label").unwrap();
        let year = d.attrs.field("year").unwrap();
        let mut label_hits = 0usize;
        let mut year_hits = 0usize;
        for i in 0..d.len() as u32 {
            let c = d.cluster_of[i as usize];
            if d.attrs.int(label, i) == spec.preferred_label(c) {
                label_hits += 1;
            }
            let (lo, hi) = spec.year_window(c);
            let y = d.attrs.int(year, i);
            if (lo..=hi).contains(&y) {
                year_hits += 1;
            }
        }
        // affinity 0.8 plus chance hits from the uniform fallback.
        let lf = label_hits as f64 / d.len() as f64;
        let yf = year_hits as f64 / d.len() as f64;
        assert!(lf > 0.75, "label affinity too weak: {lf}");
        assert!(yf > 0.75, "year affinity too weak: {yf}");
    }

    #[test]
    fn zero_affinity_decorrelates() {
        let spec = CorrelatedSpec { affinity: 0.0, ..small_spec() };
        let d = correlated_dataset(&spec);
        let year = d.attrs.field("year").unwrap();
        let mut year_hits = 0usize;
        for i in 0..d.len() as u32 {
            let (lo, hi) = spec.year_window(d.cluster_of[i as usize]);
            if (lo..=hi).contains(&d.attrs.int(year, i)) {
                year_hits += 1;
            }
        }
        // With 8 clusters a chance hit is ~1/8.
        let yf = year_hits as f64 / d.len() as f64;
        assert!(yf < 0.25, "affinity 0 must leave only chance-level hits, got {yf}");
    }

    #[test]
    fn values_stay_in_declared_domains() {
        let spec = small_spec();
        let d = correlated_dataset(&spec);
        let label = d.attrs.field("label").unwrap();
        let year = d.attrs.field("year").unwrap();
        let kw = d.attrs.field("keywords").unwrap();
        for i in 0..d.len() as u32 {
            let l = d.attrs.int(label, i);
            assert!((0..spec.label_cardinality as i64).contains(&l), "label {l}");
            let y = d.attrs.int(year, i);
            assert!((spec.year_lo..=spec.year_hi).contains(&y), "year {y}");
            let mask = d.attrs.keywords(kw, i);
            assert!(mask != 0, "row {i} has no keywords");
            assert!(mask < (1u64 << spec.vocab), "keyword out of vocab");
        }
    }

    #[test]
    fn year_windows_partition_the_span() {
        let spec = CorrelatedSpec { clusters: 7, ..Default::default() };
        let mut covered = 0i64;
        for c in 0..7 {
            let (lo, hi) = spec.year_window(c);
            assert!(spec.year_lo <= lo && hi <= spec.year_hi);
            covered += hi - lo + 1;
        }
        assert_eq!(covered, spec.year_hi - spec.year_lo + 1, "windows must tile the span");
    }

    #[test]
    fn range_predicates_over_year_are_usable() {
        let d = correlated_dataset(&small_spec());
        let field = d.attrs.field("year").unwrap();
        let p = Predicate::Between { field, lo: 1950, hi: 1980 };
        let s = acorn_predicate::exact_selectivity(&d.attrs, &p);
        assert!(s > 0.0 && s < 1.0, "selectivity {s}");
    }
}
