#![warn(missing_docs)]

//! # acorn-data
//!
//! Synthetic hybrid-search datasets and query workloads reproducing the
//! statistical shape of the four datasets in the ACORN paper's evaluation
//! (Table 2): SIFT1M, Paper, TripClick, and LAION.
//!
//! The real corpora are not redistributable (and at 1M–25M vectors would not
//! fit a CI-scale run), so [`datasets`] builds Gaussian-mixture stand-ins
//! with the same vector dimensionality, attribute schema, predicate
//! operators, selectivity distribution, and — crucially — *predicate
//! clustering*, the property that makes query-correlation workloads
//! meaningful (§3.2.1). Each builder's rustdoc in [`datasets`] documents
//! its substitution.
//!
//! * [`synth`] — Gaussian-mixture vector generator.
//! * [`captions`] — synthetic caption text for regex predicates.
//! * [`datasets`] — the four dataset builders ([`HybridDataset`]).
//! * [`workloads`] — query-workload generators: equality, keyword-contains
//!   with positive/none/negative correlation, date ranges at target
//!   selectivities, and regex.
//! * [`mod@ground_truth`] — exact filtered K-NN (parallel brute force).
//! * [`correlation`] — the paper's query-correlation statistic `C(D, Q)`.
//! * [`scale`] — correlated-attribute corpora of any size, for the
//!   million-row `serve` run and the repo benchmark ([`CorrelatedSpec`]).
//! * [`zipf`] — Zipf-distributed rank sampling for skewed query traffic
//!   ([`Zipf`]).

pub mod captions;
pub mod correlation;
pub mod datasets;
pub mod ground_truth;
pub mod scale;
pub mod synth;
pub mod workloads;
pub mod zipf;

pub use datasets::HybridDataset;
pub use ground_truth::ground_truth;
pub use scale::{correlated_dataset, CorrelatedSpec};
pub use workloads::{Correlation, HybridQuery, Workload};
pub use zipf::Zipf;
