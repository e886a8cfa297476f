#![warn(missing_docs)]

//! # acorn-predicate
//!
//! The structured-data side of hybrid search: typed attribute storage, a
//! predicate AST covering every operator in the ACORN paper's evaluation
//! (`equals`, `contains(y1 ∨ y2 ∨ ...)`, `between(lo, hi)`, and
//! `regex-match`), boolean combinators, bitset materialization, and a
//! sampling-based selectivity estimator.
//!
//! Regex matching is served by a from-scratch engine in [`regex`] — a
//! Thompson NFA determinized once per pattern behind a literal prefilter
//! (the offline-dependency policy rules out the `regex` crate).
//!
//! The hot-path contract consumed by the indices is the [`NodeFilter`] trait:
//! "does dataset row `id` pass this query's predicate?". Implementations
//! include lazy AST evaluation ([`PredicateFilter`]) and a precomputed
//! [`bitmap::Bitset`] ([`BitmapFilter`]), mirroring the two
//! strategies real systems (Weaviate, Milvus) use.
//!
//! The [`compiled`] module lowers the AST into a flat, constant-folded
//! [`CompiledPredicate`] program whose kernels evaluate 64-row blocks
//! against the columnar store into `u64` mask words (scalar or AVX2 bodies,
//! chosen once per process by [`kernels::kernel_path`]), and [`memo`] provides
//! the per-query tri-state [`MemoTable`]/[`MemoFilter`] so lazy graph
//! search evaluates each row at most once per query. The hybrid query
//! planner (`acorn_core::plan`) serves from the compiled program: it
//! materializes every segment's predicate into a bitmap and routes on the
//! exact count. A selective int `Equals`/`Between`/`In` (alone or as a
//! conjunct) is set from the [`AttrStore`]'s value-ordered index of its
//! column instead of evaluated row by row; one work rule in [`compiled`]
//! picks that route or the block kernels.

pub mod attrs;
pub mod bitmap;
pub mod compiled;
pub mod filter;
pub mod kernels;
pub mod memo;
pub mod predicate;
pub mod regex;
pub mod selectivity;

pub use attrs::{AttrStore, AttrStoreBuilder, Column, FieldId, TextArena};
pub use bitmap::Bitset;
pub use compiled::{CompiledFilter, CompiledPredicate, CostClass};
pub use filter::{AllPass, BitmapFilter, NodeFilter, PredicateFilter};
pub use memo::{MemoFilter, MemoTable};
pub use predicate::Predicate;
pub use regex::Regex;
pub use selectivity::{estimate_selectivity_seeding_mapped, exact_selectivity, sample_positions};
