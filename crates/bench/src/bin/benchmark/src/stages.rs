//! The staged replay: a measuring copy of the §5.2 router, built only from
//! the public per-layer calls in `layers.rs`, with a span around each.
//!
//! It exists because the engine has no tracing of its own yet (ROADMAP
//! item 1). It must never be trusted over the engine: later changes may
//! re-route queries and cannot edit this directory, so a disagreement is
//! reported as `trace.route_agreement < 1`, never as a failure.

use acorn_data::HybridQuery;

use crate::layers::{self, AttrStore, GlobalNeighbor, IndexReader, SearchScratch, SearchStats};
use crate::trace::{Recorder, NO_PARENT};

/// Span names of the read path, in pipeline order.
pub const STAGES: [&str; 7] = [
    "snapshot.pin",
    "predicate.compile",
    "predicate.estimate",
    "predicate.materialize",
    "core.prefilter",
    "core.traverse",
    "hnsw.merge_k",
];

/// What one staged query did.
#[derive(Debug)]
pub struct Staged {
    /// The merged top-k.
    pub hits: Vec<GlobalNeighbor>,
    /// Segments visited.
    pub segments: usize,
    /// Segments answered by the pre-filter scan.
    pub prefiltered: usize,
}

/// Answer one hybrid query stage by stage: pin → compile → per segment
/// estimate, materialize once when first needed, pre-filter scan or graph
/// traversal → k-way merge.
pub fn staged_search(
    rec: &mut Recorder,
    qid: u32,
    reader: &IndexReader,
    q: &HybridQuery,
    attrs: &AttrStore,
    efs: usize,
    scratch: &mut SearchScratch,
) -> Staged {
    let root = rec.open("query", NO_PARENT, qid);
    let snap = rec.time("snapshot.pin", root, qid, || layers::pin(reader));
    let compiled = rec.time("predicate.compile", root, qid, || layers::compile(&q.predicate));
    let mut stats = SearchStats::default();
    let mut bits = None;
    let mut lists = Vec::new();
    let mut prefiltered = 0;
    for seg in layers::segments(&snap) {
        let memo = scratch.take_memo(seg.rows());
        let est = rec.time("predicate.estimate", root, qid, || {
            layers::estimate(attrs, &compiled, seg, &memo)
        });
        let scan = est < layers::s_min(seg);
        let materialize =
            scan || layers::is_expensive(&compiled) || est < layers::materialize_below();
        if materialize && bits.is_none() {
            bits = Some(rec.time("predicate.materialize", root, qid, || {
                layers::materialize(&compiled, attrs)
            }));
        }
        let list = match &bits {
            Some(bits) if scan => {
                prefiltered += 1;
                scratch.put_memo(memo);
                rec.time("core.prefilter", root, qid, || {
                    layers::prefilter(seg, &q.vector, bits, &mut stats)
                })
            }
            Some(bits) if materialize => {
                scratch.put_memo(memo);
                rec.time("core.traverse", root, qid, || {
                    layers::traverse_bits(seg, &q.vector, bits, efs, scratch, &mut stats)
                })
            }
            _ => {
                let (list, memo) = rec.time("core.traverse", root, qid, || {
                    layers::traverse_lazy(
                        seg, &q.vector, attrs, &compiled, memo, efs, scratch, &mut stats,
                    )
                });
                scratch.put_memo(memo);
                list
            }
        };
        lists.push(list);
    }
    let hits = rec.time("hnsw.merge_k", root, qid, || layers::merge_k(&lists));
    rec.close(root);
    Staged { hits, segments: lists.len(), prefiltered }
}
