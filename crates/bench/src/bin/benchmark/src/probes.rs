//! The traced run's measurements: the staged replay pass over the read
//! path, direct timing of each layer's public calls, and the closed-loop
//! write probe. (The churn and durable probes are the windows of
//! `workloads.rs`, shortened.) Every workload runs all of them on its own
//! corpus and index, so every per-layer metric exists for every workload.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Inputs;
use crate::layers::{self, SegmentSnapshot, SegmentedAcornIndex};
use crate::measure::{median, percentile, Latency, Timed};
use crate::stages::{staged_search, STAGES};
use crate::trace::Recorder;
use crate::workloads::{policy, verify, ChurnOut, Prepared, Tally, Write, WriteSample, WriteState};

/// Templates per class the direct probes time (the replay pass uses all).
const PROBE_TEMPLATES: usize = 32;

/// Named values, appended to as the traced run proceeds.
pub type Values = Vec<(&'static str, f64)>;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn mean_ns(total: std::time::Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// The staged replay pass: every template of every class once through the
/// engine and once through [`staged_search`], interleaved, at the class's
/// operating `efs`, on the index as set up. Counts here repeat
/// exactly for a given seed.
pub fn replay_pass(p: &Prepared, rec: &mut Recorder, out: &mut Values) -> Tally {
    let reader = layers::reader(&p.index);
    let attrs = p.inputs.base_attrs();
    let mut scratch = layers::scratch_for(&layers::pin(&reader));
    let mut tally = Tally::default();
    let (mut engine_ns, mut staged_ns) = (0u64, 0u64);
    let (mut queries, mut agree, mut segments, mut prefiltered) = (0u64, 0u64, 0u64, 0u64);
    let mut stats = layers::SearchStats::default();
    for c in &p.classes {
        if !c.reaches_floor() {
            continue;
        }
        for q in c.templates {
            // Whichever runs second finds the query's neighbourhood in
            // cache, so the order alternates.
            let mut engine = None;
            let mut staged = None;
            for staged_turn in [queries % 2 == 1, queries % 2 == 0] {
                let t = Instant::now();
                if staged_turn {
                    staged = Some(staged_search(
                        rec,
                        queries as u32,
                        &reader,
                        q,
                        attrs,
                        c.efs,
                        &mut scratch,
                    ));
                    staged_ns += t.elapsed().as_nanos() as u64;
                } else {
                    let snap = layers::pin(&reader);
                    let (hits, st) = layers::hybrid_search(
                        &snap,
                        &q.vector,
                        &q.predicate,
                        attrs,
                        c.efs,
                        &mut scratch,
                    );
                    engine_ns += t.elapsed().as_nanos() as u64;
                    tally.attempted += 1;
                    if !verify(&snap, &hits, q, attrs) {
                        tally.failed += 1;
                    }
                    stats.merge(&st);
                    engine = Some(hits);
                }
            }
            let (hits, staged) =
                (engine.expect("engine turn ran"), staged.expect("staged turn ran"));
            queries += 1;
            agree += u64::from(staged.hits.iter().map(|n| n.id).eq(hits.iter().map(|n| n.id)));
            segments += staged.segments as u64;
            prefiltered += staged.prefiltered as u64;
        }
    }
    let nq = queries.max(1) as f64;
    let engine = engine_ns.max(1) as f64;
    let share = |name: &str| rec.total_ns(name) as f64 / engine;
    let coverage: f64 = STAGES.iter().map(|s| share(s)).sum();
    out.extend([
        ("trace.coverage", coverage),
        ("trace.route_agreement", agree as f64 / nq),
        ("trace.overhead_ratio", staged_ns as f64 / engine),
        ("snapshot.pin_share", share("snapshot.pin")),
        ("predicate.compile_share", share("predicate.compile")),
        ("predicate.estimate_share", share("predicate.estimate")),
        ("predicate.materialize_share", share("predicate.materialize")),
        ("core.prefilter_share", share("core.prefilter")),
        ("core.traverse_share", share("core.traverse")),
        ("hnsw.merge_k_share", share("hnsw.merge_k")),
        ("snapshot.glue_share", 1.0 - coverage),
        ("core.ndis", stats.ndis as f64 / nq),
        ("core.nhops", stats.nhops as f64 / nq),
        ("predicate.npred_evaluated", stats.npred_evaluated() as f64 / nq),
        ("predicate.cache_hit_ratio", stats.npred_cached as f64 / stats.npred.max(1) as f64),
        ("core.fallback_share", prefiltered as f64 / segments.max(1) as f64),
        ("snapshot.segments_per_query", segments as f64 / nq),
    ]);
    tally
}

/// Time each layer's public calls directly, whatever route the router
/// would take, on the first [`PROBE_TEMPLATES`] templates of every class.
pub fn layer_probes(p: &Prepared, out: &mut Values) {
    let reader = layers::reader(&p.index);
    let attrs = p.inputs.base_attrs();
    let snap = layers::pin(&reader);
    let mut scratch = layers::scratch_for(&snap);
    let segs: Vec<_> = layers::segments(&snap).collect();

    const PINS: usize = 20_000;
    let t = Instant::now();
    for _ in 0..PINS {
        black_box(layers::pin(&reader));
    }
    out.push(("snapshot.pin_ns", mean_ns(t.elapsed(), PINS)));

    let mut compile = std::time::Duration::ZERO;
    let mut estimate = std::time::Duration::ZERO;
    let mut materialize = std::time::Duration::ZERO;
    let mut eval = std::time::Duration::ZERO;
    let mut prefilter = std::time::Duration::ZERO;
    let mut traverse = std::time::Duration::ZERO;
    let mut merge_k = std::time::Duration::ZERO;
    let (mut n_templates, mut n_segments, mut n_evals) = (0usize, 0usize, 0usize);
    const COMPILES: usize = 16;
    const MERGES: usize = 16;
    let eval_rows = attrs.len().min(4_096) as u32;
    for c in &p.classes {
        for q in c.templates.iter().take(PROBE_TEMPLATES) {
            n_templates += 1;
            let t = Instant::now();
            for _ in 0..COMPILES {
                black_box(layers::compile(black_box(&q.predicate)));
            }
            compile += t.elapsed();
            let compiled = layers::compile(&q.predicate);

            let t = Instant::now();
            let bits = layers::materialize(&compiled, attrs);
            materialize += t.elapsed();

            let t = Instant::now();
            for row in 0..eval_rows {
                black_box(layers::eval(&compiled, attrs, row));
            }
            eval += t.elapsed();
            n_evals += eval_rows as usize;

            let mut stats = layers::SearchStats::default();
            let mut lists = Vec::with_capacity(segs.len());
            for seg in &segs {
                n_segments += 1;
                let memo = scratch.take_memo(seg.rows());
                let t = Instant::now();
                black_box(layers::estimate(attrs, &compiled, seg, &memo));
                estimate += t.elapsed();
                scratch.put_memo(memo);

                let t = Instant::now();
                black_box(layers::prefilter(seg, &q.vector, &bits, &mut stats));
                prefilter += t.elapsed();

                let t = Instant::now();
                lists.push(layers::traverse_bits(
                    seg,
                    &q.vector,
                    &bits,
                    c.efs,
                    &mut scratch,
                    &mut stats,
                ));
                traverse += t.elapsed();
            }
            let t = Instant::now();
            for _ in 0..MERGES {
                black_box(layers::merge_k(black_box(&lists)));
            }
            merge_k += t.elapsed();
        }
    }
    out.extend([
        ("predicate.compile_us", us(mean_ns(compile, n_templates * COMPILES))),
        ("predicate.estimate_us", us(mean_ns(estimate, n_segments))),
        ("predicate.materialize_us", us(mean_ns(materialize, n_templates))),
        ("predicate.eval_ns_per_row", mean_ns(eval, n_evals)),
        ("core.prefilter_us_per_segment", us(mean_ns(prefilter, n_segments))),
        ("core.traverse_us_per_segment", us(mean_ns(traverse, n_segments))),
        ("hnsw.merge_k_us", us(mean_ns(merge_k, n_templates * MERGES))),
    ]);

    // Distance kernels at this workload's dimension, over one chunk.
    let chunk = p.inputs.base_chunks().swap_remove(0);
    let rows = chunk.len().min(4_096);
    let ids: Vec<u32> = (0..rows as u32).collect();
    let queries: Vec<&[f32]> =
        p.classes[0].templates.iter().take(PROBE_TEMPLATES).map(|q| q.vector.as_slice()).collect();
    let mut dists = Vec::new();
    let t = Instant::now();
    for q in &queries {
        layers::l2_batch(&chunk, q, &ids, &mut dists);
        black_box(&dists);
    }
    out.push(("hnsw.l2_ns_per_dist", mean_ns(t.elapsed(), rows * queries.len())));
    let sq8 = layers::sq8_train(&chunk);
    let t = Instant::now();
    for q in &queries {
        for &row in &ids {
            black_box(layers::sq8_l2(&sq8, row, q));
        }
    }
    out.push(("hnsw.sq8_ns_per_dist", mean_ns(t.elapsed(), rows * queries.len())));

    // Graph construction alone, on the head of one chunk.
    let head_rows = chunk.len().min(2_048);
    let dim = chunk.dim();
    let head = layers::VectorStore::from_flat(dim, chunk.as_flat()[..head_rows * dim].to_vec());
    let t = Instant::now();
    black_box(layers::build_graph(head));
    out.push(("core.build_rows_per_s", head_rows as f64 / t.elapsed().as_secs_f64()));
    out.push(("segment.bulk_load_rows_per_s", p.inputs.base_rows as f64 / median(&p.build_s)));

    // Snapshot bytes to and from memory.
    let t = Instant::now();
    let bytes = layers::save(&snap).expect("saving to memory cannot fail");
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(layers::load(&bytes).expect("a snapshot just saved loads"));
    let load_s = t.elapsed().as_secs_f64();
    let mb = bytes.len() as f64 / 1e6;
    out.extend([
        ("serialize.save_mb_per_s", mb / save_s),
        ("serialize.load_mb_per_s", mb / load_s),
    ]);

    // Batch engine on one and two threads (this box has two cores; the
    // result line carries the core count).
    let batch_class = &p.classes[0];
    let batch: Vec<(&[f32], &layers::Predicate)> =
        batch_class.templates.iter().map(|q| (q.vector.as_slice(), &q.predicate)).collect();
    let one = layers::batch_qps(&reader, &batch, attrs, batch_class.efs, 1);
    let two = layers::batch_qps(&reader, &batch, attrs, batch_class.efs, 2);
    out.extend([("engine.batch_qps_2t", two), ("engine.scaling_2t", two / one)]);
}

/// Closed-loop write probe, consuming script ops: two rounds of inserts
/// (with the script's deletes mixed in) each sealed by an explicit
/// `freeze()`, then one foreground `merge()` of the two small segments; a
/// twin graph receives the same vectors through `insert_vector` alone, so
/// the difference is what publication costs. Returns the tally and the mean
/// `SegmentedAcornIndex::insert` time, µs.
pub fn write_probe(
    index: &mut SegmentedAcornIndex,
    inputs: &Inputs,
    state: &mut WriteState,
    out: &mut Values,
) -> (Tally, f64) {
    let round_inserts = (policy(inputs.scale).active_max_rows * 3 / 8).max(8);
    let mut tally = Tally::default();
    let mut twin = layers::empty_graph(inputs.dataset.vectors.dim());
    let (mut segment_ns, mut graph_ns, mut inserts) = (0u64, 0u64, 0usize);
    let mut freeze_ms = Vec::new();
    for _ in 0..2 {
        let mut done = 0;
        while done < round_inserts && state.remaining() > 0 {
            tally.attempted += 1;
            match state.next_write() {
                Write::Insert(row) => {
                    let v = inputs.vector(row);
                    let t = Instant::now();
                    let gid = layers::insert(index, v);
                    segment_ns += t.elapsed().as_nanos() as u64;
                    if gid != u64::from(row) {
                        tally.failed += 1;
                    }
                    let t = Instant::now();
                    layers::graph_insert(&mut twin, v);
                    graph_ns += t.elapsed().as_nanos() as u64;
                    done += 1;
                    inserts += 1;
                }
                Write::Delete(gid) => {
                    if !layers::delete(index, gid) {
                        tally.failed += 1;
                    }
                }
            }
        }
        let t = Instant::now();
        layers::freeze(index);
        freeze_ms.push(t.elapsed().as_secs_f64() * 1e3);
        twin = layers::empty_graph(inputs.dataset.vectors.dim());
    }
    let t = Instant::now();
    layers::merge(index);
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    let segment_us = us(segment_ns as f64 / inserts.max(1) as f64);
    let graph_us = us(graph_ns as f64 / inserts.max(1) as f64);
    out.extend([
        ("segment.graph_insert_us", graph_us),
        ("segment.publish_us", segment_us - graph_us),
        ("segment.freeze_ms", median(&freeze_ms)),
        ("segment.merge_ms", merge_ms),
    ]);
    (tally, segment_us)
}

/// Per-layer values of a churn window.
pub fn churn_values(churn: &ChurnOut, end: &SegmentSnapshot, out: &mut Values) {
    let service = |keep: &dyn Fn(&WriteSample) -> bool| -> Vec<u64> {
        churn.writes.iter().filter(|w| keep(w)).map(|w| w.timing.service_ns()).collect()
    };
    let mean_us = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            us(v.iter().sum::<u64>() as f64 / v.len() as f64)
        }
    };
    let pct_us = |v: &mut Vec<u64>, p: f64| {
        v.sort_unstable();
        if v.is_empty() {
            0.0
        } else {
            us(percentile(v, p) as f64)
        }
    };
    let mut inserts = service(&|w| w.insert);
    let mut deletes = service(&|w| !w.insert);
    let mut lag: Vec<u64> = churn.writes.iter().map(|w| w.timing.lag_ns()).collect();
    let mut reads: Vec<u64> = churn.reads.iter().flatten().map(|t| t.ns).collect();
    // Quarters of the freeze cycle (the active segment seals at 1,024 rows
    // at full scale, hence the metric names).
    let active_max = churn.writes.iter().map(|w| w.active_before).max().unwrap_or(0).max(4);
    let (_, live, total, segments) = layers::shape(end);
    out.extend([
        ("segment.insert_p50_us", pct_us(&mut inserts, 50.0)),
        ("segment.insert_p99_us", pct_us(&mut inserts, 99.0)),
        (
            "segment.insert_us_active_lt256",
            mean_us(&service(&|w| w.insert && w.active_before < active_max / 4)),
        ),
        (
            "segment.insert_us_active_ge768",
            mean_us(&service(&|w| w.insert && w.active_before >= active_max / 4 * 3)),
        ),
        ("segment.delete_p50_us", pct_us(&mut deletes, 50.0)),
        ("segment.writer_lag_p99_us", pct_us(&mut lag, 99.0)),
        ("snapshot.read_p50_us_under_churn", pct_us(&mut reads, 50.0)),
        ("snapshot.read_p90_us_under_churn", pct_us(&mut reads, 90.0)),
        ("segment.merges_completed", churn.merges_completed as f64),
        ("segment.segments_end", segments as f64),
        ("segment.tombstone_fraction_end", (total - live) as f64 / total.max(1) as f64),
        ("segment.maintenance_errors", churn.maintenance_errors as f64),
    ]);
}

/// Median latency of a sample, µs (0 when empty).
pub fn p50_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        us(Latency::of(&samples.iter().map(|&ns| Timed::raw(ns)).collect::<Vec<_>>()).p50_ns)
    }
}
