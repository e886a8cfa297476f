//! One run of one workload: set-up, the window (or, traced, the probes),
//! reduction to the contract's metrics, and the report file.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::inputs::{Inputs, Kind, Scale, Spec};
use crate::layers::{self, Fsync};
use crate::measure::{
    calibrate, calibrated, geomean, highest_supported_percentile, median, percentile, Latency,
    Probe, Timed, LADDER, PROBE_REFERENCE_NS,
};
use crate::probes::{self, Values};
use crate::report::{metrics_json, report_file, Json, Metric, END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use crate::workloads::{
    churn_window, durable_window, prepare, recall_at, recall_min, static_window, ClassRun,
    Prepared, ReadSamples, Tally, TempDir, Write, WriteState, DURABLE_CYCLE_OPS, DURABLE_TAIL_OPS,
};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the timed window.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics instead.
    pub trace: bool,
    /// `--quick`: the test-suite scale.
    pub scale: Scale,
    /// `--out`: where reports, span files and store directories go.
    pub out: PathBuf,
}

/// A class's read timings at its operating point.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// Class name.
    pub name: &'static str,
    /// Operating `efs`.
    pub efs: usize,
    /// Recall@10 there, on the index as set up.
    pub recall: f64,
    /// Mean, median and 90th percentile of a read (median chunk,
    /// calibrated).
    pub latency: Latency,
    /// Median wall time of a read, ns, as the clock gave it.
    pub raw_p50_ns: f64,
    /// Median of the probes beside the reads, ns.
    pub probe_ns: f64,
}

/// One result per class that was read.
pub fn reduce_reads(classes: &[ClassRun], samples: &ReadSamples) -> Vec<ClassResult> {
    classes
        .iter()
        .zip(samples)
        .filter(|(_, s)| !s.is_empty())
        .map(|(c, s)| ClassResult {
            name: c.name,
            efs: c.efs,
            recall: c.recall,
            latency: Latency::of(s),
            raw_p50_ns: median(&s.iter().map(|t| t.ns as f64).collect::<Vec<_>>()),
            probe_ns: median(&s.iter().map(|t| t.probe_ns as f64).collect::<Vec<_>>()),
        })
        .collect()
}

/// The finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations issued / failed.
    pub tally: Tally,
    /// The contract's metrics for this trace mode.
    pub metrics: Vec<Metric>,
    /// The whole report, as written to the report file.
    pub report: Json,
}

/// `nproc`, kernel path, filesystem of the output directory, commit.
pub fn environment(out: &Path) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(cores as f64)),
        ("kernel_path", Json::str(layers::kernel_path())),
        ("filesystem", Json::str(filesystem_of(out))),
        ("commit", Json::str(commit())),
    ])
}

/// Filesystem type of the longest mount point containing `path`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_string() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, so this is often `unknown`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or("unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Run one workload.
pub fn run(spec: &'static Spec, opts: &Options) -> io::Result<Outcome> {
    std::fs::create_dir_all(&opts.out)?;
    let t_inputs = Instant::now();
    let inputs = Inputs::generate(spec, opts.seed, opts.scale);
    let inputs_s = t_inputs.elapsed().as_secs_f64();
    let digest_ok = inputs.expected_digest(opts.seed).is_none_or(|want| want == inputs.digest);
    eprintln!(
        "# {} seed {} scale {} trace {}: inputs in {inputs_s:.2} s, input_digest {:016x}{}",
        spec.name,
        opts.seed,
        opts.scale.name(),
        u8::from(opts.trace),
        inputs.digest,
        if digest_ok { "" } else { "  MISMATCH: acorn-data's generators changed" }
    );

    let mut notes: Vec<(&'static str, Json)> = Vec::new();
    let (mut tally, metrics, below_floor) = if opts.trace {
        traced(&inputs, opts, &mut notes)?
    } else {
        untraced(&inputs, opts, &mut notes)?
    };
    if !below_floor.is_empty() {
        eprintln!("# {}: below recall 0.90 at the operating efs: {below_floor:?}", spec.name);
    }
    tally.attempted = tally.attempted.max(1);
    let correct = digest_ok && tally.failed == 0 && below_floor.is_empty();

    let report = Json::Obj(
        [
            ("workload", Json::str(spec.name)),
            ("why", Json::str(spec.why)),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("scale", Json::str(opts.scale.name())),
            ("trace", Json::Bool(opts.trace)),
            ("environment", environment(&opts.out)),
            ("input_digest", Json::str(format!("{:016x}", inputs.digest))),
            ("base_rows", Json::Num(inputs.base_rows as f64)),
            ("segments", Json::Num(spec.segments as f64)),
            ("dim", Json::Num(inputs.dataset.vectors.dim() as f64)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", metrics_json(&metrics)),
        ]
        .into_iter()
        .chain(notes)
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    std::fs::write(opts.out.join(report_file(spec.name, opts.trace)), report.to_line() + "\n")?;
    Ok(Outcome { correct, tally, metrics, report })
}

/// How the end-to-end durable window syncs: not at all. With
/// `FsyncPolicy::Always` a write is 60 % device flush, and on this host the
/// device's flush latency moves tenfold for minutes at a time (median write
/// 0.27 ms in one run, 4.8 ms in the next), which no bound survives and no
/// CPU probe can calibrate. The window therefore times the durability
/// *code* — WAL append, snapshot serialization and write-out, load and
/// replay — and the traced run reports what the device adds
/// (`durability.insert_us_always`, `durability.fsync_us`).
const DURABLE_WINDOW_FSYNC: Fsync = Fsync::Never;

/// Names of the classes whose recall at the operating `efs` is under the floor.
type BelowFloor = Vec<&'static str>;

fn below_floor(classes: &[ClassRun]) -> BelowFloor {
    classes.iter().filter(|c| !c.reaches_floor()).map(|c| c.name).collect()
}

fn classes_json(results: &[ClassResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                Json::obj([
                    ("class", Json::str(r.name)),
                    ("efs", Json::Num(r.efs as f64)),
                    ("recall", Json::Num(r.recall)),
                    ("qps", Json::Num(1e9 / r.latency.mean_ns)),
                    ("p50_us", Json::Num(r.latency.p50_ns / 1e3)),
                    ("p90_us", Json::Num(r.latency.p90_ns / 1e3)),
                    ("raw_p50_us", Json::Num(r.raw_p50_ns / 1e3)),
                    ("probe_us", Json::Num(r.probe_ns / 1e3)),
                    ("samples", Json::Num(r.latency.n as f64)),
                    (
                        "highest_supported_percentile",
                        highest_supported_percentile(r.latency.n).map_or(Json::Null, Json::Num),
                    ),
                ])
            })
            .collect(),
    )
}

/// Median, the usual tails (raw wall time, µs) and the sample count of a
/// latency sample, with the highest percentile the count supports.
fn percentiles_json(samples_ns: &[u64]) -> Json {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let at = |p: f64| Json::Num(percentile(&sorted, p) as f64 / 1e3);
    Json::obj([
        ("samples", Json::Num(sorted.len() as f64)),
        ("p50", at(50.0)),
        ("p75", at(75.0)),
        ("p90", at(90.0)),
        ("p95", at(95.0)),
        ("p99", at(99.0)),
        (
            "highest_supported_percentile",
            highest_supported_percentile(sorted.len()).map_or(Json::Null, Json::Num),
        ),
    ])
}

/// The measured value called `name`, as a contract metric.
///
/// # Panics
/// Panics when a metric of the tables was not measured: a bug here, caught
/// by the `--quick` end-to-end test.
fn metric(values: &[(&'static str, f64)], name: &'static str, unit: &'static str) -> Metric {
    let value =
        values.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("{name} not measured")).1;
    Metric { name, value, unit }
}

fn untraced(
    inputs: &Inputs,
    opts: &Options,
    notes: &mut Vec<(&'static str, Json)>,
) -> io::Result<(Tally, Vec<Metric>, BelowFloor)> {
    let kind = inputs.spec.kind;
    let mut p = prepare(inputs);
    let below = below_floor(&p.classes);
    let mut setup_s = p.setup_s();
    let mut tally = Tally::default();
    // A class under the recall floor is not read; all its reads count as failed.
    for c in p.classes.iter().filter(|c| !c.reaches_floor()) {
        tally.add(Tally { attempted: c.templates.len() as u64, failed: c.templates.len() as u64 });
    }
    let reader = layers::reader(&p.index);

    let (qps, p50_us, p90_us, end, live) = match kind {
        Kind::Static => {
            let (samples, reads) = static_window(&p, opts.seconds);
            tally.add(reads);
            let results = reduce_reads(&p.classes, &samples);
            notes.push(("classes", classes_json(&results)));
            // Geometric means: every class counts equally, whatever its speed.
            let of = |f: fn(&Latency) -> f64| {
                geomean(&results.iter().map(|r| f(&r.latency)).collect::<Vec<_>>())
            };
            if results.is_empty() {
                return Err(io::Error::other("no class reaches recall 0.90 at its operating efs"));
            }
            (
                1e9 / of(|l| l.mean_ns),
                of(|l| l.p50_ns) / 1e3,
                of(|l| l.p90_ns) / 1e3,
                layers::pin(&reader),
                None,
            )
        }
        Kind::Churn => {
            let mut state = WriteState::new(inputs);
            let churn = churn_window(&mut p.index, inputs, &p.classes, &mut state, opts.seconds);
            tally.add(churn.read_tally);
            tally.add(churn.write_tally);
            let results = reduce_reads(&p.classes, &churn.reads);
            notes.push(("classes", classes_json(&results)));
            // Mean read time, classes weighted by their share of the Zipf
            // read stream: what the one closed-loop reader achieves.
            let reads: usize = results.iter().map(|r| r.latency.n).sum();
            let mean_ns: f64 = results
                .iter()
                .map(|r| r.latency.mean_ns * r.latency.n as f64 / reads.max(1) as f64)
                .sum();
            let inserts: Vec<Timed> = churn
                .writes
                .iter()
                .filter(|w| w.insert)
                .map(|w| Timed { ns: w.timing.latency_ns(), probe_ns: w.probe_ns })
                .collect();
            let lat = Latency::over_window(&inserts);
            let raw: Vec<u64> = inserts.iter().map(|t| t.ns).collect();
            notes.push(("insert_latency_us", percentiles_json(&raw)));
            let lag: Vec<u64> = churn.writes.iter().map(|w| w.timing.lag_ns()).collect();
            notes.push(("writer_lag_us", percentiles_json(&lag)));
            let probes: Vec<f64> = inserts.iter().map(|t| t.probe_ns as f64).collect();
            notes.push(("insert_probe_us", Json::Num(median(&probes) / 1e3)));
            let mut values = Values::new();
            let end = layers::pin(&reader);
            probes::churn_values(&churn, &end, &mut values);
            notes.push(("writes", Json::Num(churn.writes.len() as f64)));
            notes.push(("reads", Json::Num(churn.read_tally.attempted as f64)));
            notes.push((
                "window",
                Json::Obj(values.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
            ));
            (
                1e9 / mean_ns.max(1.0),
                lat.p50_ns / 1e3,
                lat.p90_ns / 1e3,
                end,
                Some(state.live().to_vec()),
            )
        }
        Kind::Durable => {
            let dir = TempDir::create(&opts.out, "store")?;
            let mut state = WriteState::new(inputs);
            let (store, _, create_cal_s) = Probe::new()
                .time(|| layers::durable_create(dir.path(), p.index, DURABLE_WINDOW_FSYNC));
            let store = store?;
            setup_s += create_cal_s;
            let (store, out) = durable_window(
                store,
                dir.path(),
                DURABLE_WINDOW_FSYNC,
                inputs,
                &mut state,
                opts.seconds,
            )?;
            tally.add(out.tally);
            if out.cycles.is_empty() {
                return Err(io::Error::other("the window is shorter than one durable cycle"));
            }
            let lat = Latency::over_window(&out.writes);
            // Writes per second of engine time over a whole cycle —
            // checkpoint and recovery included — at the reference speed.
            let cycle_ns: Vec<f64> =
                out.cycles.iter().map(|c| calibrated(c.ns as f64, c.probe_ns as f64)).collect();
            let qps = DURABLE_CYCLE_OPS as f64 * 1e9 / median(&cycle_ns);
            notes.push(("raw_writes_per_s", Json::Num(out.tally.attempted as f64 / out.wall_s)));
            notes.push(("cycles", Json::Num(out.recovery_ms.len() as f64)));
            notes.push(("checkpoint_ms_median", Json::Num(median(&out.checkpoint_ms))));
            notes.push(("recovery_ms_median", Json::Num(median(&out.recovery_ms))));
            notes.push(("wal_bytes_per_op", Json::Num(median(&out.wal_bytes_per_op))));
            // The index went into the store; the checks below read the
            // recovered one.
            let end = layers::durable_snapshot(&store);
            drop(store);
            (qps, lat.p50_ns / 1e3, lat.p90_ns / 1e3, end, Some(state.live().to_vec()))
        }
    };

    let (memory, live_rows, _, _) = layers::shape(&end);
    let recall = recall_min(&end, inputs, &p.classes, live.as_deref());
    let values = [
        ("qps", qps),
        ("p50_us", p50_us),
        ("p90_us", p90_us),
        ("recall_min", recall),
        ("bytes_per_row", memory as f64 / live_rows.max(1) as f64),
        ("setup_s", setup_s),
    ];
    let metrics = END_TO_END.iter().map(|m| metric(&values, m.name, m.unit)).collect();
    notes.push(("build_s", Json::Arr(p.build_s.iter().map(|&s| Json::Num(s)).collect())));
    notes.push(("truth_s", Json::Num(p.truth_s)));
    notes.push(("raw_setup_s", Json::Num(median(&p.build_s) + p.truth_s)));
    notes.push(("probe_reference_ns", Json::Num(PROBE_REFERENCE_NS)));
    Ok((tally, metrics, below))
}

fn traced(
    inputs: &Inputs,
    opts: &Options,
    notes: &mut Vec<(&'static str, Json)>,
) -> io::Result<(Tally, Vec<Metric>, BelowFloor)> {
    let mut p = prepare(inputs);
    let below = below_floor(&p.classes);
    let mut rec = Recorder::new();
    let mut values = Values::new();
    let mut tally = probes::replay_pass(&p, &mut rec, &mut values);
    values.push(("core.efs_at_recall90", ladder_picks(&p, notes)));
    probes::layer_probes(&p, &mut values);

    let mut state = WriteState::new(inputs);
    let (writes, plain_insert_us) =
        probes::write_probe(&mut p.index, inputs, &mut state, &mut values);
    tally.add(writes);

    // The churn and durable windows, a third of the run length each.
    let third = opts.seconds / 3.0;
    let churn = churn_window(&mut p.index, inputs, &p.classes, &mut state, third);
    tally.add(churn.read_tally);
    tally.add(churn.write_tally);
    let reader = layers::reader(&p.index);
    probes::churn_values(&churn, &layers::pin(&reader), &mut values);

    let dir = TempDir::create(&opts.out, "probe")?;
    let t = Instant::now();
    let store = layers::durable_create(dir.path(), p.index, Fsync::Always)?;
    let create_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut store, out) =
        durable_window(store, dir.path(), Fsync::Always, inputs, &mut state, third)?;
    tally.add(out.tally);

    // A clean restart: checkpoint, drop, open with nothing to replay.
    let t = Instant::now();
    layers::checkpoint(&mut store)?;
    let last_checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    let checkpoint_bytes = newest_snapshot_bytes(dir.path());
    let t = Instant::now();
    let mut store = layers::durable_open(dir.path(), Fsync::Never)?;
    let open_snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    // The same inserts without fsync: the difference is what fsync costs.
    let mut never_ns = Vec::new();
    while never_ns.len() < 200 && state.remaining() > 0 {
        if let Write::Insert(row) = state.next_write() {
            let t = Instant::now();
            layers::durable_insert(&mut store, inputs.vector(row))?;
            never_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    let (_, live_rows, _, _) = layers::shape(&layers::durable_snapshot(&store));
    drop(store);

    let checkpoint_ms =
        if out.checkpoint_ms.is_empty() { last_checkpoint_ms } else { median(&out.checkpoint_ms) };
    let recovery_ms =
        if out.recovery_ms.is_empty() { open_snapshot_ms } else { median(&out.recovery_ms) };
    let always_us = probes::p50_us(&out.writes.iter().map(|w| w.ns).collect::<Vec<_>>());
    let never_us = probes::p50_us(&never_ns);
    // `open` after a clean drop loads the snapshot and replays the WAL tail.
    let replay_ms = (recovery_ms - open_snapshot_ms).max(1e-3);
    let checkpoints = out.checkpoint_ms.len() + out.recovery_ms.len();
    values.extend([
        ("durability.insert_us_always", always_us),
        ("durability.insert_us_never", never_us),
        ("durability.fsync_us", always_us - never_us),
        ("durability.wal_overhead_us", never_us - plain_insert_us),
        (
            "durability.wal_bytes_per_op",
            if out.wal_bytes_per_op.is_empty() { 0.0 } else { median(&out.wal_bytes_per_op) },
        ),
        ("durability.checkpoint_ms", checkpoint_ms),
        ("durability.checkpoint_bytes", checkpoint_bytes as f64),
        (
            "durability.checkpoint_mb_per_s",
            checkpoint_bytes as f64 / 1e6 / (last_checkpoint_ms / 1e3),
        ),
        ("durability.recovery_ms", recovery_ms),
        ("durability.open_snapshot_ms", open_snapshot_ms),
        ("durability.replay_us_per_op", replay_ms * 1e3 / DURABLE_TAIL_OPS as f64),
        (
            "durability.bytes_written_per_user_byte",
            (out.wal_bytes + checkpoints as u64 * checkpoint_bytes) as f64
                / out.user_bytes.max(1) as f64,
        ),
        ("durability.disk_bytes_per_row", dir.disk_bytes() as f64 / live_rows.max(1) as f64),
        ("durability.create_ms", create_ms),
        ("durability.checkpoints", out.checkpoint_ms.len() as f64),
        ("durability.recoveries", out.recovery_ms.len() as f64),
    ]);

    let span_file = opts.out.join(format!("trace-{}.jsonl", inputs.spec.name));
    rec.write_jsonl(&span_file)?;
    notes.push(("span_file", Json::str(span_file.display().to_string())));
    notes.push(("spans", Json::Num(rec.spans().len() as f64)));

    let metrics = PER_LAYER.iter().map(|m| metric(&values, m.name, m.unit)).collect();
    Ok((tally, metrics, below))
}

/// Where on the ladder each class reaches recall 0.90 today: the geometric
/// mean over classes, with the per-class picks in the report. A pick under
/// a class's fixed operating `efs` means a cheaper operating point exists
/// (README.md, "Operating points", on re-picking).
fn ladder_picks(p: &Prepared, notes: &mut Vec<(&'static str, Json)>) -> f64 {
    let snap = layers::pin(&layers::reader(&p.index));
    let mut scratch = layers::scratch_for(&snap);
    let top = LADDER[LADDER.len() - 1];
    let mut picks = Vec::new();
    let mut rows = Vec::new();
    for c in &p.classes {
        let pick = calibrate(|efs| {
            recall_at(&snap, c.templates, &c.truth, p.inputs.base_attrs(), efs, &mut scratch)
        });
        picks.push(pick.map_or(2 * top, |pt| pt.efs) as f64);
        rows.push(Json::obj([
            ("class", Json::str(c.name)),
            ("operating_efs", Json::Num(c.efs as f64)),
            ("recall_at_operating_efs", Json::Num(c.recall)),
            ("ladder_efs", pick.map_or(Json::Null, |pt| Json::Num(pt.efs as f64))),
            ("recall_at_ladder_efs", pick.map_or(Json::Null, |pt| Json::Num(pt.recall))),
        ]));
    }
    notes.push(("ladder", Json::Arr(rows)));
    geomean(&picks)
}

/// Size of the highest-generation `snap-*.acorn` in a store directory.
fn newest_snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("snap-") && name.ends_with(".acorn")
                })
                .max_by_key(std::fs::DirEntry::file_name)
                .and_then(|e| e.metadata().ok())
                .map_or(0, |m| m.len())
        })
        .unwrap_or(0)
}
