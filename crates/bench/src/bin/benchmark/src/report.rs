//! The metric tables (the single source `BENCHMARK.json` mirrors), the
//! report files a run writes, and `compare`.
//!
//! There is no JSON crate offline, so this carries a small value type with
//! a writer and a parser — enough for the files this package writes itself.

use std::fmt::Write as _;
use std::path::Path;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported by every workload, with the relative
/// worsening that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. What `qps`, `p50_us` and `p90_us` time depends
/// on the workload's kind; README.md has the table. The timing bounds are
/// wide because this 2-core VM has minutes-long phases in which everything
/// runs 10–25 % slower (README.md, "Bounds and noise").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "qps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "p90_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "recall_min", unit: "ratio", better: Better::Higher, bound: 0.09 },
    EndToEnd { name: "bytes_per_row", unit: "B", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric of the traced run. `exact` marks counts that repeat
/// exactly on the static workloads: `compare` flags any difference.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `<layer>.<metric>`; layer names are the engine's module names.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a count that repeats exactly run to run.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Layer {
    Layer { name, unit, better, exact }
}

use Better::{Higher as H, Lower as L};

/// The per-layer metrics, grouped by how the traced run obtains them
/// (README.md, "Per-layer metrics", defines each and names the end-to-end
/// metric it should move).
pub const PER_LAYER: [Layer; 66] = [
    // Staged replay of the read path: one pass over every class's templates.
    layer("trace.coverage", "ratio", H, false),
    layer("trace.route_agreement", "ratio", H, true),
    layer("trace.overhead_ratio", "ratio", L, false),
    layer("snapshot.pin_share", "ratio", L, false),
    layer("predicate.compile_share", "ratio", L, false),
    layer("predicate.estimate_share", "ratio", L, false),
    layer("predicate.materialize_share", "ratio", L, false),
    layer("core.prefilter_share", "ratio", L, false),
    layer("core.traverse_share", "ratio", L, false),
    layer("hnsw.merge_k_share", "ratio", L, false),
    layer("snapshot.glue_share", "ratio", L, false),
    layer("core.ndis", "count", L, true),
    layer("core.nhops", "count", L, true),
    layer("predicate.npred_evaluated", "count", L, true),
    layer("predicate.cache_hit_ratio", "ratio", H, true),
    layer("core.fallback_share", "ratio", L, true),
    layer("core.efs_at_recall90", "count", L, true),
    layer("snapshot.segments_per_query", "count", L, true),
    // Direct timing of each layer's public calls, whatever the route.
    layer("snapshot.pin_ns", "ns", L, false),
    layer("predicate.compile_us", "us", L, false),
    layer("predicate.estimate_us", "us", L, false),
    layer("predicate.materialize_us", "us", L, false),
    layer("predicate.eval_ns_per_row", "ns", L, false),
    layer("core.prefilter_us_per_segment", "us", L, false),
    layer("core.traverse_us_per_segment", "us", L, false),
    layer("hnsw.merge_k_us", "us", L, false),
    layer("hnsw.l2_ns_per_dist", "ns", L, false),
    layer("hnsw.sq8_ns_per_dist", "ns", L, false),
    layer("core.build_rows_per_s", "1/s", H, false),
    layer("segment.bulk_load_rows_per_s", "1/s", H, false),
    layer("serialize.save_mb_per_s", "MB/s", H, false),
    layer("serialize.load_mb_per_s", "MB/s", H, false),
    layer("engine.batch_qps_2t", "1/s", H, false),
    layer("engine.scaling_2t", "ratio", H, false),
    // Closed-loop write probe.
    layer("segment.graph_insert_us", "us", L, false),
    layer("segment.publish_us", "us", L, false),
    layer("segment.freeze_ms", "ms", L, false),
    layer("segment.merge_ms", "ms", L, false),
    // Churn probe: the churn window, shortened.
    layer("segment.insert_p50_us", "us", L, false),
    layer("segment.insert_p99_us", "us", L, false),
    layer("segment.insert_us_active_lt256", "us", L, false),
    layer("segment.insert_us_active_ge768", "us", L, false),
    layer("segment.delete_p50_us", "us", L, false),
    layer("segment.writer_lag_p99_us", "us", L, false),
    layer("snapshot.read_p50_us_under_churn", "us", L, false),
    layer("snapshot.read_p90_us_under_churn", "us", L, false),
    layer("segment.merges_completed", "count", H, false),
    layer("segment.segments_end", "count", L, false),
    layer("segment.tombstone_fraction_end", "ratio", L, false),
    layer("segment.maintenance_errors", "count", L, false),
    // Durable probe: the durable window, shortened, plus fsync-off inserts.
    layer("durability.insert_us_always", "us", L, false),
    layer("durability.insert_us_never", "us", L, false),
    layer("durability.fsync_us", "us", L, false),
    layer("durability.wal_overhead_us", "us", L, false),
    layer("durability.wal_bytes_per_op", "B", L, false),
    layer("durability.checkpoint_ms", "ms", L, false),
    layer("durability.checkpoint_bytes", "B", L, false),
    layer("durability.checkpoint_mb_per_s", "MB/s", H, false),
    layer("durability.recovery_ms", "ms", L, false),
    layer("durability.open_snapshot_ms", "ms", L, false),
    layer("durability.replay_us_per_op", "us", L, false),
    layer("durability.bytes_written_per_user_byte", "ratio", L, false),
    layer("durability.disk_bytes_per_row", "B", L, false),
    layer("durability.create_ms", "ms", L, false),
    layer("durability.checkpoints", "count", H, false),
    layer("durability.recoveries", "count", H, false),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize on one line. Numbers keep every digit (`{}` on an `f64`
    /// prints the shortest string that reads back to the same value).
    ///
    /// # Panics
    /// Panics on a non-finite number: a NaN metric is a bug, not a result.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in a report");
                write!(out, "{n}").expect("write to String");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a `String`.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Parse a document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.space();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.space();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.expect(":")?;
                    pairs.push((key, self.value()?));
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self.bytes.get(self.at).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex =
                                self.bytes.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

/// The `metrics` object of a result: `{"name": {"value": v, "unit": "u"}}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// File name of a workload's report inside an output directory.
pub fn report_file(workload: &str, traced: bool) -> String {
    format!("report-{workload}{}.json", if traced { "-trace" } else { "" })
}

fn load_report(dir: &Path, workload: &str, traced: bool) -> Result<Option<Json>, String> {
    let path = dir.join(report_file(workload, traced));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if json.get("scale").and_then(Json::as_str) != Some("full") {
        return Err(format!(
            "{}: not a full-scale result; quick results are for tests only",
            path.display()
        ));
    }
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: the run reported incorrect output", path.display()));
    }
    Ok(Some(json))
}

fn metric_of(report: &Json, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Compare two result directories. Prints, per workload × end-to-end
/// metric, both values, the relative worsening of `b` against `a` and the
/// bound; prints per-layer metrics for information and flags exact counts
/// that differ on static workloads. `Ok(true)` when nothing is beyond its
/// bound.
pub fn compare(
    a: &Path,
    b: &Path,
    static_workloads: &[&str],
    all_workloads: &[&str],
) -> Result<bool, String> {
    let mut ok = true;
    let mut compared = 0;
    for &workload in all_workloads {
        let (Some(ra), Some(rb)) =
            (load_report(a, workload, false)?, load_report(b, workload, false)?)
        else {
            continue;
        };
        compared += 1;
        for side in [&ra, &rb] {
            if side.get("input_digest") != ra.get("input_digest")
                || side.get("seconds") != ra.get("seconds")
            {
                return Err(format!(
                    "{workload}: the two sets ran different inputs or run lengths"
                ));
            }
        }
        println!("{workload}");
        println!("  {:<34} {:>14} {:>14} {:>9} {:>7}", "end-to-end", "a", "b", "worse by", "bound");
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metric_of(&ra, m.name), metric_of(&rb, m.name)) else {
                return Err(format!("{workload}: metric {} missing", m.name));
            };
            let w = worsening(m.better, va, vb);
            let beyond = w > m.bound;
            ok &= !beyond;
            println!(
                "  {:<34} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{}",
                format!("{} [{}, {}]", m.name, m.unit, m.better.name()),
                va,
                vb,
                w * 100.0,
                m.bound * 100.0,
                if beyond { "  REGRESSION" } else { "" }
            );
        }
        let (Some(ta), Some(tb)) =
            (load_report(a, workload, true)?, load_report(b, workload, true)?)
        else {
            continue;
        };
        println!("  {:<34} {:>14} {:>14} {:>9}", "per-layer (no bound)", "a", "b", "worse by");
        for m in PER_LAYER {
            let (Some(va), Some(vb)) = (metric_of(&ta, m.name), metric_of(&tb, m.name)) else {
                return Err(format!("{workload}: metric {} missing", m.name));
            };
            let w = if va == 0.0 { 0.0 } else { worsening(m.better, va, vb) };
            let differs = m.exact && static_workloads.contains(&workload) && va != vb;
            println!(
                "  {:<34} {:>14.4} {:>14.4} {:>+8.2}%{}",
                format!("{} [{}]", m.name, m.unit),
                va,
                vb,
                w * 100.0,
                if differs { "  EXACT COUNT DIFFERS" } else { "" }
            );
        }
    }
    if compared == 0 {
        return Err("no workload has a report in both directories".to_string());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let v = Json::obj([
            ("a", Json::Num(1.2034)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-3e-7)])),
            ("c", Json::str("q\"uo\\te\n")),
            ("d", Json::obj([])),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(
            Json::parse(" { \"x\" : [ 1 , 2 ] } ").unwrap().get("x"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert!(Json::parse("{\"x\":1} trailing").is_err());
        assert!(Json::parse("{\"x\":").is_err());
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 0.1 + 0.2;
        assert_eq!(Json::parse(&Json::Num(x).to_line()).unwrap().as_f64(), Some(x));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repo root is outside this package; when the
    /// package sits in the repo, keep the two in step.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let json = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = json.get(key) else { panic!("{key} missing") };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::as_f64))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (m.name.to_string(), m.unit.to_string(), m.better.name().to_string(), Some(m.bound))
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.name().to_string(), None))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let Some(Json::Arr(workloads)) = json.get("workloads") else { panic!("workloads missing") };
        let got: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str)> =
            crate::inputs::SPECS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(got, want);
        assert!(want.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
