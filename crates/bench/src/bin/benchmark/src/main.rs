//! The repo benchmark: QPS at recall 0.90 across router regimes, churn and
//! durability, with a per-layer traced mode. See README.md beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
//! benchmark compare <dir-a> <dir-b>
//! benchmark selfcheck [--seed N] [--seconds S] [--out DIR]
//! ```
//!
//! The last line on standard output of a single-workload run is the result
//! object the driver reads; everything above it is for people.

#![warn(missing_docs)]

mod inputs;
mod layers;
mod measure;
mod probes;
mod report;
mod run;
mod stages;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::{Kind, Scale, Spec, DEFAULT_SEED, SPECS};
use report::{metrics_json, Json};
use run::{Options, Outcome};

const USAGE: &str = "usage: benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
       benchmark compare <dir-a> <dir-b>
       benchmark selfcheck [--seed N] [--seconds S] [--out DIR]";

/// Run length when `--seconds` is absent (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workloads: Vec<&'static Spec>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: SPECS.iter().collect(),
        opts: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: Scale::Full,
            out: PathBuf::from("target/benchmark"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    cli.workloads = vec![inputs::spec(name).ok_or_else(|| {
                        format!("unknown workload `{name}`; one of {names:?} or all")
                    })?];
                }
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => cli.opts.out = PathBuf::from(value()?),
            "--quick" => cli.opts.scale = Scale::Quick,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
    .to_line()
}

fn print_outcome(spec: &Spec, opts: &Options, outcome: &Outcome) {
    println!(
        "== {} (seed {}, {} s, scale {}, {}) environment {}",
        spec.name,
        opts.seed,
        opts.seconds,
        opts.scale.name(),
        if opts.trace { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" },
        outcome.report.get("environment").map_or_else(String::new, Json::to_line),
    );
    if let Some(Json::Arr(classes)) = outcome.report.get("classes") {
        for c in classes {
            println!("   class {}", c.to_line());
        }
    }
    for m in &outcome.metrics {
        println!("   {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "   ops attempted {}  failed {}  correct {}",
        outcome.tally.attempted, outcome.tally.failed, outcome.correct
    );
}

/// Run each workload in turn; `Ok(true)` when all were correct.
fn run_all(workloads: &[&'static Spec], opts: &Options) -> std::io::Result<bool> {
    let mut all_correct = true;
    for spec in workloads {
        let outcome = run::run(spec, opts)?;
        print_outcome(spec, opts, &outcome);
        // Last, so that a single-workload run ends on the result object.
        println!("{}", result_line(&outcome));
        all_correct &= outcome.correct;
    }
    Ok(all_correct)
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let all: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let statics: Vec<&str> =
        SPECS.iter().filter(|s| s.kind == Kind::Static).map(|s| s.name).collect();
    report::compare(a, b, &statics, &all)
}

/// Two full sets of runs (untraced and traced) of this build, compared
/// against the benchmark's own bounds.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let mut dirs = Vec::new();
    for set in ["selfcheck-a", "selfcheck-b"] {
        let out = cli.opts.out.join(set);
        for trace in [false, true] {
            let opts = Options { out: out.clone(), trace, ..cli.opts.clone() };
            if !run_all(&cli.workloads, &opts).map_err(|e| e.to_string())? {
                return Err(format!("{set}: a workload reported incorrect output"));
            }
        }
        dirs.push(out);
    }
    compare(&dirs[0], &dirs[1])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        Some("selfcheck") => parse(&args[1..]).and_then(|cli| selfcheck(&cli)),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse(&args)
            .and_then(|cli| run_all(&cli.workloads, &cli.opts).map_err(|e| e.to_string())),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&strings(&[
            "--workload",
            "churn-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "churn-mixed");
        assert_eq!((cli.opts.seed, cli.opts.seconds, cli.opts.trace), (7, 10.0, true));
        assert_eq!(parse(&[]).unwrap().workloads.len(), SPECS.len());
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--trace", "2"])).is_err());
        assert!(parse(&strings(&["--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--seed"])).is_err());
    }

    /// One quick end-to-end pass over every workload, untraced and traced:
    /// every contract metric is present and finite, nothing fails, the
    /// output is tagged `quick`, and `compare` refuses it.
    #[test]
    fn quick_end_to_end() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-quick-{}", std::process::id()));
        for trace in [false, true] {
            let opts =
                Options { seed: 5, seconds: 0.6, trace, scale: Scale::Quick, out: out.clone() };
            for spec in &SPECS {
                let outcome = run::run(spec, &opts).unwrap();
                assert!(
                    outcome.correct,
                    "{} trace {trace}: {}",
                    spec.name,
                    outcome.report.to_line()
                );
                assert_eq!(outcome.tally.failed, 0);
                let want: Vec<&str> = if trace {
                    report::PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    report::END_TO_END.iter().map(|m| m.name).collect()
                };
                let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                assert_eq!(got, want);
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{} {}", spec.name, m.name);
                    if !trace {
                        assert!(m.value > 0.0, "{} {} = {}", spec.name, m.name, m.value);
                    }
                }
                let line = result_line(&outcome);
                let parsed = Json::parse(&line).unwrap();
                let Json::Obj(keys) = &parsed else { panic!("not an object") };
                let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(outcome.report.get("scale"), Some(&Json::str("quick")));
            }
        }
        assert!(out.join("trace-bands-graph.jsonl").exists());
        // No store directory is left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let refused = compare(&out, &out).unwrap_err();
        assert!(refused.contains("quick"), "{refused}");
        std::fs::remove_dir_all(&out).unwrap();
    }
}
