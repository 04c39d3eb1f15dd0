//! The SEBDB end-to-end benchmark.
//!
//! ```text
//! sebdb-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--strict]
//! sebdb-benchmark compare A B        # A, B: directories of result files
//! sebdb-benchmark check-schema DIR   # every BENCHMARK.json metric present in DIR
//! ```
//!
//! A run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks every output against the oracle, writes
//! `benchmark/out/<workload>.json` (and `<workload>.trace.json` when
//! traced) and prints, as the last line of standard output, one JSON
//! object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics untraced, the per-layer metrics traced. `correct` says that
//! every output matched the oracle; conditions that only a busy host
//! brings about (a growing paced backlog, trace coverage out of band)
//! are listed as `warnings` in the result file and on standard error,
//! and count against `correct` only under `--strict`.

mod compare;
mod engine;
mod env;
mod gen;
mod hist;
mod json;
mod load;
mod oracle;
mod queries;
mod trace;
mod workloads;

use json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Metric;

/// Where results and scratch stores go, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";
/// Attempts at a quiet run when nobody fixed the run length.
const MAX_ATTEMPTS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    strict: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        strict: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be within 1..=60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--strict" => args.strict = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::from(m.value)),
                    ("unit".to_string(), Json::from(m.unit)),
                ];
                if with_samples {
                    fields.push(("samples".to_string(), m.samples.into()));
                }
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    detail: Json,
    noisy: bool,
}

fn run_once(plan: &workloads::Plan, args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut calib = env::Calibration::default();
    calib.point();
    let (correct, warnings, attempted, failed, metrics, mut detail) = if args.trace {
        let t = trace::run(plan, args.seed, work, &mut calib)?;
        let spans = Path::new(OUT_DIR).join(format!("{}.trace.json", plan.name));
        std::fs::write(&spans, t.spans.to_pretty()).map_err(|e| e.to_string())?;
        (
            t.violations.is_empty(),
            t.warnings,
            t.attempted,
            t.failed,
            t.metrics,
            vec![
                ("violations", strings(&t.violations)),
                ("exact", strings(&t.exact)),
                ("span_file", spans.display().to_string().into()),
            ],
        )
    } else {
        let setups = if args.smoke { 1 } else { 3 };
        let r = workloads::run(plan, args.seed, work, setups, &mut calib)?;
        (
            r.violations.is_empty() && r.failed() == 0,
            r.warnings.clone(),
            r.attempted(),
            r.failed(),
            r.end_to_end(),
            vec![
                ("violations", strings(&r.violations)),
                ("read_failures", strings(&r.reads.failures)),
                ("height", r.height.into()),
                ("read_rounds", r.reads.rounds.len().into()),
                ("unbounded", metrics_json(&r.unbounded(), true)),
                ("per_round_p50_us", r.per_round()),
                ("setups_s", floats(&r.setups)),
                ("segment_tps", floats(&r.segment_tps)),
                ("reopen_s", floats(&r.reopen_s)),
                (
                    "paced",
                    obj([
                        ("rate_tps", r.paced.rate.into()),
                        ("txs", r.paced.outcomes.attempted.into()),
                        ("in_flight_mid", r.paced.in_flight_mid.into()),
                        ("in_flight_end", r.paced.in_flight_end.into()),
                    ]),
                ),
                (
                    "writes",
                    obj([
                        ("attempted", r.writes.attempted.into()),
                        ("applied", r.writes.applied.into()),
                        ("failed", r.writes.failed.into()),
                        ("forged_refused", r.writes.forged_refused.into()),
                        ("forged_accepted", r.writes.forged_accepted.into()),
                    ]),
                ),
                (
                    "engine",
                    Json::Obj(
                        r.engine
                            .iter()
                            .map(|(k, v)| (k.to_string(), (*v).into()))
                            .collect(),
                    ),
                ),
            ],
        )
    };
    calib.point();
    detail.push(("host", calib.record()));
    detail.push(("warnings", strings(&warnings)));
    for w in &warnings {
        eprintln!("{}: warning: {w}", plan.name);
    }
    Ok(Outcome {
        correct: correct && (warnings.is_empty() || !args.strict),
        attempted,
        failed,
        metrics,
        detail: obj(detail),
        noisy: calib.noisy(),
    })
}

fn strings(v: &[String]) -> Json {
    Json::Arr(v.iter().map(|s| s.as_str().into()).collect())
}

fn floats(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&f| f.into()).collect())
}

/// Runs one workload (re-running a noisy one when the run length was
/// not fixed by the caller), writes its result file and prints its
/// result line. Returns whether it was correct.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { 10.0 });
    let size = if args.smoke { 0.02 } else { 1.0 };
    let plan = workloads::plan(name, seconds, size)
        .ok_or_else(|| format!("unknown workload '{name}' (have {:?})", workloads::NAMES))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let work: PathBuf = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));

    // The driver fixes --seconds and cannot afford repeats inside its
    // time cap; it sees `noisy` in the result file instead. A smoke run
    // checks that things work, not what they cost.
    let max_attempts = if args.seconds.is_some() || args.smoke {
        1
    } else {
        MAX_ATTEMPTS
    };
    let mut attempts = 0;
    let outcome = loop {
        attempts += 1;
        let outcome = run_once(&plan, args, &work);
        let _ = std::fs::remove_dir_all(&work);
        let outcome = outcome?;
        if !outcome.noisy || attempts == max_attempts {
            break outcome;
        }
        eprintln!("{name}: host calibration moved more than 15 %, running again");
    };

    if let Some(m) = outcome.metrics.iter().find(|m| m.value.is_none()) {
        return Err(format!(
            "{name}: metric {} has only {} samples, too few for its percentile",
            m.name, m.samples
        ));
    }

    let mode = if args.trace { "trace" } else { "e2e" };
    let file = obj([
        ("workload", name.into()),
        ("mode", mode.into()),
        ("seed", args.seed.into()),
        ("seconds", seconds.into()),
        ("smoke", args.smoke.into()),
        ("commit", env::commit().into()),
        ("attempts", attempts.into()),
        ("noisy", outcome.noisy.into()),
        ("correct", outcome.correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics_json(&outcome.metrics, true)),
        (
            "environment",
            obj([
                ("cpus", env::cpus().into()),
                ("sebdb_env_unset", true.into()),
                (
                    "flush_policy",
                    "sync_writes=false (no fsync per block)".into(),
                ),
            ]),
        ),
        ("plan", plan.record()),
        ("detail", outcome.detail),
    ]);
    let suffix = if args.trace { ".layers" } else { "" };
    let path = Path::new(OUT_DIR).join(format!("{name}{suffix}.json"));
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    eprintln!(
        "== {name} ({mode}, seed {}, {seconds} s{}) -> {}",
        args.seed,
        if outcome.noisy { ", NOISY" } else { "" },
        path.display()
    );
    for m in &outcome.metrics {
        eprintln!(
            "{:<36} {:>16.4} {:<6} n={}",
            m.name,
            m.value.unwrap_or(f64::NAN),
            m.unit,
            m.samples
        );
    }
    println!(
        "{}",
        obj([
            ("correct", outcome.correct.into()),
            ("attempted", outcome.attempted.into()),
            ("failed", outcome.failed.into()),
            ("metrics", metrics_json(&outcome.metrics, false)),
        ])
        .to_line()
    );
    Ok(outcome.correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: compare A B".into());
            };
            return match compare::compare(Path::new(a), Path::new(b))? {
                true => Ok(true),
                false => Err("a metric regressed".into()),
            };
        }
        Some("check-schema") => {
            let [_, dir] = argv.as_slice() else {
                return Err("usage: check-schema DIR".into());
            };
            return match compare::check_schema(Path::new(dir))? {
                true => Ok(true),
                false => Err("result files do not match BENCHMARK.json".into()),
            };
        }
        _ => {}
    }
    let args = parse_args(&argv)?;
    let set = env::sebdb_env_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with engine knobs set: {}",
            set.join(", ")
        ));
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        all_correct &= run_workload(name, &args)?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // The result line already says `"correct": false`; the exit
        // code reports whether a result was produced at all.
        Ok(false) => {
            eprintln!("benchmark: a check failed (see the result file)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
