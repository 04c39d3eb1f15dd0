//! `compare A B` and `check-schema DIR`: both read the contract
//! (`BENCHMARK.json` in the current directory) and result files.
//!
//! `compare` takes two directories of result files — each file one
//! untraced run, any number per workload — and prints one row per
//! workload × end-to-end metric: the two medians, how much worse B's is
//! in the metric's own direction, each side's quartile spread, and
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a side's spread is wider than the bound, so the
//!   medians cannot be told apart (unless every run of B reads better
//!   than every run of A, which no spread can explain away);
//! * `ok` — otherwise.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

struct Contract {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn load_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text)?;
    let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no '{key}' array"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("BENCHMARK.json: {key} entry without '{f}'"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no 'workloads' array")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    Ok(Contract {
        workloads,
        end_to_end: specs("end_to_end")?,
        per_layer: specs("per_layer")?,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so the spread printed here is the one
/// the driver computes.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let (n, ld) = (4usize, v.len());
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let med = crate::hist::median(values)?;
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// workload → metric → one value per run found under `dir`.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(doc) = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        else {
            continue;
        };
        if doc.get("mode").and_then(Json::as_str) != Some("e2e") {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        let per_metric = set.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let contract = load_contract()?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    println!(
        "{:<8} {:<26} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for w in &contract.workloads {
        for spec in &contract.end_to_end {
            let values = |set: &RunSet| -> Vec<f64> {
                set.get(w)
                    .and_then(|m| m.get(&spec.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            let (Some(ma), Some(mb)) = (crate::hist::median(&va), crate::hist::median(&vb)) else {
                println!("{w:<8} {:<26} missing on one side", spec.name);
                unresolved += 1;
                continue;
            };
            let bound = spec.bound.unwrap_or(0.25);
            let sign = if spec.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (mb - ma) / ma.abs();
            let (sa, sb) = (spread(&va), spread(&vb));
            let wide = |s: Option<f64>| s.is_none_or(|s| s > bound);
            let b_always_better = vb.iter().all(|&y| va.iter().all(|&x| sign * (y - x) < 0.0));
            let verdict = if (wide(sa) || wide(sb)) && !b_always_better {
                unresolved += 1;
                "unresolved"
            } else if worse > bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{w:<8} {:<26} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7} {:>7} {:>5.0}%  {verdict}",
                spec.name,
                worse * 100.0,
                pct(sa),
                pct(sb),
                bound * 100.0
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

/// The schema loop: every workload in the contract has a result file
/// under `dir` that is correct and carries every end-to-end metric with
/// the contract's unit, a numeric value and a sample count; where a
/// traced result (`<workload>.layers.json`) exists, the same holds for
/// every per-layer metric.
pub fn check_schema(dir: &Path) -> Result<bool, String> {
    let contract = load_contract()?;
    let mut problems = Vec::new();
    for w in &contract.workloads {
        for (file, specs, required) in [
            (format!("{w}.json"), &contract.end_to_end, true),
            (format!("{w}.layers.json"), &contract.per_layer, false),
        ] {
            let path = dir.join(&file);
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(_) if !required => continue,
                Err(e) => {
                    problems.push(format!("{file}: {e}"));
                    continue;
                }
            };
            let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
            if doc.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{file}: not correct"));
            }
            if doc.get("failed").and_then(Json::as_f64) != Some(0.0) {
                problems.push(format!("{file}: failed operations"));
            }
            if doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) < 1.0 {
                problems.push(format!("{file}: nothing attempted"));
            }
            for spec in specs {
                let m = doc.get("metrics").and_then(|m| m.get(&spec.name));
                let ok = m.is_some_and(|m| {
                    m.get("value").and_then(Json::as_f64).is_some()
                        && m.get("unit").and_then(Json::as_str) == Some(&spec.unit)
                        && m.get("samples").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0
                });
                if !ok {
                    problems.push(format!(
                        "{file}: metric {} missing, non-numeric, without samples or not in {}",
                        spec.name, spec.unit
                    ));
                }
            }
        }
    }
    for p in &problems {
        eprintln!("schema: {p}");
    }
    println!(
        "schema: {} workloads × ({} end-to-end + {} per-layer) metrics, {} problems",
        contract.workloads.len(),
        contract.end_to_end.len(),
        contract.per_layer.len(),
        problems.len()
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4)
        let q = quartiles(&[3., 1., 4., 1., 5.]).unwrap();
        assert_eq!(q, [1.0, 3.0, 4.5]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
