//! `agree`: do two result sets of the benchmark say the same thing?
//! And `describe`: `BENCHMARK.json` as the source defines it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::run::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::median;
use crate::workload::WORKLOADS;

/// Appends `line` to the result set at `path`, creating it if need be.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// `BENCHMARK.json`, generated from the metric and workload tables.
pub fn describe() -> String {
    let strs =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let obj = |members: Vec<(&str, Value)>| {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let s = |s: &str| Value::Str(s.to_string());
    let doc = obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "e2e/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["e2e"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| obj(vec![("name", s(m.0)), ("unit", s(m.1)), ("better", s(m.2))]))
                    .collect(),
            ),
        ),
    ]);
    // One array element per line: the file is read by people too.
    pretty(&doc, 0)
}

fn pretty(v: &Value, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    match v {
        Value::Obj(members) if indent == 0 => {
            let rows: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", Value::Str(k.clone()).to_json(), pretty(v, 1)))
                .collect();
            format!("{{\n{}\n}}", rows.join(",\n"))
        }
        Value::Arr(items) if items.iter().any(|i| matches!(i, Value::Obj(_))) => {
            let rows: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", i.to_json()))
                .collect();
            format!("[\n{}\n  ]", rows.join(",\n"))
        }
        other => other.to_json(),
    }
}

/// `workload → metric → values` of the end-to-end runs in a result set.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result set: one `--record` line per run.
///
/// # Errors
///
/// Returns the line number and cause of the first malformed line, and
/// refuses sets holding an incorrect run.
pub fn read_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |msg: &str| format!("{}:{}: {msg}", path.display(), n + 1);
        let rec = json::parse(line).map_err(|e| at(&e))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no workload"))?;
        let result = rec.get("result").ok_or_else(|| at("no result"))?;
        if rec.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue; // per-layer rows are never gated
        }
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(at("the run was not correct"));
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no metrics"))?;
        for (name, row) in metrics {
            let value = row
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `metric → (better, bound)` as `BENCHMARK.json` states them.
fn read_bounds(path: &Path) -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end array", path.display()))?;
    rows.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("{}: metric without {k}", path.display()))
            };
            Ok((
                field("name")?.as_str().unwrap_or_default().to_string(),
                (
                    field("better")?.as_str().unwrap_or_default().to_string(),
                    field("bound")?.as_f64().unwrap_or(0.0),
                ),
            ))
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Compares two result sets metric by metric against the bounds of
/// `BENCHMARK.json`; fails on any gap over its bound, in either
/// direction (two sets of the same code have no "before").
pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => {
                    eprintln!("--benchmark needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("usage: aim-e2e agree <A.jsonl> <B.jsonl> [--benchmark <BENCHMARK.json>]");
        return ExitCode::from(2);
    };
    let loaded =
        read_bounds(&benchmark).and_then(|bounds| Ok((bounds, read_set(a)?, read_set(b)?)));
    let (bounds, set_a, set_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("aim-e2e agree: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    let (mut rows, mut over) = (0, 0);
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            continue;
        };
        for (metric, values_a) in metrics_a {
            let (Some(values_b), Some((better, bound))) =
                (metrics_b.get(metric), bounds.get(metric))
            else {
                continue;
            };
            let (ma, mb) = (median(values_a), median(values_b));
            let gap = worsening(better, ma, mb).max(worsening(better, mb, ma));
            let verdict = if gap > *bound {
                over += 1;
                "OVER"
            } else if ma == mb {
                "exact"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {metric:<28} {ma:>16.6} {mb:>16.6} {:>8.3}% {:>6.1}% {verdict}",
                100.0 * (mb - ma) / ma,
                100.0 * bound,
            );
            rows += 1;
        }
    }
    if rows == 0 {
        eprintln!("aim-e2e agree: the two sets share no (workload, metric) pair");
        return ExitCode::FAILURE;
    }
    println!("{rows} pairs compared, {over} over their bound");
    if over > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
