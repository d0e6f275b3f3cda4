//! Bench regression gate: diff fresh `BENCH_<target>.json` files (as
//! written by `cargo bench -p aim-bench -- --json`) against the committed
//! baselines and fail on per-iteration-time regressions beyond a
//! threshold.
//!
//! ```text
//! bench_gate --baseline <dir> --fresh <dir> [options]
//!
//!   --baseline <dir>       directory holding the committed BENCH_*.json
//!   --fresh <dir>          directory holding freshly produced BENCH_*.json;
//!                          repeatable — with several runs, each benchmark's
//!                          fastest calibration-adjusted time is compared
//!                          (noise bursts only ever slow a run down)
//!   --targets a,b,c        allowlisted bench targets to gate
//!                          (default: scheduler,depgraph,shard,store,
//!                          snapshot,city_fleet,telemetry)
//!   --threshold <pct>      allowed regression, percent (default: 5)
//!   --min-ns <ns>          ignore baselines below this (timer noise floor,
//!                          default: 100)
//!   --allow-regressions    report but exit 0 — the one-flag override for
//!                          intentional changes (remember to commit the
//!                          new baselines)
//! ```
//!
//! Only benchmarks present in **both** files are compared; added or
//! removed benchmarks are reported informationally. A missing fresh file
//! for an allowlisted target is an error (the bench did not run); a
//! missing baseline skips the target (first run on a new machine).
//!
//! # Machine-drift normalization
//!
//! When both files carry the `calibration/spin` benchmark (a fixed
//! workload independent of the repository's code — see
//! `aim_bench::calibration_spin`), every fresh number is divided by the
//! calibration ratio `fresh_spin / baseline_spin` before the threshold
//! applies. A uniformly slower machine (thermal throttling, CI neighbor
//! load, a different runner class) shifts the calibration by the same
//! factor as the real benchmarks and cancels out; genuine code
//! regressions do not move the calibration and are still caught. The
//! ratio is clamped to `[0.25, 4]` so a corrupt calibration cannot mask
//! a real regression arbitrarily.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The machine-speed reference benchmark present in every gated target.
const CALIBRATION: &str = "calibration/spin";

/// Parses the criterion shim's `BENCH_<target>.json`: a flat
/// `"name": integer` map under `"ns_per_iter"` (or the pre-gate
/// `"median_ns"` field, still accepted for old baselines). Hand-rolled on
/// purpose — the offline workspace has no JSON dependency, and the shim's
/// output shape is fixed (one `"key": value` pair per line).
fn parse_medians(text: &str, path: &Path) -> Result<BTreeMap<String, u128>, String> {
    let mut out = BTreeMap::new();
    let mut in_map = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"ns_per_iter\"") || line.starts_with("\"median_ns\"") {
            in_map = true;
            continue;
        }
        if !in_map {
            continue;
        }
        if line.starts_with('}') {
            break;
        }
        let Some((rawk, rawv)) = line.split_once(':') else {
            return Err(format!("{}: unparseable line {line:?}", path.display()));
        };
        let key = rawk.trim().trim_matches('"').to_string();
        let val = rawv.trim().trim_end_matches(',');
        let ns: u128 = val
            .parse()
            .map_err(|_| format!("{}: bad median {val:?} for {key:?}", path.display()))?;
        out.insert(key, ns);
    }
    if out.is_empty() {
        return Err(format!("{}: no medians found", path.display()));
    }
    Ok(out)
}

fn load(dir: &Path, target: &str) -> Result<Option<BTreeMap<String, u128>>, String> {
    let path = dir.join(format!("BENCH_{target}.json"));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_medians(&text, &path).map(Some)
}

struct Options {
    baseline: PathBuf,
    fresh: Vec<PathBuf>,
    targets: Vec<String>,
    threshold_pct: f64,
    min_ns: u128,
    allow: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --baseline <dir> --fresh <dir> [--fresh <dir> ...] \
         [--targets a,b,c] [--threshold <pct>] [--min-ns <ns>] [--allow-regressions]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        baseline: PathBuf::new(),
        fresh: Vec::new(),
        targets: [
            "scheduler",
            "depgraph",
            "shard",
            "store",
            "snapshot",
            "city_fleet",
            "telemetry",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        threshold_pct: 5.0,
        min_ns: 100,
        allow: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--baseline" => opts.baseline = PathBuf::from(value("--baseline")),
            "--fresh" => opts.fresh.push(PathBuf::from(value("--fresh"))),
            "--targets" => {
                opts.targets = value("--targets")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--threshold" => {
                opts.threshold_pct = value("--threshold").parse().unwrap_or_else(|_| usage())
            }
            "--min-ns" => opts.min_ns = value("--min-ns").parse().unwrap_or_else(|_| usage()),
            "--allow-regressions" => opts.allow = true,
            _ => usage(),
        }
    }
    if opts.baseline.as_os_str().is_empty() || opts.fresh.is_empty() {
        usage();
    }
    opts
}

/// Normalizes one fresh run by its own calibration ratio against the
/// baseline's, returning `name -> adjusted ns`. Reported per run so CI
/// logs show how hard the correction worked.
fn normalize(
    target: &str,
    baseline: &BTreeMap<String, u128>,
    fresh: &BTreeMap<String, u128>,
) -> BTreeMap<String, f64> {
    let scale = match (baseline.get(CALIBRATION), fresh.get(CALIBRATION)) {
        (Some(&b), Some(&f)) if b > 0 => {
            let s = (f as f64 / b as f64).clamp(0.25, 4.0);
            println!("calibration {target}: {b} -> {f} ns, normalizing this run by {s:.3}");
            s
        }
        _ => 1.0,
    };
    fresh
        .iter()
        .filter(|(name, _)| name.as_str() != CALIBRATION)
        .map(|(name, &ns)| (name.clone(), ns as f64 / scale))
        .collect()
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut failed = false;
    for target in &opts.targets {
        // Load every fresh run; keep, per benchmark, the fastest
        // calibration-adjusted time (noise bursts only inflate a run, so
        // the best of N runs is the robust estimate).
        let mut best: BTreeMap<String, f64> = BTreeMap::new();
        let mut any_fresh = false;
        let baseline = match load(&opts.baseline, target) {
            Ok(Some(m)) => m,
            Ok(None) => {
                println!("skip {target}: no committed baseline (first run?)");
                continue;
            }
            Err(e) => {
                eprintln!("FAIL {target}: {e}");
                failed = true;
                continue;
            }
        };
        for dir in &opts.fresh {
            match load(dir, target) {
                Ok(Some(m)) => {
                    any_fresh = true;
                    for (name, adjusted) in normalize(target, &baseline, &m) {
                        let slot = best.entry(name).or_insert(f64::INFINITY);
                        *slot = slot.min(adjusted);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("FAIL {target}: {e}");
                    failed = true;
                }
            }
        }
        if !any_fresh {
            eprintln!("FAIL {target}: no fresh BENCH_{target}.json — did the bench run?");
            failed = true;
            continue;
        }
        for (name, &base) in &baseline {
            if name == CALIBRATION {
                continue;
            }
            let Some(&adjusted) = best.get(name) else {
                println!("note {name}: removed (was {base} ns)");
                continue;
            };
            compared += 1;
            let delta_pct = (adjusted - base as f64) / base as f64 * 100.0;
            let regressed = base >= opts.min_ns && delta_pct > opts.threshold_pct;
            if regressed {
                regressions += 1;
                println!("REGRESSION {name}: {base} -> {adjusted:.0} ns adj ({delta_pct:+.1}%)");
            } else {
                println!("ok {name}: {base} -> {adjusted:.0} ns adj ({delta_pct:+.1}%)");
            }
        }
        for name in best.keys() {
            if !baseline.contains_key(name) {
                println!("note {name}: new benchmark ({:.0} ns)", best[name]);
            }
        }
    }
    println!(
        "bench_gate: {compared} compared, {regressions} regression(s) \
         beyond {:.1}% (floor {} ns)",
        opts.threshold_pct, opts.min_ns
    );
    if failed {
        return ExitCode::from(1);
    }
    if regressions > 0 {
        if opts.allow {
            println!("bench_gate: regressions ALLOWED by --allow-regressions");
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "bench_gate: failing; rerun with --allow-regressions (and commit \
             refreshed baselines) if the change is intentional"
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_output() {
        let text =
            "{\n  \"bench\": \"x\",\n  \"ns_per_iter\": {\n    \"g/a\": 10,\n    \"g/b\": 20\n  }\n}\n";
        let m = parse_medians(text, Path::new("t")).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["g/a"], 10);
        assert_eq!(m["g/b"], 20);
    }

    #[test]
    fn parses_legacy_median_field() {
        let text = "{\n  \"bench\": \"x\",\n  \"median_ns\": {\n    \"g/a\": 10\n  }\n}\n";
        let m = parse_medians(text, Path::new("t")).unwrap();
        assert_eq!(m["g/a"], 10);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_medians("{}", Path::new("t")).is_err());
        assert!(parse_medians("{\"ns_per_iter\": {\n\"a\": x\n}}", Path::new("t")).is_err());
    }
}
