//! Command line of the end-to-end benchmark (see `README.md`).

use std::path::PathBuf;
use std::process::ExitCode;

use aim_e2e::json::Value;
use aim_e2e::run::{self, Args};
use aim_e2e::workload::{WorkloadDef, WORKLOADS};

const USAGE: &str = "\
usage: aim-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
               [--record <file>] [--out-dir <dir>]
       aim-e2e agree <A.jsonl> <B.jsonl> [--benchmark <BENCHMARK.json>]
       aim-e2e describe

  --record   append the run's result, with its workload and seed, as one
             line to <file> (a result set for `agree`)
  --out-dir  where the traced run writes <workload>.trace.json
             (default e2e/out)
  describe   print BENCHMARK.json as the source defines it";

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("agree") => return aim_e2e::agree::main(&argv[1..]),
        Some("describe") => {
            println!("{}", aim_e2e::agree::describe());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut record = None;
    let mut out_dir = PathBuf::from("e2e/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match WorkloadDef::by_name(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--record" => record = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    };
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aim-e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.failures {
        eprintln!("incorrect: {f}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    let result = outcome.to_json();
    if let Some(path) = record {
        let line = Value::Obj(vec![
            (
                "workload".to_string(),
                Value::Str(workload.name.to_string()),
            ),
            ("seed".to_string(), Value::Num(seed as f64)),
            ("trace".to_string(), Value::Num(u8::from(trace) as f64)),
            ("result".to_string(), result.clone()),
        ]);
        if let Err(e) = aim_e2e::agree::append_line(&path, &line.to_json()) {
            eprintln!("aim-e2e: cannot record to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
