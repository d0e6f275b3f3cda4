//! `agree` on hand-made result sets.

use std::path::PathBuf;
use std::process::ExitCode;

use aim_e2e::agree::{self, append_line, read_set, worsening};

fn record(workload: &str, seed: u64, rate: f64, completion: f64) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"result\": \
         {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
         {{\"host_agent_steps_per_s\": {{\"value\": {rate}, \"unit\": \"agent-steps/s\"}}, \
         \"sim_completion_s\": {{\"value\": {completion}, \"unit\": \"s\"}}}}}}}}"
    )
}

fn set(name: &str, rates: &[f64]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    for (i, rate) in rates.iter().enumerate() {
        append_line(&path, &record("day_25", i as u64, *rate, 100.0)).expect("temp file");
    }
    path
}

fn run(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let args = [a, b].map(|p| p.to_string_lossy().into_owned());
    agree::main(&[
        args[0].clone(),
        args[1].clone(),
        "--benchmark".to_string(),
        benchmark.to_string(),
    ])
}

#[test]
fn worsening_follows_the_better_direction() {
    assert!((worsening("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
    assert!((worsening("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
    assert!(worsening("higher", 10.0, 11.0) < 0.0);
}

#[test]
fn sets_within_the_bound_agree_and_sets_beyond_it_do_not() {
    let a = set("agree-a.jsonl", &[1000.0, 1010.0, 990.0]);
    let close = set("agree-close.jsonl", &[1005.0, 1012.0, 985.0]);
    let far = set("agree-far.jsonl", &[500.0, 505.0, 495.0]);
    assert_eq!(
        read_set(&a).expect("readable")["day_25"]["sim_completion_s"].len(),
        3
    );
    assert_eq!(run(&a, &close), ExitCode::SUCCESS);
    assert_eq!(run(&a, &far), ExitCode::FAILURE);
    assert_eq!(run(&far, &a), ExitCode::FAILURE, "either direction counts");
}

#[test]
fn an_incorrect_run_poisons_its_set() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("agree-bad.jsonl");
    let _ = std::fs::remove_file(&path);
    let bad = record("day_25", 1, 1000.0, 100.0).replace("\"correct\": true", "\"correct\": false");
    append_line(&path, &bad).expect("temp file");
    assert!(read_set(&path).is_err());
}
