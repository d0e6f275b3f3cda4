//! The benchmark's contract with its driver: names, units, bounds, and
//! a `BENCHMARK.json` that says what the source says.

use std::collections::BTreeSet;

use aim_e2e::agree::describe;
use aim_e2e::json::{self, Value};
use aim_e2e::run::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS};
use aim_e2e::workload::WORKLOADS;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn names_units_and_bounds_are_within_the_contract() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    for m in &END_TO_END {
        assert!(
            is_name(m.name) && is_unit(m.unit),
            "{} [{}]",
            m.name,
            m.unit
        );
        assert!(seen.insert(m.name), "{} is used twice", m.name);
        assert!(matches!(m.better, "lower" | "higher"));
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
    for m in &PER_LAYER {
        assert!(is_name(m.0) && is_unit(m.1), "{} [{}]", m.0, m.1);
        assert!(seen.insert(m.0), "{} is used twice", m.0);
        assert!(matches!(m.2, "lower" | "higher"));
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!((1..=60).contains(&RUN_SECONDS));
}

#[test]
fn benchmark_json_is_what_the_source_describes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(on_disk.len() <= 64 * 1024);
    let on_disk = json::parse(&on_disk).expect("BENCHMARK.json parses");
    let described = json::parse(&describe()).expect("describe() prints JSON");
    assert_eq!(
        on_disk, described,
        "regenerate with `aim-e2e describe > BENCHMARK.json`"
    );
    let keys: Vec<&str> = on_disk
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for arg in on_disk
        .get("command")
        .and_then(Value::as_array)
        .expect("command")
    {
        let arg = arg.as_str().expect("strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
}

#[test]
fn result_line_round_trips_through_the_reader() {
    let outcome = Outcome {
        correct: true,
        attempted: 570_000,
        failed: 0,
        metrics: vec![
            ("sim_completion_s", 782.1401, "s"),
            (
                "host_agent_steps_per_s",
                119_854.792_888_744_05,
                "agent-steps/s",
            ),
            (
                "host_allocs_per_agent_step",
                22.709_990_196_078_433,
                "count",
            ),
            ("tiny", 1.5e-9, "s"),
        ],
        failures: Vec::new(),
    };
    let line = outcome.to_json().to_json();
    assert!(!line.contains('\n'));
    let back = json::parse(&line).expect("the result line parses");
    assert_eq!(back, outcome.to_json());
    let keys: Vec<&str> = back
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let rate = back
        .get("metrics")
        .and_then(|m| m.get("host_agent_steps_per_s"))
        .and_then(|r| r.get("value"))
        .and_then(Value::as_f64);
    assert_eq!(rate, Some(119_854.792_888_744_05), "every digit survives");
}
