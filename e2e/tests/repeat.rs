//! What must repeat exactly does: simulated-time rows on every workload,
//! allocation counts on the single-threaded ones; and a different seed
//! is a different input. Also: the benchmark's own capture loop records
//! what `aim_trace::gen::generate` records.

use std::sync::{Mutex, MutexGuard};

use aim_e2e::calib::Bracket;
use aim_e2e::run::Reference;
use aim_e2e::workload::{capture, setup, Arm, Mode, WorkloadDef, WORKLOADS};
use aim_trace::gen::{self, GenConfig};
use aim_world::{Village, VillageConfig};

/// The allocation counter is the process's: tests that read it, and
/// tests that allocate beside them, take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `sim_*` rows and the allocations of one post-warm-up rep.
fn observe(w: &WorkloadDef, seed: u64) -> ([f64; 3], u64) {
    let (inputs, _) = setup(w, seed, &mut Bracket::open());
    let reference = Reference::run(w, &inputs);
    for rep in reference.checked() {
        assert!(rep.failures.is_empty(), "{}: {:?}", w.name, rep.failures);
    }
    let rows = reference.sim_rows();
    let warm = w.rep(&inputs, &Mode::Plain);
    let rep = w.rep(&inputs, &Mode::Plain);
    for r in [&warm, &rep] {
        assert!(r.failures.is_empty(), "{}: {:?}", w.name, r.failures);
    }
    (rows, rep.allocs)
}

fn repeats(name: &str) {
    let _turn = my_turn();
    let w = WorkloadDef::by_name(name).expect("a workload of the benchmark");
    let (rows_a, allocs_a) = observe(w, 7);
    let (rows_b, allocs_b) = observe(w, 7);
    let (rows_c, allocs_c) = observe(w, 8);
    assert_eq!(rows_a, rows_b, "{name}: same seed, same simulated time");
    assert_ne!(rows_a, rows_c, "{name}: another seed is another input");
    // Worker threads allocate on their own schedule in the two threaded
    // arms. The single-threaded engines repeat to within a few tens of
    // allocations in a million: they walk randomly keyed `HashMap`s,
    // which moves a handful of buffer growths from one run to the next.
    if matches!(w.arm, Arm::DepGraph | Arm::Spec) {
        let gap = |x: u64, y: u64| x.abs_diff(y) as f64 / x as f64;
        assert!(
            gap(allocs_a, allocs_b) < 1e-4,
            "{name}: same seed, {allocs_a} vs {allocs_b} allocations"
        );
        assert!(
            gap(allocs_a, allocs_c) > 1e-3,
            "{name}: another seed allocates differently"
        );
    }
}

#[test]
fn day_25_repeats() {
    repeats("day_25");
}

#[test]
fn busy_1000_repeats() {
    repeats("busy_1000");
}

#[test]
fn spec_250_repeats() {
    repeats("spec_250");
}

#[test]
fn dist_200_repeats() {
    repeats("dist_200");
}

#[test]
fn city_live_1256_repeats() {
    repeats("city_live_1256");
}

#[test]
fn every_workload_is_covered_above() {
    let _turn = my_turn();
    let covered = [
        "day_25",
        "busy_1000",
        "spec_250",
        "dist_200",
        "city_live_1256",
    ];
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, covered);
}

#[test]
fn capture_records_what_the_trace_generator_records() {
    let _turn = my_turn();
    let cfg = GenConfig {
        villes: 2,
        agents_per_ville: 25,
        seed: 11,
        window_start: gen::hour(9),
        window_len: 40,
    };
    let mut village = Village::generate(&VillageConfig {
        villes: cfg.villes,
        agents_per_ville: cfg.agents_per_ville,
        seed: cfg.seed,
    });
    village.run_lockstep(0, cfg.window_start, |_, _, _, _| {});
    let ours = capture(
        &mut village,
        "x".to_string(),
        cfg.seed,
        cfg.window_start,
        cfg.window_len,
    );
    let theirs = gen::generate(&cfg);
    assert_eq!(ours.calls(), theirs.calls());
    for agent in 0..cfg.num_agents() {
        assert_eq!(ours.initial_position(agent), theirs.initial_position(agent));
        for step in 0..cfg.window_len {
            assert_eq!(
                ours.position_after(agent, step),
                theirs.position_after(agent, step)
            );
        }
    }
}
