//! Completion-time ordering across scheduling modes (§4.2's hierarchy):
//!
//! `critical ≤ oracle ≤ {metropolis} ≤ parallel-sync ≤ single-thread`
//!
//! and the scaling trend: metropolis's advantage over the barrier grows
//! with the agent count (§4.3).

mod common;

use std::sync::Arc;

use ai_metropolis::llm::{presets, ServerConfig, SimServer};
use ai_metropolis::prelude::*;
use ai_metropolis::trace::{critical, gen, oracle};
use ai_metropolis::world::clock_to_step;

fn replay(trace: &Trace, policy: DependencyPolicy, sim: &SimConfig, replicas: u32) -> RunReport {
    let mut sched = common::replay(trace, policy);
    let mut server = SimServer::new(ServerConfig::from_preset(
        presets::l4_llama3_8b(),
        replicas,
        true,
    ));
    run_sim(&mut sched, trace, &mut server, sim).unwrap()
}

fn work_trace(villes: u32, seed: u64) -> Trace {
    gen::generate(&GenConfig {
        villes,
        agents_per_ville: 25,
        seed,
        window_start: clock_to_step(11, 0),
        window_len: 120,
    })
}

#[test]
fn mode_hierarchy_holds() {
    let trace = work_trace(1, 4);
    let graph = Arc::new(oracle::mine(&trace));
    let preset = presets::l4_llama3_8b();
    let cp = critical::critical_path(&trace, &preset.cost, preset.prefill_chunk, 2_000, 1_000);

    let single = replay(
        &trace,
        DependencyPolicy::GlobalSync,
        &SimConfig::single_thread(),
        2,
    );
    let sync = replay(
        &trace,
        DependencyPolicy::GlobalSync,
        &SimConfig::default(),
        2,
    );
    let metro = replay(
        &trace,
        DependencyPolicy::Spatiotemporal,
        &SimConfig::default(),
        2,
    );
    let orc = replay(
        &trace,
        DependencyPolicy::Oracle(graph),
        &SimConfig::default(),
        2,
    );

    assert!(
        metro.makespan <= sync.makespan,
        "metropolis lost to the barrier"
    );
    assert!(
        sync.makespan <= single.makespan,
        "parallel-sync lost to serial"
    );
    assert!(
        orc.makespan <= metro.makespan,
        "conservative rules beat the oracle?"
    );
    assert!(
        cp.time <= orc.makespan + VirtualTime::from_micros(1),
        "oracle ran faster than the critical lower bound: {} < {}",
        orc.makespan,
        cp.time
    );
    // Parallelism follows the same ordering.
    assert!(metro.achieved_parallelism >= sync.achieved_parallelism);
    assert!(single.achieved_parallelism <= 1.0 + 1e-9);
}

#[test]
fn speedup_grows_with_agent_count() {
    let ratio = |villes: u32| {
        let trace = work_trace(villes, 7);
        let sync = replay(
            &trace,
            DependencyPolicy::GlobalSync,
            &SimConfig::default(),
            8,
        );
        let metro = replay(
            &trace,
            DependencyPolicy::Spatiotemporal,
            &SimConfig::default(),
            8,
        );
        sync.makespan.as_secs_f64() / metro.makespan.as_secs_f64()
    };
    let small = ratio(1);
    let large = ratio(4);
    assert!(
        large > small,
        "speedup should grow with agents: {small:.2}x at 25 vs {large:.2}x at 100"
    );
}

#[test]
fn more_gpus_never_hurt() {
    let trace = work_trace(2, 11);
    let one = replay(
        &trace,
        DependencyPolicy::Spatiotemporal,
        &SimConfig::default(),
        1,
    );
    let eight = replay(
        &trace,
        DependencyPolicy::Spatiotemporal,
        &SimConfig::default(),
        8,
    );
    assert!(eight.makespan <= one.makespan);
    assert!(eight.gpu_utilization <= one.gpu_utilization + 1e-9);
}

#[test]
fn priority_never_hurts_under_contention() {
    let trace = work_trace(4, 13);
    let mk = |priority: bool| {
        let mut sched = common::replay(&trace, DependencyPolicy::Spatiotemporal);
        let mut server = SimServer::new(ServerConfig::from_preset(
            presets::l4_llama3_8b(),
            4,
            priority,
        ));
        let sim = SimConfig {
            max_concurrent_clusters: Some(16),
            priority_ready_queue: priority,
            ..SimConfig::default()
        };
        run_sim(&mut sched, &trace, &mut server, &sim).unwrap()
    };
    let with = mk(true);
    let without = mk(false);
    // Priority targets exactly this regime (Table 1); tolerate noise but
    // forbid a real regression.
    assert!(
        with.makespan.as_secs_f64() <= without.makespan.as_secs_f64() * 1.02,
        "priority made things worse: {} vs {}",
        with.makespan,
        without.makespan
    );
}
