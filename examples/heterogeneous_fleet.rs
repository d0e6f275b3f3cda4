//! A **heterogeneous serving fleet** drives a live village: one
//! virtual-time simulated engine (the `test/tiny` preset behind
//! `RealtimeSimBackend`) and one latency-replay replica
//! (`ReplayBackend`), behind each shipped routing policy in turn.
//!
//! While the village simulates its lunch hour on the threaded runtime, a
//! "player" thread chats with the town through the *same* fleet on the
//! interactive lane. Per-replica metrics after each run show what the
//! policy did with that mix — and the example asserts that **every
//! replica served traffic under every policy**, which is the whole point
//! of a fleet: no capacity stranded, whatever the routing rule.
//!
//! ```text
//! cargo run --release --example heterogeneous_fleet
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ai_metropolis::core::exec::threaded::{run_threaded_observed, ThreadedConfig};
use ai_metropolis::llm::presets;
use ai_metropolis::llm::{
    CallKind, Fleet, FleetConfig, LatencyProfile, LlmBackend, LlmRequest, ReplicaSpec, RequestId,
    RoutePolicyKind, ServerConfig,
};
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::world::program::VillageProgram;
use ai_metropolis::world::{clock_to_step, Village};

/// Virtual time per wall-clock unit for both paced replicas. Kept low
/// enough that a call's wall latency (tens to hundreds of µs) dwarfs
/// thread-scheduling noise — least-outstanding routing only spreads
/// load when calls genuinely overlap, so a too-aggressive scale would
/// make the per-replica traffic assertions timing-dependent.
const TIME_SCALE: f64 = 2_000.0;

fn build_fleet(policy: RoutePolicyKind, profile: &LatencyProfile) -> Arc<Fleet> {
    // Replica 0: a simulated continuous-batching engine, paced.
    // Replica 1: replays a recorded latency distribution; tagged
    // interactive so lane-aware routing dedicates it to the player.
    let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
    Arc::new(
        FleetConfig::new("town-fleet", policy)
            .with_replica(ReplicaSpec::sim(sim, TIME_SCALE))
            .with_replica(ReplicaSpec::replay(profile.clone(), 7, Some(TIME_SCALE)).interactive())
            .build(),
    )
}

fn main() {
    // The replay replica's distribution. A production setup would mine
    // this from real serving logs (`trace_tool latency town.trc out.lat`
    // → `LatencyProfile::load`); a synthetic one keeps the example
    // self-contained.
    let mut profile = LatencyProfile::new("reference-deployment");
    for (kind, base) in [
        (CallKind::Perceive, 12_000),
        (CallKind::Plan, 45_000),
        (CallKind::Converse, 30_000),
        (CallKind::Summarize, 25_000),
    ] {
        for jitter in 0..8u64 {
            profile.push(kind, base + jitter * 3_000);
        }
    }
    println!(
        "Replay replica: {} latency samples, mean {:.0} ms virtual",
        profile.len(),
        profile.mean_us() / 1e3
    );

    let start = clock_to_step(12, 0);
    let steps = 40;

    for policy in RoutePolicyKind::ALL {
        println!("\n=== routing policy: {policy} ===");

        let mut village = Village::generate(&VillageConfig {
            villes: 1,
            agents_per_ville: 15,
            seed: 42,
        });
        village.run_lockstep(0, start, |_, _, _, _| {});
        let program = Arc::new(VillageProgram::with_step_offset(village, start));
        let initial = program.initial_positions();
        let mut sched = Scheduler::new(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &initial,
            Step(steps),
        )
        .expect("scheduler");

        let fleet = build_fleet(policy, &profile);

        // The player talks to the town through the same fleet.
        let stop = Arc::new(AtomicBool::new(false));
        let player = {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut turns = 0u64;
                // At least a few turns even if the village finishes first,
                // so the tagged replica always sees interactive traffic.
                while turns < 5 || (!stop.load(Ordering::Relaxed) && turns < 50) {
                    fleet.call(
                        &LlmRequest::new(
                            RequestId(1_000_000 + turns),
                            u32::MAX,
                            0,
                            300,
                            7,
                            CallKind::Converse,
                        )
                        .interactive(),
                    );
                    turns += 1;
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                turns
            })
        };

        let backend: Arc<dyn LlmBackend> = Arc::clone(&fleet) as Arc<dyn LlmBackend>;
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig {
                workers: 8,
                priority_enabled: true,
            },
            None,
            None,
        )
        .expect("threaded run");
        stop.store(true, Ordering::Relaxed);
        let chat_turns = player.join().expect("player thread");

        println!("deployment : {}", report.backend);
        println!(
            "run        : {} clusters, {} agent-steps, {} chat turns, {:.0} ms wall",
            report.clusters,
            report.agent_steps,
            chat_turns,
            report.wall.as_secs_f64() * 1e3
        );

        let m = fleet.metrics();
        println!(
            "{:>7} | {:>34} | {:>6} | {:>11} | {:>4}",
            "replica", "backend", "served", "interactive", "peak"
        );
        for r in &m.replicas {
            println!(
                "{:>6}{} | {:>34} | {:>6} | {:>11} | {:>4}",
                r.replica,
                if r.interactive { "*" } else { " " },
                r.description.chars().take(34).collect::<String>(),
                r.served,
                r.interactive_served,
                r.peak_outstanding
            );
        }

        // The acceptance bar: a heterogeneous fleet strands no replica,
        // under any shipped policy.
        assert!(
            m.all_replicas_served(),
            "{policy}: every replica must serve traffic: {m:?}"
        );
        assert_eq!(
            m.total_served(),
            program.calls_made() + chat_turns,
            "the fleet saw every village call plus every chat turn"
        );
        if policy == RoutePolicyKind::LaneAware {
            let tagged = &m.replicas[1];
            assert_eq!(
                tagged.interactive_served, chat_turns,
                "lane-aware must pin the player to the tagged replica"
            );
        }
    }

    println!("\nSame village, same player, five routing policies: the fleet");
    println!("abstraction makes deployment shape — replica mix and routing —");
    println!("a config knob instead of an engine rewrite.");
}
