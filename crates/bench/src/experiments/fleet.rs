//! Heterogeneous serving fleet: routing-policy comparison on a live
//! village (the ROADMAP's multi-backend serving direction; OpenCity-style
//! horizontally scaled deployments).
//!
//! One threaded-runtime village run per [`RoutePolicyKind`], all against
//! the same two-replica fleet:
//!
//! * replica 0 — a virtual-time simulated engine (`test/tiny` preset)
//!   paced against the wall clock;
//! * replica 1 — a [`aim_llm::ReplayBackend`] whose latency distribution
//!   was mined from a trace replay (`aim_trace::latency::mine`) — i.e. a
//!   replica that behaves like the measured reference deployment. It is
//!   tagged *interactive*.
//!
//! While the village simulates, a synthetic "player" thread issues
//! interactive chat turns through the same fleet. The table shows what
//! each policy does with that mix: round-robin splits blindly,
//! least-outstanding follows load, and lane-aware gives the player a
//! dedicated replica while background work keeps the other saturated.

use std::sync::Arc;

use aim_core::exec::threaded::{run_threaded_observed, ThreadedConfig};
use aim_core::policy::DependencyPolicy;
use aim_core::prelude::*;
use aim_llm::presets;
use aim_llm::{
    CallKind, FleetConfig, LlmBackend, LlmRequest, ReplicaSpec, RequestId, RoutePolicyKind,
    ServerConfig,
};
use aim_store::Db;
use aim_trace::{gen, latency};
use aim_world::program::VillageProgram;
use aim_world::{clock_to_step, Village, VillageConfig};

use crate::harness::RunEnv;
use crate::table::{pct, Table};

/// Virtual time simulated per wall-clock unit — fast enough that a full
/// policy sweep stays in the low seconds, but low enough that call wall
/// latencies dwarf thread-scheduling noise (least-outstanding routing
/// only spreads load when calls genuinely overlap).
const TIME_SCALE: f64 = 2_000.0;

fn fleet_for(policy: RoutePolicyKind, profile: &aim_llm::LatencyProfile) -> Arc<aim_llm::Fleet> {
    let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
    Arc::new(
        FleetConfig::new("tiny+replay", policy)
            .with_replica(ReplicaSpec::sim(sim, TIME_SCALE))
            .with_replica(ReplicaSpec::replay(profile.clone(), 7, Some(TIME_SCALE)).interactive())
            .build(),
    )
}

/// Runs the experiment; prints the table and writes `fleet_policies.csv`.
///
/// # Panics
///
/// Panics if a run's fleet served other than the village's calls plus
/// the chat turns sent, or if lane-aware routing sent a turn anywhere
/// but the interactive replica.
pub fn run(env: &RunEnv) {
    let (agents, steps, chat_turns) = if env.quick {
        (10, 30, 20)
    } else {
        (20, 60, 60)
    };
    let start = clock_to_step(12, 0);

    // Mine the replay replica's latency distribution from a trace replay
    // of the same world shape (the trace_tool latency pipeline, inlined).
    let trace = gen::generate(&gen::GenConfig {
        villes: 1,
        agents_per_ville: agents,
        seed: 17,
        window_start: start,
        window_len: steps,
    });
    let profile = latency::mine(
        &trace,
        ServerConfig::from_preset(presets::tiny_test(), 1, true),
        50_000,
    );
    println!(
        "replay replica profile: {} samples, mean {:.1} ms virtual\n",
        profile.len(),
        profile.mean_us() / 1e3
    );

    let mut table = Table::new(
        "fleet policies",
        &[
            "policy",
            "wall ms",
            "calls",
            "replica",
            "backend",
            "served",
            "share",
            "interactive",
            "peak",
        ],
    );

    for policy in RoutePolicyKind::ALL {
        let mut village = Village::generate(&VillageConfig {
            villes: 1,
            agents_per_ville: agents,
            seed: 17,
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

        let fleet = fleet_for(policy, &profile);

        // A player chats through the same fleet while the village runs,
        // and sends every turn even if the village finishes first.
        let player = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                for i in 0..chat_turns {
                    fleet.call(
                        &LlmRequest::new(
                            RequestId(1_000_000 + i),
                            u32::MAX,
                            0,
                            300,
                            7,
                            CallKind::Converse,
                        )
                        .interactive(),
                    );
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
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
        .expect("threaded fleet run");
        player.join().expect("player thread");

        let m = fleet.metrics();
        assert_eq!(
            m.total_served(),
            program.calls_made() + chat_turns,
            "{policy}: the fleet must serve every village call and every chat turn"
        );
        if policy == RoutePolicyKind::LaneAware {
            assert_eq!(
                m.replicas[1].interactive_served, chat_turns,
                "lane-aware routing must send every chat turn to the interactive replica"
            );
        }
        let total = m.total_served().max(1);
        for r in &m.replicas {
            table.push_row(vec![
                policy.as_str().to_string(),
                format!("{:.0}", report.wall.as_secs_f64() * 1e3),
                m.total_served().to_string(),
                format!("{}{}", r.replica, if r.interactive { "*" } else { "" }),
                r.description.chars().take(34).collect(),
                r.served.to_string(),
                pct(r.served as f64 / total as f64),
                r.interactive_served.to_string(),
                r.peak_outstanding.to_string(),
            ]);
        }
    }

    print!("{}", table.render());
    println!("(*) replica tagged interactive — only lane-aware routing honors it.");
    match table.write_csv(&env.out_dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_keeps_both_replicas_busy() {
        // The fleet experiment's core claim, in miniature: a threaded
        // village run over the mixed fleet serves traffic on both
        // replicas under every shipped policy.
        let profile = aim_llm::LatencyProfile::constant("test", 5_000);
        for policy in RoutePolicyKind::ALL {
            let mut village = Village::generate(&VillageConfig {
                villes: 1,
                agents_per_ville: 8,
                seed: 4,
            });
            let start = clock_to_step(12, 0);
            village.run_lockstep(0, start, |_, _, _, _| {});
            let program = Arc::new(VillageProgram::with_step_offset(village, start));
            let initial = program.initial_positions();
            let mut sched = Scheduler::new(
                Arc::new(GridSpace::new(100, 140)),
                RuleParams::genagent(),
                DependencyPolicy::Spatiotemporal,
                Arc::new(Db::new()),
                &initial,
                Step(20),
            )
            .unwrap();
            let fleet = fleet_for(policy, &profile);
            // Interactive traffic so the lane-aware partition is exercised.
            // The first call is long (about 20 ms of wall time) and the
            // other seven go out while it is in flight, so a load-following
            // policy sees that replica busy and spills to the other one,
            // however the village's own calls happen to interleave.
            let interactive = |i: u64, output_tokens: u32| {
                LlmRequest::new(
                    RequestId(900 + i),
                    u32::MAX,
                    0,
                    100,
                    output_tokens,
                    CallKind::Converse,
                )
                .interactive()
            };
            let long = {
                let fleet = Arc::clone(&fleet);
                std::thread::spawn(move || fleet.call(&interactive(0, 40_000)))
            };
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while fleet
                .metrics()
                .replicas
                .iter()
                .all(|r| r.peak_outstanding == 0)
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the long interactive call never went out"
                );
                std::thread::yield_now();
            }
            for i in 1..8 {
                fleet.call(&interactive(i, 4));
            }
            long.join().expect("long interactive call");
            let backend: Arc<dyn LlmBackend> = Arc::clone(&fleet) as Arc<dyn LlmBackend>;
            run_threaded_observed(
                &mut sched,
                program,
                backend,
                ThreadedConfig {
                    workers: 4,
                    priority_enabled: true,
                },
                None,
                None,
            )
            .unwrap();
            let m = fleet.metrics();
            assert!(
                m.all_replicas_served(),
                "{policy}: every replica must see traffic: {m:?}"
            );
        }
    }
}
