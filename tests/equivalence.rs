//! The paper's correctness claim: out-of-order execution **does not change
//! the simulation outcome** — it only reorders work that could never have
//! been observed (§3.2's causality argument).
//!
//! We verify it end to end on the live world: the same seeded village is
//! executed under global synchronization and under the spatiotemporal
//! policy (threaded runtime, real threads), and the two final worlds must
//! be equal in every byte of their captured runtime state — positions,
//! targets, paths, conversation cooldowns, wakefulness, activity markers,
//! memory streams and the world-event log — having issued the same number
//! of LLM calls. The small-village scenarios run on every tracker of the
//! roster. Two more tests replay generated traces under the discrete-event
//! executor and compare final positions with the trace's.

mod common;

use std::sync::Arc;

use ai_metropolis::prelude::*;
use ai_metropolis::world::clock_to_step;
use common::{assert_worlds_equal, live, replay, Run, World, ROSTER};
use DependencyPolicy::{GlobalSync, Spatiotemporal};

/// Runs `world` lock-step (global synchronization) and out of order on
/// every tracker of the roster, for `steps` steps on `workers` workers,
/// and holds each out-of-order run to the lock-step one; returns the
/// lock-step world.
fn ooo_equals_lockstep_on_every_tracker(world: World, steps: u32, workers: usize) -> Village {
    let sync = live(world.clone(), &Run::new(GlobalSync, steps, workers));
    for layout in ROSTER {
        let run = Run::new(Spatiotemporal, steps, workers).on(layout);
        let ooo = live(world.clone(), &run);
        assert_worlds_equal(&sync.world, &ooo.world);
        assert_eq!(sync.calls, ooo.calls, "{layout:?}: LLM calls differ");
    }
    sync.world
}

#[test]
fn ooo_equals_lockstep_morning_commute() {
    // 8am: agents walk to work, perceive each other, converse.
    let world = World::smallville(3, 15, clock_to_step(8, 0));
    ooo_equals_lockstep_on_every_tracker(world, 80, 4);
}

#[test]
fn ooo_equals_lockstep_lunch_rush() {
    // The conversation-heavy window where clusters actually form.
    let world = World::smallville(9, 20, clock_to_step(12, 0));
    let sync = ooo_equals_lockstep_on_every_tracker(world, 60, 8);
    // Lunch must not be silent, or this test proves nothing.
    assert!(
        !sync.events().is_empty(),
        "expected events during the lunch window"
    );
}

#[test]
fn ooo_outcome_is_stable_across_worker_counts() {
    // Thread-schedule nondeterminism must never leak into the world.
    let world = World::smallville(5, 12, clock_to_step(9, 0));
    let a = live(world.clone(), &Run::new(Spatiotemporal, 50, 2));
    for layout in ROSTER {
        let run = Run::new(Spatiotemporal, 50, 8).on(layout);
        let b = live(world.clone(), &run);
        assert_worlds_equal(&a.world, &b.world);
        assert_eq!(a.calls, b.calls, "{layout:?}: LLM calls differ");
    }
}

#[test]
fn heterogeneous_fleet_equals_lockstep_oracle() {
    // The fleet layer must be invisible to the simulation outcome: a
    // lock-step run on the instant backend is the oracle, and an
    // out-of-order run whose calls are scattered across a *heterogeneous*
    // fleet (a paced simulated engine + a latency-replay replica, behind
    // each shipped policy) must land in the identical world state —
    // routing and replica latencies reorder work, never observations.
    use ai_metropolis::llm::{
        presets, FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind, ServerConfig,
    };

    let world = World::smallville(11, 12, clock_to_step(12, 0));
    let oracle = live(world.clone(), &Run::new(GlobalSync, 50, 4));
    let mut profile = LatencyProfile::new("equivalence");
    for i in 0..16u64 {
        profile.push(ai_metropolis::llm::CallKind::Plan, 2_000 + i * 500);
        profile.push(ai_metropolis::llm::CallKind::Converse, 1_000 + i * 300);
    }
    for policy in RoutePolicyKind::ALL {
        let fleet = Arc::new(
            FleetConfig::new("equiv", policy)
                .with_replica(ReplicaSpec::sim(
                    ServerConfig::from_preset(presets::tiny_test(), 1, true),
                    500_000.0,
                ))
                .with_replica(
                    ReplicaSpec::replay(profile.clone(), 3, Some(500_000.0)).interactive(),
                )
                .build(),
        );
        let run = Run::new(Spatiotemporal, 50, 8).against(fleet.clone());
        let ooo = live(world.clone(), &run);
        assert_worlds_equal(&oracle.world, &ooo.world);
        assert_eq!(oracle.calls, ooo.calls, "{policy}: LLM calls differ");
        let m = fleet.metrics();
        assert!(
            m.total_served() > 0,
            "{policy}: the run must have gone through the fleet"
        );
    }
}

/// The warmed-up 1000-agent morning: 40 concatenated villes at 8am.
fn thousand_agent_morning() -> World {
    let cfg = VillageConfig {
        villes: 40,
        agents_per_ville: 25,
        seed: 17,
    };
    let world = World::warmed(&cfg, clock_to_step(8, 0));
    assert_eq!(world.village.num_agents(), 1000);
    world
}

#[test]
fn ooo_equals_lockstep_thousand_agents() {
    // The scaling regime the spatial index exists for: 1000 agents across
    // 40 concatenated villes, out-of-order under the threaded runtime,
    // checked world-for-world against the lock-step oracle. The warmed-up
    // morning world is built once and cloned per arm (the warm-up is the
    // expensive part at this scale).
    let world = thousand_agent_morning();
    let sync = live(world.clone(), &Run::new(GlobalSync, 10, 4));
    let ooo = live(world, &Run::new(Spatiotemporal, 10, 8));
    assert_worlds_equal(&sync.world, &ooo.world);
    assert_eq!(sync.calls, ooo.calls, "LLM calls differ");
    assert!(
        !sync.world.events().is_empty(),
        "a 1000-agent morning must produce events, or this proves nothing"
    );
}

#[test]
fn fault_injected_fleet_equals_lockstep_thousand_agents() {
    // Resilience must be invisible to the simulation outcome: a
    // 1000-agent out-of-order run whose serving fleet loses a replica
    // mid-run (fail-after-N fault plan) must land in the *identical*
    // world state as the lock-step oracle, under every shipped routing
    // policy. Retries and shedding may move latency around — never
    // state: the fault gate runs before the backend, so a failed attempt
    // provably produced nothing to duplicate, and the retried call
    // commits exactly once in the worker that issued it.
    use ai_metropolis::llm::{FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind};

    let world = thousand_agent_morning();
    let oracle = live(world.clone(), &Run::new(GlobalSync, 10, 4));
    assert!(
        !oracle.world.events().is_empty(),
        "a 1000-agent morning must produce events, or this proves nothing"
    );

    for policy in RoutePolicyKind::ALL {
        // Replica 0 serves exactly 150 attempts and then dies — well
        // into the run for every policy (each sends it ≥ a third of the
        // ~1.2k calls), well before the end.
        let fleet = Arc::new(
            FleetConfig::new("fault-equiv", policy)
                .with_replica(ReplicaSpec::instant().fail_after(150))
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("equiv", 5_000),
                    3,
                    None,
                ))
                .with_replica(ReplicaSpec::instant().interactive())
                .build(),
        );
        let run = Run::new(Spatiotemporal, 10, 8).against(fleet.clone());
        let ooo = live(world.clone(), &run);
        assert_worlds_equal(&oracle.world, &ooo.world);
        assert_eq!(oracle.calls, ooo.calls, "{policy}: LLM calls differ");
        let m = fleet.metrics();
        assert_eq!(
            m.replicas[0].served, 150,
            "{policy}: replica 0 must serve exactly its fail-after budget: {m:?}"
        );
        assert!(m.replicas[0].down, "{policy}: replica 0 must be down");
        assert_eq!(
            m.total_failed(),
            1,
            "{policy}: the failure costs exactly one retried attempt: {m:?}"
        );
        assert!(
            m.replicas[1].served + m.replicas[2].served > 0,
            "{policy}: survivors must absorb the shed load: {m:?}"
        );
    }
}

#[test]
fn replayed_positions_match_generated_trace_thousand_agents() {
    // Same scale under the discrete-event executor: a 1000-agent trace
    // replayed out of order through the scheduler must land every agent
    // exactly where the lock-step trace says it ends.
    use ai_metropolis::llm::{presets, ServerConfig, SimServer};
    use ai_metropolis::trace::gen;

    let trace = gen::generate(&GenConfig {
        villes: 40,
        agents_per_ville: 25,
        seed: 33,
        window_start: clock_to_step(8, 0),
        window_len: 30,
    });
    let meta = trace.meta().clone();
    assert_eq!(meta.num_agents, 1000);
    let mut sched = replay(&trace, Spatiotemporal);
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 8, true));
    run_sim(&mut sched, &trace, &mut server, &SimConfig::default()).unwrap();
    assert!(sched.is_done());
    assert!(sched.graph().validate().is_ok());
    for a in 0..meta.num_agents {
        assert_eq!(
            sched.graph().pos(AgentId(a)),
            trace.position_after(a, meta.num_steps - 1),
            "agent {a} ended in the wrong place"
        );
    }
}

#[test]
fn replayed_positions_match_generated_trace() {
    // The DES executor feeds trace movements back through the scheduler;
    // after a metropolis replay the dependency graph's final positions must
    // equal the trace's final row (i.e. replay is faithful).
    use ai_metropolis::llm::{presets, ServerConfig, SimServer};
    use ai_metropolis::trace::gen;

    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 12,
        seed: 21,
        window_start: clock_to_step(10, 0),
        window_len: 60,
    });
    let meta = trace.meta().clone();
    let mut sched = replay(&trace, Spatiotemporal);
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 2, true));
    run_sim(&mut sched, &trace, &mut server, &SimConfig::default()).unwrap();
    for a in 0..meta.num_agents {
        assert_eq!(
            sched.graph().pos(AgentId(a)),
            trace.position_after(a, meta.num_steps - 1),
            "agent {a} ended in the wrong place"
        );
    }
}
