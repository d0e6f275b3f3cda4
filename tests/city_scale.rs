//! The massive-agent acceptance bar: a **10,000+-agent city** replayed
//! under the threaded out-of-order executor on a sharded dependency
//! tracker must land in exactly the world a lock-step run produces —
//! positions, event log, conversation state. This is the OpenCity-scale
//! regime the `aim_core::shard` subsystem exists for; everything below
//! 10k is covered by the (cheaper) equivalence suite.

use std::sync::Arc;

use ai_metropolis::core::depgraph::{EdgeMode, GraphOptions};
use ai_metropolis::core::dist::DistTracker;
use ai_metropolis::core::exec::threaded::{run_threaded, ThreadedConfig};
use ai_metropolis::core::shard::ShardedDepGraph;
use ai_metropolis::llm::InstantBackend;
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::world::city::{self, CityConfig};
use ai_metropolis::world::program::VillageProgram;
use ai_metropolis::world::{clock_to_step, Village};

#[test]
fn ten_thousand_agent_city_ooo_equals_lockstep() {
    let cfg = CityConfig::default();
    assert!(cfg.agents >= 10_000, "the bar is 10k+ agents");
    let base = city::generate(&cfg);
    assert_eq!(base.num_agents(), cfg.agents as usize);

    // Cold-start the workday: at 8am every agent's first plan fires its
    // wake chain, housemates couple into per-house clusters, early
    // commuters start walking — plenty of dependency structure, no
    // multi-hour warm-up.
    let start = clock_to_step(8, 0);
    let steps = 6u32;

    // Arm 1: the lock-step oracle (global synchronization, the paper's
    // Algorithm 1 semantics via the same plan/commit pipeline).
    let mut lockstep = base.clone();
    lockstep.run_lockstep(start, start + steps, |_, _, _, _| {});

    // Arm 2: out-of-order on the threaded runtime over a 16-shard
    // tracker.
    let shards = 16usize;
    let space = base.space();
    let program = Arc::new(VillageProgram::with_step_offset(base, start));
    let initial = program.initial_positions();
    let graph = ShardedDepGraph::new(
        Arc::new(space),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &initial,
        Arc::new(cfg.shard_map(shards)),
    )
    .expect("sharded graph");
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(steps));
    let report = run_threaded(
        &mut sched,
        Arc::clone(&program),
        Arc::new(InstantBackend::new()),
        ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        },
    )
    .expect("threaded sharded run");
    assert!(sched.is_done());
    assert_eq!(report.agent_steps, cfg.agents as u64 * steps as u64);
    assert!(
        sched.graph().validate().is_ok(),
        "causality invariant violated at 10k agents"
    );
    sched.graph().check_invariants();
    assert_eq!(sched.graph().num_shards(), shards);
    // Strip sharding must actually spread the population.
    let populated = (0..shards)
        .filter(|&j| !sched.graph().members(j).is_empty())
        .count();
    assert!(populated >= shards / 2, "only {populated} shards populated");

    let ooo = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();

    // World-for-world equality with the lock-step oracle.
    assert_eq!(
        ooo.positions(),
        lockstep.positions(),
        "final positions diverged"
    );
    assert_eq!(ooo.events(), lockstep.events(), "world event logs diverged");
    for agent in 0..cfg.agents {
        assert_eq!(
            ooo.conversation_cooldown(agent),
            lockstep.conversation_cooldown(agent),
            "agent {agent} conversation state diverged"
        );
    }
    // A waking city is not silent — otherwise this proves nothing.
    assert!(
        lockstep.events().len() > 5_000,
        "expected a city-scale morning, got {} events",
        lockstep.events().len()
    );
}

#[test]
fn ten_thousand_agent_city_on_isolated_workers_equals_lockstep() {
    // The same 10k+ bar as above, but with the dependency tracker split
    // into channel-isolated shard *workers* — each owning its members
    // and its own database, reachable only through the
    // typed message protocol. The scheduler and executor are unchanged;
    // the final world must still be exactly the lock-step world.
    let cfg = CityConfig::default();
    assert!(cfg.agents >= 10_000, "the bar is 10k+ agents");
    let base = city::generate(&cfg);

    let start = clock_to_step(8, 0);
    let steps = 6u32;

    let mut lockstep = base.clone();
    lockstep.run_lockstep(start, start + steps, |_, _, _, _| {});

    let shards = 16usize;
    let space = base.space();
    let program = Arc::new(VillageProgram::with_step_offset(base, start));
    let initial = program.initial_positions();
    let graph = DistTracker::new(
        Arc::new(space),
        RuleParams::genagent(),
        &initial,
        Arc::new(cfg.shard_map(shards)),
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: false,
        },
    )
    .expect("distributed tracker");
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(steps));
    let report = run_threaded(
        &mut sched,
        Arc::clone(&program),
        Arc::new(InstantBackend::new()),
        ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        },
    )
    .expect("threaded worker-backed run");
    assert!(sched.is_done());
    assert_eq!(report.agent_steps, cfg.agents as u64 * steps as u64);
    assert!(
        sched.graph().validate().is_ok(),
        "causality invariant violated at 10k agents"
    );
    assert_eq!(sched.graph().num_shards(), shards);
    // Commit transactions really landed in the per-worker stores.
    assert!(sched.graph().commits() > 0);
    let populated = (0..shards)
        .filter(|&j| !sched.graph().members(j).is_empty())
        .count();
    assert!(
        populated >= shards / 2,
        "only {populated} workers populated"
    );
    // Mirror vs worker ground truth (quiesce protocol) at full scale.
    sched.graph_mut().check_invariants();

    let ooo = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();
    assert_eq!(
        ooo.positions(),
        lockstep.positions(),
        "final positions diverged"
    );
    assert_eq!(ooo.events(), lockstep.events(), "world event logs diverged");
    for agent in 0..cfg.agents {
        assert_eq!(
            ooo.conversation_cooldown(agent),
            lockstep.conversation_cooldown(agent),
            "agent {agent} conversation state diverged"
        );
    }
    assert!(
        lockstep.events().len() > 5_000,
        "expected a city-scale morning, got {} events",
        lockstep.events().len()
    );
}

#[test]
fn city_through_fleet_serves_on_every_replica() {
    // The closed loop in miniature: a (small) district city driven
    // through a heterogeneous serving fleet — a simulated engine plus a
    // latency-replay replica — completes, both replicas serve traffic,
    // and the run's report surfaces each replica's describe() string and
    // prefix-cache counters.
    use ai_metropolis::llm::{
        presets, FleetConfig, LatencyProfile, LlmBackend, ReplicaSpec, RoutePolicyKind,
        ServerConfig,
    };

    let cfg = CityConfig {
        districts_x: 2,
        districts_y: 1,
        agents: 160,
        seed: 31,
    };
    let base = city::generate(&cfg);
    let start = clock_to_step(8, 20);
    let steps = 12u32;

    let fleet = Arc::new(
        FleetConfig::new("city-mini", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::sim(
                ServerConfig::from_preset(presets::tiny_test(), 1, true),
                1_000_000.0,
            ))
            .with_replica(ReplicaSpec::replay(
                LatencyProfile::constant("prod", 20_000),
                5,
                None,
            ))
            .build(),
    );

    let space = base.space();
    let program = Arc::new(VillageProgram::with_step_offset(base, start));
    let initial = program.initial_positions();
    let graph = ShardedDepGraph::new(
        Arc::new(space),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &initial,
        Arc::new(cfg.shard_map(2)),
    )
    .expect("sharded graph");
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(steps));
    let report = run_threaded(
        &mut sched,
        Arc::clone(&program),
        Arc::clone(&fleet) as Arc<dyn LlmBackend>,
        ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        },
    )
    .expect("threaded city-over-fleet run");
    assert!(sched.is_done());
    assert_eq!(report.agent_steps, cfg.agents as u64 * steps as u64);
    assert!(sched.graph().validate().is_ok());

    // The report carries the full deployment identity…
    assert!(report.backend.contains("fleet(city-mini, round-robin"));
    assert!(
        report.backend.contains("realtime-sim"),
        "{}",
        report.backend
    );
    assert!(report.backend.contains("replay"), "{}", report.backend);
    // …and the fleet counters, replica by replica.
    let m = report.fleet.as_ref().expect("fleet metrics in the report");
    assert!(m.all_replicas_served(), "{m:?}");
    assert_eq!(m.total_served(), fleet.metrics().total_served());
    assert!(m.replicas[0].description.contains("realtime-sim"));
    assert!(m.replicas[1].description.contains("replay"));
    assert!(
        m.replicas.iter().any(|r| r.prefix.hits > 0),
        "repeated agent calls must hit the prefix cache somewhere: {m:?}"
    );

    let village = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();
    assert!(
        !village.events().is_empty(),
        "a commuting morning must produce events"
    );
}

#[test]
fn sharded_scheduler_matches_unsharded_on_a_small_city() {
    // The same world driven by a sharded and an unsharded scheduler must
    // agree — cheap enough to run wide (more steps, walking commuters).
    let cfg = CityConfig {
        districts_x: 3,
        districts_y: 1,
        agents: 240,
        seed: 31,
    };
    let base = city::generate(&cfg);
    let start = clock_to_step(8, 20);
    let steps = 30u32;

    let run = |village: Village, sharded: Option<usize>| -> Village {
        let space = village.space();
        let program = Arc::new(VillageProgram::with_step_offset(village, start));
        let initial = program.initial_positions();
        let backend = Arc::new(InstantBackend::new());
        let tcfg = ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        };
        match sharded {
            Some(n) => {
                let graph = ShardedDepGraph::new(
                    Arc::new(space),
                    RuleParams::genagent(),
                    Arc::new(Db::new()),
                    &initial,
                    Arc::new(cfg.shard_map(n)),
                )
                .expect("sharded graph");
                let mut sched =
                    Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(steps));
                run_threaded(&mut sched, Arc::clone(&program), backend, tcfg).expect("run");
                assert!(sched.graph().validate().is_ok());
                sched.graph().check_invariants();
            }
            None => {
                let mut sched = Scheduler::new(
                    Arc::new(space),
                    RuleParams::genagent(),
                    DependencyPolicy::Spatiotemporal,
                    Arc::new(Db::new()),
                    &initial,
                    Step(steps),
                )
                .expect("scheduler");
                run_threaded(&mut sched, Arc::clone(&program), backend, tcfg).expect("run");
                assert!(sched.graph().validate().is_ok());
            }
        }
        Arc::try_unwrap(program)
            .expect("workers joined")
            .into_village()
    };

    let unsharded = run(base.clone(), None);
    for shards in [2, 5] {
        let sharded = run(base.clone(), Some(shards));
        assert_eq!(sharded.positions(), unsharded.positions());
        assert_eq!(sharded.events(), unsharded.events());
    }
    assert!(
        !unsharded.events().is_empty(),
        "a commuting morning must produce events"
    );
}
