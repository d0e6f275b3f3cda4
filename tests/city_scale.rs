//! The massive-agent acceptance bar: a **10,000+-agent city** replayed
//! under the threaded out-of-order executor on a sharded dependency
//! tracker must land in exactly the world a lock-step run produces —
//! positions, event log, conversation state. This is the OpenCity-scale
//! regime the `aim_core::shard` subsystem exists for; everything below
//! 10k is covered by the (cheaper) equivalence suite.

mod common;

use std::sync::{Arc, OnceLock};

use ai_metropolis::prelude::*;
use ai_metropolis::world::city::CityConfig;
use ai_metropolis::world::clock_to_step;
use ai_metropolis::world::Village;
use common::{assert_worlds_equal, live, lockstep, Layout, Live, Run, World};
use DependencyPolicy::Spatiotemporal;

/// Steps each 10k-agent test runs.
const STEPS: u32 = 6;

/// The default 10k+-agent city at the start of its workday and its
/// lock-step oracle, built once for both 10k tests.
fn ten_thousand_agent_city() -> &'static (World, Village) {
    static CITY: OnceLock<(World, Village)> = OnceLock::new();
    CITY.get_or_init(|| {
        let cfg = CityConfig::default();
        // Cold-start the workday: at 8am every agent's first plan fires
        // its wake chain, housemates couple into per-house clusters,
        // early commuters start walking — plenty of dependency structure,
        // no multi-hour warm-up.
        let world = World::city(&cfg, clock_to_step(8, 0));
        // Arm 1: the lock-step oracle (global synchronization, the
        // paper's Algorithm 1 semantics via the same plan/commit
        // pipeline).
        let oracle = lockstep(&world, STEPS);
        (world, oracle)
    })
}

/// Runs the default 10k+-agent city out of order over `layout`, a
/// 16-strip tracker, and holds it world for world to the lock-step
/// oracle; returns the out-of-order run.
fn ten_thousand_agent_city_equals_lockstep(layout: Layout) -> Live {
    let cfg = CityConfig::default();
    assert!(cfg.agents >= 10_000, "the bar is 10k+ agents");
    let (world, oracle) = ten_thousand_agent_city();
    assert_eq!(world.village.num_agents(), cfg.agents as usize);

    // Arm 2: out-of-order on the threaded runtime.
    let ooo = live(
        world.clone(),
        &Run::new(Spatiotemporal, STEPS, 4).on(layout),
    );
    assert_eq!(ooo.report.agent_steps, cfg.agents as u64 * u64::from(STEPS));
    let shards = 16usize;
    assert_eq!(ooo.shards.len(), shards);
    // Strip sharding must actually spread the population.
    let populated = ooo.shards.iter().filter(|m| !m.is_empty()).count();
    assert!(populated >= shards / 2, "only {populated} shards populated");

    // World-for-world equality with the lock-step oracle.
    assert_worlds_equal(&ooo.world, oracle);
    // A waking city is not silent — otherwise this proves nothing.
    assert!(
        oracle.events().len() > 5_000,
        "expected a city-scale morning, got {} events",
        oracle.events().len()
    );
    ooo
}

#[test]
fn ten_thousand_agent_city_ooo_equals_lockstep() {
    ten_thousand_agent_city_equals_lockstep(Layout::Sharded(16));
}

#[test]
fn ten_thousand_agent_city_on_isolated_workers_equals_lockstep() {
    // The same 10k+ bar as above, but with the dependency tracker split
    // into channel-isolated shard *workers* — each owning its members
    // and its own database, reachable only through the
    // typed message protocol. The scheduler and executor are unchanged;
    // the final world must still be exactly the lock-step world. The run
    // also checks the mirror against the workers' ground truth (quiesce
    // protocol) at full scale.
    let ooo = ten_thousand_agent_city_equals_lockstep(Layout::Dist(16));
    // Commit transactions really landed in the per-worker stores.
    assert!(ooo.commits > 0);
}

#[test]
fn city_through_fleet_serves_on_every_replica() {
    // The closed loop in miniature: a (small) district city driven
    // through a heterogeneous serving fleet — a simulated engine plus a
    // latency-replay replica — completes, both replicas serve traffic,
    // and the run's report surfaces each replica's describe() string and
    // prefix-cache counters.
    use ai_metropolis::llm::{
        presets, FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind, ServerConfig,
    };

    let cfg = CityConfig {
        districts_x: 2,
        districts_y: 1,
        agents: 160,
        seed: 31,
    };
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

    let run = Run::new(Spatiotemporal, steps, 4)
        .on(Layout::Sharded(2))
        .against(fleet.clone());
    let live = live(World::city(&cfg, clock_to_step(8, 20)), &run);
    let report = &live.report;
    assert_eq!(report.agent_steps, cfg.agents as u64 * steps as u64);

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

    assert!(
        !live.world.events().is_empty(),
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
    let world = World::city(&cfg, clock_to_step(8, 20));
    let run = Run::new(Spatiotemporal, 30, 4);

    let unsharded = live(world.clone(), &run);
    for shards in [2, 5] {
        let layout = Layout::Sharded(shards);
        let sharded = live(world.clone(), &run.clone().on(layout));
        assert_worlds_equal(&sharded.world, &unsharded.world);
    }
    assert!(
        !unsharded.world.events().is_empty(),
        "a commuting morning must produce events"
    );
}
