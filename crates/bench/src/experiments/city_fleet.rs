//! Close the loop at scale: the district **city** driven live through
//! the **serving fleet**, swept over routing policies.
//!
//! The paper's serving side (§4.1) notes that SGLang's prefix cache is
//! worth ~20% throughput when enabled; in a massive-agent city the gain
//! is *structural* — personas come from a small template pool and an
//! agent's own calls reuse its persona + memory prefix — but only if
//! routing keeps a prefix's requests on the replica that still holds
//! it. This experiment measures exactly that: one threaded city run per
//! [`RoutePolicyKind`] against the same mixed fleet (a virtual-time
//! simulated engine + a latency-replay replica), with per-replica
//! prefix LRUs sized *below* the agent population so policies that
//! scatter an agent's requests pay real evictions.
//!
//! A final arm re-runs prefix-affinity with a `fail_after` budget
//! ([`ReplicaSpec::fail_after`]) that kills the simulated replica
//! mid-run: the fleet retries the failed attempt and sheds all later
//! traffic to the survivor, so the run completes with exactly one
//! refused attempt and no lost world state.

use std::sync::Arc;

use aim_core::exec::threaded::ThreadedReport;
use aim_core::telemetry::Telemetry;
use aim_llm::{
    presets, Fleet, FleetConfig, FleetMetrics, LatencyProfile, LlmBackend, ReplicaSpec,
    RoutePolicyKind, ServerConfig,
};
use aim_world::city::{self, CityConfig};

use crate::experiments::city as city_exp;
use crate::harness::RunEnv;
use crate::table::{pct, Table};

/// Virtual seconds simulated per wall second on the sim replica — high
/// enough that pacing never dominates a 10k-agent sweep.
const TIME_SCALE: f64 = 5_000_000.0;

/// The policies the sweep compares (lane-aware is omitted: the city
/// issues no interactive traffic, so it degenerates to least-loaded).
const POLICIES: [RoutePolicyKind; 4] = [
    RoutePolicyKind::RoundRobin,
    RoutePolicyKind::LeastOutstanding,
    RoutePolicyKind::TokenWeighted,
    RoutePolicyKind::PrefixAffinity,
];

/// Per-replica prefix LRU capacity: 60% of the agent count, so a policy
/// only keeps an agent's prefix resident by *not* spraying the other
/// agents over the same replica (affinity halves a replica's working
/// set; round-robin does not).
fn cache_entries(agents: u32) -> u32 {
    (agents * 3 / 5).max(64)
}

/// The mixed fleet; the sim replica fails for good after
/// `sim_fail_after` attempts when that is set.
fn fleet_for(policy: RoutePolicyKind, agents: u32, sim_fail_after: Option<u64>) -> Arc<Fleet> {
    let mut sim = ReplicaSpec::sim(
        ServerConfig::from_preset(presets::tiny_test(), 1, true),
        TIME_SCALE,
    );
    if let Some(n) = sim_fail_after {
        sim = sim.fail_after(n);
    }
    Arc::new(
        FleetConfig::new("city", policy)
            .with_replica(sim)
            .with_replica(ReplicaSpec::replay(
                LatencyProfile::constant("prod", 40_000),
                11,
                None,
            ))
            .with_prefix_lru_entries(cache_entries(agents))
            .build(),
    )
}

struct Cell {
    wall_s: f64,
    metrics: FleetMetrics,
    report: ThreadedReport,
}

/// Drives one city run over `fleet` and returns wall time + counters.
/// With a `telemetry` sink, the run is observed end to end and the
/// unified report lands in `Cell::report.telemetry`.
fn drive(
    cfg: &CityConfig,
    village: aim_world::Village,
    shards: usize,
    steps: u32,
    fleet: Arc<Fleet>,
    telemetry: Option<Arc<Telemetry>>,
) -> Cell {
    let graph = city_exp::sharded(cfg, &village, shards);
    let live = city_exp::drive_live(village, graph, steps, fleet, None, |_| {}, telemetry);
    assert!(
        !live.village.events().is_empty(),
        "a live city must emit events"
    );
    let metrics = live.report.fleet.clone();
    Cell {
        wall_s: live.wall_s,
        metrics: metrics.expect("fleet backends report metrics"),
        report: live.report,
    }
}

fn push_rows(table: &mut Table, label: &str, agents: u32, cell: &Cell) {
    let m = &cell.metrics;
    table.push_row(vec![
        label.to_string(),
        agents.to_string(),
        format!("{:.2}", cell.wall_s),
        m.total_served().to_string(),
        pct(m.hit_rate()),
        pct(m.replicas[0].hit_rate()),
        pct(m.replicas[1].hit_rate()),
        format!("{:.1}", m.max_p99_us() as f64 / 1e3),
        m.total_failed().to_string(),
        m.replicas
            .iter()
            .map(|r| r.served.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    ]);
}

/// Runs the experiment; prints the table and writes `city_fleet.csv`.
///
/// # Panics
///
/// Panics on internal engine errors or a failed world validity check.
pub fn run(env: &RunEnv) {
    let sizes: &[(u32, u32, u32, usize)] = if env.quick {
        &[(512, 2, 2, 4)]
    } else {
        &[(1_024, 2, 2, 4), (10_048, 8, 8, 16)]
    };
    let steps = 6;

    let mut table = Table::new(
        "city_fleet",
        &[
            "policy",
            "agents",
            "wall s",
            "calls",
            "hit%",
            "r0 hit%",
            "r1 hit%",
            "p99 ms",
            "failed",
            "served r0/r1",
        ],
    );

    for &(agents, dx, dy, shards) in sizes {
        let cfg = CityConfig {
            districts_x: dx,
            districts_y: dy,
            agents,
            seed: 2_025,
        };
        println!(
            "city-fleet: generating {agents} agents over {dx}×{dy} districts (prefix LRU {} keys/replica)…",
            cache_entries(agents)
        );
        let base = city::generate(&cfg);
        for policy in POLICIES {
            let fleet = fleet_for(policy, agents, None);
            let sink = env.telemetry_sink();
            // `--serve` exposes this arm live, fleet gauges included.
            let _serve = env.status_guard(
                &format!("city-fleet-{agents}-{}", policy.as_str()),
                agents,
                sink.as_ref(),
                Some(Arc::clone(&fleet) as Arc<dyn LlmBackend>),
            );
            let cell = drive(&cfg, base.clone(), shards, steps, Arc::clone(&fleet), sink);
            println!("  [{} · {agents} agents]", policy.as_str());
            print!("{}", cell.report);
            if let Some(rt) = &cell.report.telemetry {
                env.export_telemetry(&format!("city-fleet-{agents}-{}", policy.as_str()), rt);
            }
            push_rows(&mut table, policy.as_str(), agents, &cell);
        }
        // Fault arm: the sim replica dies a quarter of the way through;
        // prefix-affinity + the retry loop must absorb it.
        let fail_after = agents as u64 * 3 / 2;
        let fleet = fleet_for(RoutePolicyKind::PrefixAffinity, agents, Some(fail_after));
        let sink = env.telemetry_sink();
        let _serve = env.status_guard(
            &format!("city-fleet-{agents}-affinity-fault"),
            agents,
            sink.as_ref(),
            Some(Arc::clone(&fleet) as Arc<dyn LlmBackend>),
        );
        let cell = drive(&cfg, base.clone(), shards, steps, Arc::clone(&fleet), sink);
        assert_eq!(
            cell.metrics.total_failed(),
            1,
            "the failure is absorbed by exactly one retried attempt"
        );
        assert!(cell.metrics.replicas[0].down, "sim replica must be down");
        println!("  [affinity+fault · {agents} agents] replica 0 failed and shed to replica 1");
        print!("{}", cell.report);
        if let Some(rt) = &cell.report.telemetry {
            env.export_telemetry(&format!("city-fleet-{agents}-affinity-fault"), rt);
        }
        push_rows(&mut table, "affinity+fault", agents, &cell);
    }

    print!("{}", table.render());
    println!(
        "prefix LRUs hold 60% of the agent population per replica, so hit rate is earned by \n\
         routing locality, not cache size; the fault row kills replica 0 mid-run."
    );
    match table.write_csv(&env.out_dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CityConfig {
        CityConfig {
            districts_x: 2,
            districts_y: 2,
            agents: 512,
            seed: 2_025,
        }
    }

    #[test]
    fn prefix_affinity_beats_round_robin_on_hit_rate() {
        // The experiment's core claim in miniature: with per-replica
        // prefix LRUs smaller than the agent population, affinity keeps
        // each agent's prefix resident while round-robin scatters and
        // evicts — the same mechanism the 10k sweep measures.
        let cfg = small_cfg();
        let base = city::generate(&cfg);
        let rr = drive(
            &cfg,
            base.clone(),
            4,
            4,
            fleet_for(RoutePolicyKind::RoundRobin, cfg.agents, None),
            None,
        );
        let aff = drive(
            &cfg,
            base,
            4,
            4,
            fleet_for(RoutePolicyKind::PrefixAffinity, cfg.agents, None),
            None,
        );
        assert!(rr.metrics.total_served() > 0 && aff.metrics.total_served() > 0);
        let (rr_rate, aff_rate) = (rr.metrics.hit_rate(), aff.metrics.hit_rate());
        assert!(
            aff_rate > rr_rate + 0.2,
            "affinity must materially beat round-robin: affinity {aff_rate:.3} vs rr {rr_rate:.3}"
        );
    }

    #[test]
    fn fault_arm_completes_with_one_retry() {
        let cfg = small_cfg();
        let base = city::generate(&cfg);
        let fleet = fleet_for(RoutePolicyKind::PrefixAffinity, cfg.agents, Some(200));
        let cell = drive(&cfg, base, 4, 4, Arc::clone(&fleet), None);
        assert_eq!(cell.metrics.total_failed(), 1, "{:?}", cell.metrics);
        assert!(cell.metrics.replicas[0].down);
        assert_eq!(cell.metrics.replicas[0].served, 200);
        assert!(cell.metrics.replicas[1].served > 0);
    }
}
