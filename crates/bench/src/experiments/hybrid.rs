//! Hybrid interactive + offline deployment (paper §6 "Offline and
//! Interactive") — quantifying the QoS knobs.
//!
//! A player-facing chat stream shares the serving engine with the
//! background busy-hour simulation. Four server policies are compared:
//!
//! * **fifo** — no priorities at all: the player waits behind whatever
//!   simulation backlog exists.
//! * **step-priority** — the paper's §3.5 scheduling; interactive
//!   requests enter with step 0 and sort early, but still compete for
//!   batch slots with long background decodes.
//! * **lane** — lane-aware admission: interactive requests sort ahead of
//!   *all* background work.
//! * **lane+reserve** — additionally holds batch slots free per replica,
//!   so an arriving chat turn never waits for a background decode to
//!   drain (the §6 deployment: latency for the interactive part,
//!   throughput for the rest).
//!
//! Reported per policy and load intensity: interactive latency
//! percentiles and the background simulation's completion-time price.
//!
//! Two findings worth calling out (see EXPERIMENTS.md): `lane` ties
//! `step-priority` whenever the background simulation is deep into its
//! day — interactive requests enter at step 0 and §3.5's step priority
//! already sorts them first, so the dedicated lane only adds safety
//! against step-0 background work. The *reserve* is what actually moves
//! tail latency: without it a chat turn can wait a full background
//! decode (seconds); with it, admission happens at the next iteration
//! boundary (tens of milliseconds).

use std::sync::Arc;

use aim_core::exec::hybrid::{run_hybrid_sim, InteractiveLoad, InteractiveReport};
use aim_core::exec::sim::SimConfig;
use aim_core::metrics::RunReport;
use aim_core::policy::DependencyPolicy;
use aim_core::prelude::*;
use aim_core::workload::Workload;
use aim_llm::{presets, ServerConfig, SimServer};
use aim_store::Db;
use aim_trace::{gen, Trace};

use crate::harness::{RunEnv, WORKERS};
use crate::table::{secs, Table};

/// The four QoS arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Qos {
    Fifo,
    StepPriority,
    Lane,
    LaneReserve,
}

impl Qos {
    const ALL: [Qos; 4] = [Qos::Fifo, Qos::StepPriority, Qos::Lane, Qos::LaneReserve];

    fn label(self) -> &'static str {
        match self {
            Qos::Fifo => "fifo",
            Qos::StepPriority => "step-priority",
            Qos::Lane => "lane",
            Qos::LaneReserve => "lane+reserve",
        }
    }

    fn server(self, gpus: u32) -> ServerConfig {
        // A latency-bounded "game server" deployment: batch capped so a
        // decode iteration stays short enough for player-facing traffic.
        let preset = presets::l4_game_server();
        let replicas = preset.replicas_for_gpus(gpus);
        let reserve = preset.max_running / 4;
        match self {
            Qos::Fifo => ServerConfig::from_preset(preset, replicas, false),
            Qos::StepPriority => ServerConfig::from_preset(preset, replicas, true),
            Qos::Lane => ServerConfig::from_preset(preset, replicas, true).with_interactive_lane(0),
            Qos::LaneReserve => {
                ServerConfig::from_preset(preset, replicas, true).with_interactive_lane(reserve)
            }
        }
    }
}

fn run_arm(
    trace: &Trace,
    qos: Qos,
    gpus: u32,
    load: InteractiveLoad,
) -> (RunReport, InteractiveReport) {
    let meta = trace.meta();
    let initial: Vec<Point> = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    let mut sched = Scheduler::new(
        Arc::new(GridSpace::new(meta.map_width, meta.map_height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        DependencyPolicy::Spatiotemporal,
        Arc::new(Db::new()),
        &initial,
        Workload::target_step(trace),
    )
    .expect("scheduler");
    let mut server = SimServer::new(qos.server(gpus));
    let sim = SimConfig {
        max_concurrent_clusters: WORKERS,
        priority_ready_queue: qos != Qos::Fifo,
        ..SimConfig::default()
    };
    run_hybrid_sim(&mut sched, trace, &mut server, &load, &sim).expect("hybrid replay")
}

/// Runs the QoS comparison across interactive load intensities.
pub fn run(env: &RunEnv) {
    let gpus = 2;
    let villes = if env.quick { 2 } else { 8 };
    let trace = env.trace(&gen::GenConfig::busy_hour(villes, 42));
    let agents = trace.meta().num_agents;

    // Load intensities: casual (one turn every ~8s of virtual time),
    // engaged (~2s), frantic (~0.5s).
    let loads: &[(&str, u64)] = &[
        ("casual 1/8s", 8_000_000),
        ("engaged 1/2s", 2_000_000),
        ("frantic 2/s", 500_000),
    ];
    let count = if env.quick { 150 } else { 400 };

    // Baseline: the simulation alone (step-priority server, no stream).
    let baseline = run_arm(
        &trace,
        Qos::StepPriority,
        gpus,
        InteractiveLoad::chat(1, 0, 1),
    )
    .0;

    for (load_name, mean_us) in loads {
        let load = InteractiveLoad::chat(*mean_us, count, 7);
        let mut t = Table::new(
            format!("Hybrid QoS — {load_name} chat over {agents}-agent busy hour ({gpus} L4s)"),
            &[
                "policy",
                "chat p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "max (ms)",
                "sim time (s)",
                "sim slowdown",
            ],
        );
        for qos in Qos::ALL {
            let (bg, ir) = run_arm(&trace, qos, gpus, load);
            t.push_row(vec![
                qos.label().into(),
                format!("{:.0}", ir.p50_us as f64 / 1e3),
                format!("{:.0}", ir.p95_us as f64 / 1e3),
                format!("{:.0}", ir.p99_us as f64 / 1e3),
                format!("{:.0}", ir.max_us as f64 / 1e3),
                secs(bg.makespan),
                format!(
                    "{:+.1}%",
                    (bg.makespan.as_secs_f64() / baseline.makespan.as_secs_f64() - 1.0) * 100.0
                ),
            ]);
        }
        println!("{}", t.render());
        t.write_csv(&env.out_dir).ok();
    }
    println!(
        "The §6 hybrid deployment in numbers: lane-aware admission with a slot\n\
         reserve keeps player-facing latency flat under simulation load, paying\n\
         a bounded background-throughput price."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_world::clock_to_step;

    #[test]
    fn qos_ladder_improves_tail_latency() {
        let env = RunEnv {
            out_dir: std::env::temp_dir().join("aim-bench-hybrid-test"),
            ..RunEnv::default()
        };
        let trace = env.trace(&gen::GenConfig {
            villes: 2,
            agents_per_ville: 25,
            seed: 5,
            window_start: clock_to_step(12, 0),
            window_len: 60,
        });
        // A demanding stream against a single batch-capped game GPU.
        let load = InteractiveLoad::chat(1_000_000, 60, 11);
        let (_, fifo) = run_arm(&trace, Qos::Fifo, 1, load);
        let (_, reserve) = run_arm(&trace, Qos::LaneReserve, 1, load);
        assert!(
            reserve.p95_us < fifo.p95_us,
            "QoS must beat FIFO tail latency: {} vs {}",
            reserve.p95_us,
            fifo.p95_us
        );
        assert_eq!(fifo.count, 60);
        assert_eq!(reserve.count, 60);
    }
}
