//! Shared runner for the agent-count scaling studies (Figs. 5, 6, 7).
//!
//! The paper concatenates SmallVille copies into one large ville (§4.3)
//! and benchmarks the busy hour (12pm–1pm, conversation-heavy) and quiet
//! hour (6am–7am, wake-up routines) at 25→1000 agents. `gpu-limit` is the
//! lower bound: the shorter of the `critical` path and the
//! `no-dependency` completion time.

use std::sync::Arc;

use aim_core::exec::sim::SimConfig;
use aim_llm::Preset;
use aim_trace::{critical, gen, oracle};

use crate::harness::{run_one, Mode, RunEnv};
use crate::table::{pct, secs, speedup, Table};

/// Which hour of the day a scaling run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// 12pm–1pm (≈5k calls per 25 agents; long conversations).
    Busy,
    /// 6am–7am (≈0.8k calls per 25 agents; wake-up routines).
    Quiet,
}

impl Window {
    fn label(self) -> &'static str {
        match self {
            Window::Busy => "busy",
            Window::Quiet => "quiet",
        }
    }

    fn cfg(self, villes: u32, seed: u64) -> gen::GenConfig {
        match self {
            Window::Busy => gen::GenConfig::busy_hour(villes, seed),
            Window::Quiet => gen::GenConfig::quiet_hour(villes, seed),
        }
    }
}

/// Runs the full scaling sweep for one hardware preset and prints/saves
/// one table per window.
pub fn run_scaling(env: &RunEnv, title: &str, preset: &Preset, gpu_counts: &[u32]) {
    let ville_counts: &[u32] = if env.quick { &[1, 4] } else { &[1, 4, 20, 40] };
    for window in [Window::Busy, Window::Quiet] {
        let mut t = Table::new(
            format!("{title} ({} hour)", window.label()),
            &[
                "agents",
                "gpus",
                "mode",
                "time (s)",
                "vs parallel-sync",
                "% of oracle",
                "parallelism",
            ],
        );
        for &villes in ville_counts {
            let trace = env.trace(&window.cfg(villes, 42));
            let graph = Arc::new(oracle::mine(&trace));
            let agents = trace.meta().num_agents;
            let cpu = SimConfig::default();
            let cp = critical::critical_path(
                &trace,
                &preset.cost,
                preset.prefill_chunk,
                cpu.step_cpu_us,
                cpu.commit_cpu_us,
            );
            for &gpus in gpu_counts {
                let modes = [
                    Mode::SingleThread,
                    Mode::ParallelSync,
                    Mode::Metropolis,
                    Mode::Oracle,
                    Mode::NoDependency,
                ];
                let runs: Vec<_> = modes
                    .iter()
                    .map(|&m| (m, run_one(&trace, m, preset, gpus, true, Some(&graph))))
                    .collect();
                let get = |m: Mode| {
                    runs.iter()
                        .find(|(mm, _)| *mm == m)
                        .map(|(_, r)| r)
                        .expect("ran")
                };
                let ps = get(Mode::ParallelSync).makespan.as_secs_f64();
                let or = get(Mode::Oracle).makespan.as_secs_f64();
                for (mode, r) in &runs {
                    let m = r.makespan.as_secs_f64();
                    t.push_row(vec![
                        agents.to_string(),
                        gpus.to_string(),
                        mode.label().to_string(),
                        secs(r.makespan),
                        speedup(ps / m),
                        pct(or / m),
                        format!("{:.2}", r.achieved_parallelism),
                    ]);
                }
                // gpu-limit = min(critical, no-dependency makespan).
                let nodep = get(Mode::NoDependency).makespan;
                let limit = nodep.min(cp.time);
                t.push_row(vec![
                    agents.to_string(),
                    gpus.to_string(),
                    "gpu-limit".into(),
                    secs(limit),
                    speedup(ps / limit.as_secs_f64()),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
        println!("{}", t.render());
        t.write_csv(&env.out_dir).ok();
    }
}
