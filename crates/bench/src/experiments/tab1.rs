//! Table 1: priority-scheduling ablation.
//!
//! Busy hour, 500 agents, 4 and 8 L4 GPUs, `metropolis` and `oracle`, with
//! priority scheduling on and off (both the engine's ready/ack queues and
//! the serving engine's admission order). Paper: priority buys metropolis
//! 3.84% (4 GPUs) and 15.7% (8 GPUs), but the oracle almost nothing
//! (1.10% / 0.11%) because its dependency graph is already sparse.

use std::sync::Arc;

use aim_llm::presets;
use aim_trace::{gen, oracle};

use crate::harness::{run_one, Mode, RunEnv};
use crate::table::{pct, secs, Table};

/// Runs the Table 1 ablation.
pub fn run(env: &RunEnv) {
    let villes = if env.quick { 4 } else { 20 };
    let trace = env.trace(&gen::GenConfig::busy_hour(villes, 42));
    let graph = Arc::new(oracle::mine(&trace));
    let preset = presets::l4_llama3_8b();
    let mut t = Table::new(
        format!(
            "Table 1: priority scheduling ({} agents, busy hour)",
            trace.meta().num_agents
        ),
        &[
            "gpus",
            "mode",
            "w/ priority (s)",
            "w/o priority (s)",
            "priority speedup",
            "par w/",
            "par w/o",
        ],
    );
    for gpus in [4u32, 8] {
        for mode in [Mode::Metropolis, Mode::Oracle] {
            let with = run_one(&trace, mode, &preset, gpus, true, Some(&graph));
            let without = run_one(&trace, mode, &preset, gpus, false, Some(&graph));
            let gain = without.makespan.as_secs_f64() / with.makespan.as_secs_f64() - 1.0;
            t.push_row(vec![
                gpus.to_string(),
                mode.label().to_string(),
                secs(with.makespan),
                secs(without.makespan),
                pct(gain),
                format!("{:.1}", with.achieved_parallelism),
                format!("{:.1}", without.achieved_parallelism),
            ]);
        }
    }
    println!("{}", t.render());
    t.write_csv(&env.out_dir).ok();
}
