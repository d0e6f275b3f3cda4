//! Figure 1: a snippet of the execution trace of a simulation.
//!
//! The paper's figure shows per-agent streams of LLM invocations over
//! ~500 s of execution under step-synchronized scheduling, with dashed
//! vertical lines at step completions: a few agents dominate each step
//! while the rest idle at the barrier. We reproduce it as ASCII art from a
//! timeline-recorded `parallel-sync` replay, and report the achieved
//! parallelism alongside (paper §2.2 measures just 1.94 on average).

use std::sync::Arc;

use aim_core::exec::sim::{run_sim, SimConfig};
use aim_core::metrics::RunReport;
use aim_core::prelude::*;
use aim_core::workload::Workload;
use aim_llm::presets;
use aim_trace::gen;

use crate::harness::RunEnv;
use crate::table::Table;

/// Runs the Fig. 1 reproduction.
pub fn run(env: &RunEnv) {
    // A lunchtime slice: 15 simulated minutes of the busy hour.
    let trace = env.trace(&gen::GenConfig {
        villes: 1,
        agents_per_ville: 25,
        seed: 42,
        window_start: gen::hour(12),
        window_len: 90,
    });
    let mut report = replay_with_timeline(&trace);
    let timeline = report.timeline.take().expect("timeline recorded");
    println!("Execution trace snippet (parallel-sync, 25 agents, lunch time)");
    println!("P=perceive R=retrieve/reflect C=converse S=summarize; each row = one agent\n");
    println!("{}", timeline.render_ascii(25, 100));
    let mut t = Table::new("Fig 1: execution snippet summary", &["metric", "value"]);
    t.push_row(vec!["window (sim steps)".into(), "90".into()]);
    t.push_row(vec!["llm calls".into(), report.total_calls.to_string()]);
    t.push_row(vec![
        "cluster commits".into(),
        timeline.commits.len().to_string(),
    ]);
    t.push_row(vec![
        "achieved parallelism".into(),
        format!("{:.2}", report.achieved_parallelism),
    ]);
    t.push_row(vec![
        "makespan (s)".into(),
        format!("{:.1}", report.makespan.as_secs_f64()),
    ]);
    println!("{}", t.render());
    t.write_csv(&env.out_dir).ok();
}

fn replay_with_timeline(trace: &aim_trace::Trace) -> RunReport {
    let sim = SimConfig {
        record_timeline: true,
        ..SimConfig::default()
    };
    let meta = trace.meta();
    let initial: Vec<_> = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    let mut scheduler = Scheduler::new(
        Arc::new(GridSpace::new(meta.map_width, meta.map_height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        DependencyPolicy::GlobalSync,
        Arc::new(aim_store::Db::new()),
        &initial,
        Workload::target_step(trace),
    )
    .expect("scheduler");
    let mut server = aim_llm::SimServer::new(aim_llm::ServerConfig::from_preset(
        presets::l4_llama3_8b(),
        1,
        true,
    ));
    run_sim(&mut scheduler, trace, &mut server, &sim).expect("replay")
}
