//! Figure 4: full-day SmallVille simulation (25 agents).
//!
//! * **4a** — Llama-3-8B on 1–8 NVIDIA L4 GPUs (data parallel): completion
//!   time for `single-thread`, `parallel-sync`, `metropolis`, `oracle`,
//!   plus the `critical` lower bound. Paper headline: metropolis beats
//!   single-thread 2.38× and parallel-sync 1.44× on one GPU, growing to
//!   3.25× / 1.67× on eight; achieved parallelism 0.95 / 1.94 / 3.46;
//!   74.7–82.9% of oracle.
//! * **4b** — Llama-3-70B TP4 on A100s (4 GPUs = 1 replica, 8 = 2):
//!   2.45× / 1.45×, ≈82% of oracle on 8 GPUs.
//! * **4c** — LLM calls per simulated hour (the diurnal histogram).

use aim_core::exec::sim::SimConfig;
use aim_llm::presets;
use aim_trace::{critical, gen, stats};

use crate::harness::{run_modes, Mode, RunEnv};
use crate::table::{pct, secs, speedup, Table};

fn day_cfg(env: &RunEnv) -> gen::GenConfig {
    let mut cfg = gen::GenConfig::full_day(42);
    if env.quick {
        // Quick mode: two busy hours instead of a whole day.
        cfg.window_start = gen::hour(11);
        cfg.window_len = gen::hour(2);
    }
    cfg
}

fn run_fig4(env: &RunEnv, title: &str, preset: &aim_llm::Preset, gpu_counts: &[u32]) {
    let trace = env.trace(&day_cfg(env));
    let cpu = SimConfig::default();
    let cp = critical::critical_path(
        &trace,
        &preset.cost,
        preset.prefill_chunk,
        cpu.step_cpu_us,
        cpu.commit_cpu_us,
    );
    let mut t = Table::new(
        title,
        &[
            "gpus",
            "mode",
            "time (s)",
            "vs single-thread",
            "vs parallel-sync",
            "% of oracle",
            "parallelism",
            "gpu util",
        ],
    );
    for &gpus in gpu_counts {
        let runs = run_modes(&trace, &Mode::figure4(), preset, gpus, true);
        let get = |m: Mode| &runs.iter().find(|(mm, _)| *mm == m).expect("ran").1;
        let st = get(Mode::SingleThread).makespan.as_secs_f64();
        let ps = get(Mode::ParallelSync).makespan.as_secs_f64();
        let or = get(Mode::Oracle).makespan.as_secs_f64();
        for (mode, r) in &runs {
            let m = r.makespan.as_secs_f64();
            t.push_row(vec![
                gpus.to_string(),
                mode.label().to_string(),
                secs(r.makespan),
                speedup(st / m),
                speedup(ps / m),
                pct(or / m),
                format!("{:.2}", r.achieved_parallelism),
                pct(r.gpu_utilization),
            ]);
        }
        t.push_row(vec![
            gpus.to_string(),
            "critical (bound)".into(),
            secs(cp.time),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    println!("{}", t.render());
    t.write_csv(&env.out_dir).ok();
}

/// Fig. 4a: Llama-3-8B on L4s.
pub fn run_a(env: &RunEnv) {
    let gpus: &[u32] = if env.quick { &[1, 8] } else { &[1, 2, 4, 8] };
    run_fig4(
        env,
        "Fig 4a: full day, Llama-3-8B on L4 GPUs",
        &presets::l4_llama3_8b(),
        gpus,
    );
}

/// Fig. 4b: Llama-3-70B TP4 on A100s.
pub fn run_b(env: &RunEnv) {
    run_fig4(
        env,
        "Fig 4b: full day, Llama-3-70B TP4 on A100 GPUs",
        &presets::a100_tp4_llama3_70b(),
        &[4, 8],
    );
}

/// Fig. 4c: query distribution over simulated hours.
pub fn run_c(env: &RunEnv) {
    let trace = env.trace(&gen::GenConfig::full_day(42));
    let s = stats::compute(&trace);
    let mut t = Table::new("Fig 4c: LLM calls per simulated hour", &["hour", "calls"]);
    for (h, &c) in s.calls_per_hour.iter().enumerate() {
        t.push_row(vec![format!("{h:02}:00"), c.to_string()]);
    }
    println!("{}", stats::render_hourly(&s, 50));
    t.write_csv(&env.out_dir).ok();
    println!(
        "total calls: {} | mean input: {:.1} tok | mean output: {:.1} tok | avg deps/agent: {:.2}",
        s.total_calls, s.mean_input_tokens, s.mean_output_tokens, s.avg_dependencies
    );
}
