//! Speculative execution (paper §6 "Conservative or Speculative
//! Execution") — the future-work design, measured.
//!
//! The paper observes a gap between AI Metropolis and the `oracle` arm
//! caused by the conservative §3.2 rules, and suggests speculative
//! execution with race detection could bridge it, at the price of wasted
//! work and scalability risk. This experiment quantifies that trade:
//!
//! * **Arms table** — `parallel-sync`, conservative `metropolis`,
//!   `spec(k)` for increasing run-ahead budgets, and `oracle`, over the
//!   busy-hour workload. Speculation should land between metropolis and
//!   oracle, converging toward oracle as the budget grows.
//! * **Waste table** — per budget: discarded executions, wasted tokens,
//!   and the fraction of oracle's remaining headroom recovered.
//!
//! Where the gap is already small (large agent counts, §4.3), speculation
//! buys little — matching the paper's argument for staying conservative.

use std::sync::Arc;

use aim_llm::presets;
use aim_trace::{gen, oracle};

use crate::harness::{run_one, run_one_spec, Mode, RunEnv};
use crate::table::{pct, secs, Table};

const BUDGETS: [u32; 4] = [1, 2, 4, 8];

/// Runs the speculation comparison and the run-ahead sweep.
pub fn run(env: &RunEnv) {
    let preset = presets::l4_llama3_8b();
    let scales: &[(u32, u32)] = if env.quick {
        &[(1, 4)] // (villes, gpus)
    } else {
        &[(1, 4), (1, 8), (4, 8)]
    };

    for &(villes, gpus) in scales {
        let trace = env.trace(&gen::GenConfig::busy_hour(villes, 42));
        let agents = trace.meta().num_agents;
        let graph = Arc::new(oracle::mine(&trace));

        let sync = run_one(&trace, Mode::ParallelSync, &preset, gpus, true, None);
        let cons = run_one(&trace, Mode::Metropolis, &preset, gpus, true, None);
        let orac = run_one(&trace, Mode::Oracle, &preset, gpus, true, Some(&graph));

        let mut t = Table::new(
            format!("Speculation vs conservative ({agents} agents, busy hour, {gpus} L4s)"),
            &[
                "mode",
                "time (s)",
                "vs parallel-sync",
                "% of oracle",
                "parallelism",
                "waste tok%",
                "squashed",
            ],
        );
        let gap = |makespan: f64| {
            // Fraction of oracle performance, as the paper reports it.
            orac.makespan.as_secs_f64() / makespan
        };
        t.push_row(vec![
            "parallel-sync".into(),
            secs(sync.makespan),
            pct(1.0),
            pct(gap(sync.makespan.as_secs_f64())),
            format!("{:.2}", sync.achieved_parallelism),
            "-".into(),
            "-".into(),
        ]);
        t.push_row(vec![
            "metropolis".into(),
            secs(cons.makespan),
            pct(sync.makespan.as_secs_f64() / cons.makespan.as_secs_f64()),
            pct(gap(cons.makespan.as_secs_f64())),
            format!("{:.2}", cons.achieved_parallelism),
            "-".into(),
            "-".into(),
        ]);
        for budget in BUDGETS {
            let r = run_one_spec(&trace, budget, &preset, gpus, true);
            let sr = r.spec.as_ref().expect("speculative run reports spec stats");
            t.push_row(vec![
                format!("spec({budget})"),
                secs(r.makespan),
                pct(sync.makespan.as_secs_f64() / r.makespan.as_secs_f64()),
                pct(gap(r.makespan.as_secs_f64())),
                format!("{:.2}", r.achieved_parallelism),
                pct(sr.waste_fraction(r.total_input_tokens, r.total_output_tokens)),
                format!("{}", sr.stats.squashed_steps + sr.stats.poisoned_steps),
            ]);
        }
        t.push_row(vec![
            "oracle".into(),
            secs(orac.makespan),
            pct(sync.makespan.as_secs_f64() / orac.makespan.as_secs_f64()),
            pct(1.0),
            format!("{:.2}", orac.achieved_parallelism),
            "-".into(),
            "-".into(),
        ]);
        println!("{}", t.render());
        t.write_csv(&env.out_dir).ok();

        // Headroom recovery: how much of the metropolis→oracle gap the
        // best budget closes.
        let best = BUDGETS
            .iter()
            .map(|&b| run_one_spec(&trace, b, &preset, gpus, true).makespan)
            .min()
            .expect("budgets non-empty");
        let gap_total = cons.makespan.as_secs_f64() - orac.makespan.as_secs_f64();
        if gap_total > 1e-9 {
            let recovered = (cons.makespan.as_secs_f64() - best.as_secs_f64()) / gap_total;
            println!(
                "Oracle headroom at {agents} agents / {gpus} GPUs: {:.1}s; speculation \
                 recovers {:.0}% of it.\n",
                gap_total,
                recovered * 100.0
            );
        } else {
            println!(
                "No oracle headroom left at {agents} agents / {gpus} GPUs — speculation \
                 cannot help (the paper's large-scale regime).\n"
            );
        }
    }

    // Table 1 revisited under speculation. For the conservative engine,
    // §4.4 reports priority as a modest contention win. For the
    // speculative engine it turns out to be *load-bearing*: without
    // lowest-step-first serving, run-ahead requests crowd laggards out
    // of the engine, laggards commit late, their commits squash the
    // run-ahead work that delayed them, and the re-executions flood the
    // queue again — a waste feedback loop (~5x completion time and ~17%
    // wasted tokens at 500 agents, vs a 1.9% priority effect for the
    // conservative engine). Priority serves laggards first and caps the
    // loop. Needs Table 1's 500-agent contention to show (quick runs
    // reuse the small trace and print ~0%).
    let (villes, gpus) = if env.quick { scales[0] } else { (20, 8) };
    let trace = env.trace(&gen::GenConfig::busy_hour(villes, 42));
    let agents = trace.meta().num_agents;
    let mut t = Table::new(
        format!("Priority × speculation ({agents} agents, busy hour, {gpus} L4s)"),
        &[
            "engine",
            "w/ priority (s)",
            "w/o priority (s)",
            "priority gain",
            "waste w/o",
        ],
    );
    let cons_on = run_one(&trace, Mode::Metropolis, &preset, gpus, true, None);
    let cons_off = run_one(&trace, Mode::Metropolis, &preset, gpus, false, None);
    t.push_row(vec![
        "metropolis".into(),
        secs(cons_on.makespan),
        secs(cons_off.makespan),
        pct(cons_off.makespan.as_secs_f64() / cons_on.makespan.as_secs_f64() - 1.0),
        "-".into(),
    ]);
    let spec_on = run_one_spec(&trace, 4, &preset, gpus, true);
    let spec_off = run_one_spec(&trace, 4, &preset, gpus, false);
    let sr_off = spec_off.spec.as_ref().expect("spec stats");
    t.push_row(vec![
        "spec(4)".into(),
        secs(spec_on.makespan),
        secs(spec_off.makespan),
        pct(spec_off.makespan.as_secs_f64() / spec_on.makespan.as_secs_f64() - 1.0),
        pct(sr_off.waste_fraction(spec_off.total_input_tokens, spec_off.total_output_tokens)),
    ]);
    println!("{}", t.render());
    t.write_csv(&env.out_dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_world::clock_to_step;

    #[test]
    fn speculation_lands_between_conservative_and_oracle() {
        let env = RunEnv {
            out_dir: std::env::temp_dir().join("aim-bench-spec-test"),
            ..RunEnv::default()
        };
        let trace = env.trace(&gen::GenConfig {
            villes: 1,
            agents_per_ville: 12,
            seed: 9,
            window_start: clock_to_step(12, 0),
            window_len: 60,
        });
        let preset = presets::tiny_test();
        let graph = Arc::new(oracle::mine(&trace));
        let cons = run_one(&trace, Mode::Metropolis, &preset, 2, true, None);
        let orac = run_one(&trace, Mode::Oracle, &preset, 2, true, Some(&graph));
        let spec = run_one_spec(&trace, 4, &preset, 2, true);
        assert!(
            spec.makespan <= cons.makespan,
            "speculation must not lose to conservative: {} vs {}",
            spec.makespan,
            cons.makespan
        );
        // The oracle bound may be beaten slightly only through measurement
        // artifacts of CPU costs; allow equality-with-slack.
        assert!(
            spec.makespan.as_secs_f64() >= orac.makespan.as_secs_f64() * 0.95,
            "speculation cannot meaningfully beat ground-truth dependencies"
        );
        let sr = spec.spec.expect("spec stats present");
        assert_eq!(
            sr.stats.retired_steps,
            trace.meta().num_agents as u64
                * aim_core::workload::Workload::target_step(&trace).0 as u64
        );
    }

    #[test]
    fn runahead_zero_equals_metropolis() {
        let env = RunEnv {
            out_dir: std::env::temp_dir().join("aim-bench-spec-test"),
            ..RunEnv::default()
        };
        let trace = env.trace(&gen::GenConfig {
            villes: 1,
            agents_per_ville: 8,
            seed: 4,
            window_start: clock_to_step(8, 0),
            window_len: 30,
        });
        let preset = presets::tiny_test();
        let cons = run_one(&trace, Mode::Metropolis, &preset, 1, true, None);
        let spec0 = run_one_spec(&trace, 0, &preset, 1, true);
        assert_eq!(cons.makespan, spec0.makespan);
        assert_eq!(cons.total_calls, spec0.total_calls);
    }
}
