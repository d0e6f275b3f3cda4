//! Critical-path analysis (§4.2's `critical` lower bound).
//!
//! The simulation's dependency DAG contains chains of LLM calls that can
//! never be parallelized: an agent's calls within a step are sequential,
//! its steps are sequential, and (under the oracle's ground truth)
//! interacting agents barrier around the step where they meet. The longest
//! chain — "the path containing the most LLM input and output tokens" —
//! bounds completion time from below **regardless of available resources**.
//!
//! Two weights are provided: token-weighted (as the paper phrases it) and
//! time-weighted under a serving [`CostModel`] (what a run can actually be
//! compared against). The DAG is processed step-by-step with dynamic
//! programming over the oracle's per-step components, so mining a full
//! 8640-step day is linear in calls + pairs.

use aim_core::Step;
use aim_llm::{CostModel, VirtualTime};

use crate::format::Trace;
use crate::oracle;

/// The computed critical path of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CriticalPath {
    /// Input + output tokens along the heaviest chain.
    pub tokens: u64,
    /// Unloaded service time of that chain under the given cost model
    /// (includes the per-step CPU overheads supplied by the caller).
    pub time: VirtualTime,
}

/// Computes the critical path of `trace` under `cost`.
///
/// `step_cpu_us`/`commit_cpu_us` are the per-cluster-step dispatch and
/// commit overheads the executor also charges, so the bound stays
/// comparable with measured makespans; pass 0 for the pure-LLM bound.
///
/// The barriers are the interaction components [`oracle::mine`] finds for
/// each step: the same components the oracle policy runs.
///
/// # Example
///
/// ```no_run
/// use aim_llm::presets;
/// use aim_trace::{critical, gen};
///
/// let t = gen::generate(&gen::GenConfig::full_day(1));
/// let p = presets::l4_llama3_8b();
/// let cp = critical::critical_path(&t, &p.cost, p.prefill_chunk, 2_000, 1_000);
/// assert!(cp.tokens > 0);
/// ```
pub fn critical_path(
    trace: &Trace,
    cost: &CostModel,
    prefill_chunk: u32,
    step_cpu_us: u64,
    commit_cpu_us: u64,
) -> CriticalPath {
    let n = trace.meta().num_agents as usize;
    let steps = trace.meta().num_steps;
    let oracle = oracle::mine(trace);
    // dp over "completed step s" per agent; interacting agents barrier
    // around the step, so each step merges per connected component:
    // finish(c, s) = max_prev(component) + max_chain(component).
    let mut dp_time = vec![0u64; n]; // µs
    let mut dp_tokens = vec![0u64; n];
    let overhead = step_cpu_us + commit_cpu_us;
    let mut chain_t = vec![0u64; n];
    let mut chain_k = vec![0u64; n];
    for s in 0..steps {
        for a in 0..n {
            let mut t = overhead;
            let mut k = 0u64;
            for c in trace.chain(a as u32, s) {
                t += cost
                    .isolated_latency(c.input_tokens, c.output_tokens, prefill_chunk)
                    .as_micros();
                k += c.input_tokens as u64 + c.output_tokens as u64;
            }
            chain_t[a] = t;
            chain_k[a] = k;
        }
        for comp in oracle.components_at(Step(s)) {
            let max = |v: &[u64]| comp.iter().map(|&m| v[m as usize]).max().expect("nonempty");
            let t = max(&dp_time) + max(&chain_t);
            let k = max(&dp_tokens) + max(&chain_k);
            for &m in comp {
                dp_time[m as usize] = t;
                dp_tokens[m as usize] = k;
            }
        }
    }
    CriticalPath {
        tokens: dp_tokens.iter().copied().max().unwrap_or(0),
        time: VirtualTime::from_micros(dp_time.iter().copied().max().unwrap_or(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use aim_llm::presets;
    use aim_world::clock_to_step;

    fn hour_trace() -> Trace {
        generate(&GenConfig {
            villes: 1,
            agents_per_ville: 10,
            seed: 17,
            window_start: clock_to_step(9, 0),
            window_len: 90,
        })
    }

    #[test]
    fn critical_is_positive_and_below_serial_sum() {
        let t = hour_trace();
        let p = presets::tiny_test();
        let cp = critical_path(&t, &p.cost, p.prefill_chunk, 2_000, 1_000);
        assert!(cp.tokens > 0);
        // Serial sum of all chains strictly exceeds the critical path when
        // more than one agent does work.
        let serial: u64 = t
            .calls()
            .iter()
            .map(|c| {
                p.cost
                    .isolated_latency(c.input_tokens, c.output_tokens, p.prefill_chunk)
                    .as_micros()
            })
            .sum::<u64>()
            + (t.meta().num_steps as u64 * t.meta().num_agents as u64 * 3_000);
        assert!(
            cp.time.as_micros() < serial,
            "critical must beat full serialization"
        );
        // And it is at least the heaviest single agent's own serial chain.
        let agent0: u64 = (0..t.meta().num_steps)
            .flat_map(|s| t.chain(0, s))
            .map(|c| {
                p.cost
                    .isolated_latency(c.input_tokens, c.output_tokens, p.prefill_chunk)
                    .as_micros()
            })
            .sum::<u64>()
            + t.meta().num_steps as u64 * 3_000;
        assert!(cp.time.as_micros() >= agent0);
    }

    #[test]
    fn zero_overhead_reduces_bound() {
        let t = hour_trace();
        let p = presets::tiny_test();
        let with = critical_path(&t, &p.cost, p.prefill_chunk, 2_000, 1_000);
        let without = critical_path(&t, &p.cost, p.prefill_chunk, 0, 0);
        assert!(without.time < with.time);
        assert_eq!(without.tokens, with.tokens, "tokens ignore CPU overheads");
    }

    #[test]
    fn empty_trace_bounds_are_zero() {
        let t = generate(&GenConfig {
            villes: 1,
            agents_per_ville: 3,
            seed: 5,
            window_start: clock_to_step(2, 0), // everyone asleep
            window_len: 10,
        });
        assert_eq!(t.calls().len(), 0);
        let p = presets::tiny_test();
        let cp = critical_path(&t, &p.cost, p.prefill_chunk, 0, 0);
        assert_eq!(cp.tokens, 0);
        assert_eq!(cp.time, VirtualTime::ZERO);
    }
}
