//! Aggregate trace statistics — the numbers §4.1 reports about the
//! GenAgent workload, recomputed for any trace.

use aim_llm::CallKind;

use crate::format::Trace;
use crate::oracle;

/// Summary statistics of a trace (see [`compute`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TraceStats {
    /// Total LLM calls.
    pub total_calls: u64,
    /// Mean prompt length in tokens (paper: 642.6).
    pub mean_input_tokens: f64,
    /// Mean generation length in tokens (paper: 21.9).
    pub mean_output_tokens: f64,
    /// Calls per [`CallKind`], indexed by [`CallKind::index`].
    pub calls_per_kind: [u64; 7],
    /// Calls per simulated hour of day (24 buckets, using the trace's
    /// absolute `start_step`) — Fig. 4c.
    pub calls_per_hour: [u64; 24],
    /// Coefficient of variation of per-agent call counts (workload
    /// imbalance, §2.2).
    pub agent_cv: f64,
    /// Average prior-step dependencies per agent incl. self (paper: 1.85).
    pub avg_dependencies: f64,
    /// Mean calls per agent-step that has at least one call.
    pub mean_chain_len: f64,
}

/// Computes [`TraceStats`] for `trace`.
pub fn compute(trace: &Trace) -> TraceStats {
    let calls = trace.calls();
    let total = calls.len() as u64;
    let mut in_sum = 0u64;
    let mut out_sum = 0u64;
    let mut per_kind = [0u64; 7];
    let mut per_hour = [0u64; 24];
    let mut per_agent = vec![0u64; trace.meta().num_agents as usize];
    // Calls are sorted by (step, agent): each chain is one run.
    let mut chains = 0u64;
    let mut last = None;
    for c in calls {
        in_sum += c.input_tokens as u64;
        out_sum += c.output_tokens as u64;
        per_kind[c.kind.index()] += 1;
        let abs = trace.meta().start_step + c.step;
        per_hour[((abs / aim_world::STEPS_PER_HOUR) % 24) as usize] += 1;
        per_agent[c.agent as usize] += 1;
        if last != Some((c.step, c.agent)) {
            last = Some((c.step, c.agent));
            chains += 1;
        }
    }
    let n = total.max(1) as f64;
    let mean = per_agent.iter().sum::<u64>() as f64 / per_agent.len().max(1) as f64;
    let var = per_agent
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / per_agent.len().max(1) as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    let mean_chain_len = if chains == 0 {
        0.0
    } else {
        total as f64 / chains as f64
    };
    TraceStats {
        total_calls: total,
        mean_input_tokens: in_sum as f64 / n,
        mean_output_tokens: out_sum as f64 / n,
        calls_per_kind: per_kind,
        calls_per_hour: per_hour,
        agent_cv: cv,
        avg_dependencies: oracle::mine(trace).avg_dependencies(),
        mean_chain_len,
    }
}

/// Renders the Fig. 4c histogram (calls per simulated hour) as an ASCII
/// bar chart.
pub fn render_hourly(stats: &TraceStats, width: usize) -> String {
    let max = *stats.calls_per_hour.iter().max().unwrap_or(&1);
    let mut out = String::new();
    for (h, &count) in stats.calls_per_hour.iter().enumerate() {
        let bar = if max == 0 {
            0
        } else {
            (count as usize * width) / max as usize
        };
        out.push_str(&format!(
            "{h:>2}:00 |{:<width$}| {count}\n",
            "#".repeat(bar)
        ));
    }
    out
}

/// Per-kind call mix as `(kind, count, fraction)` rows.
pub fn kind_mix(stats: &TraceStats) -> Vec<(CallKind, u64, f64)> {
    let total = stats.total_calls.max(1) as f64;
    CallKind::ALL
        .into_iter()
        .map(|k| {
            let c = stats.calls_per_kind[k.index()];
            (k, c, c as f64 / total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use aim_world::clock_to_step;

    #[test]
    fn stats_on_generated_window() {
        let t = generate(&GenConfig {
            villes: 1,
            agents_per_ville: 10,
            seed: 13,
            window_start: clock_to_step(10, 0),
            window_len: 180,
        });
        let s = compute(&t);
        assert_eq!(s.total_calls, t.calls().len() as u64);
        assert!(
            s.mean_input_tokens > 300.0,
            "inputs too short: {}",
            s.mean_input_tokens
        );
        assert!(s.mean_output_tokens < 80.0);
        assert!(s.mean_chain_len >= 1.0);
        // All calls fall in hours 10–12.
        let outside: u64 = s
            .calls_per_hour
            .iter()
            .enumerate()
            .filter(|(h, _)| !(10..13).contains(h))
            .map(|(_, c)| *c)
            .sum();
        assert_eq!(outside, 0);
    }

    #[test]
    fn hourly_render_shape() {
        let t = generate(&GenConfig {
            villes: 1,
            agents_per_ville: 5,
            seed: 2,
            window_start: clock_to_step(9, 0),
            window_len: 60,
        });
        let s = compute(&t);
        let art = render_hourly(&s, 30);
        assert_eq!(art.lines().count(), 24);
        assert!(art.contains(" 9:00"));
    }

    #[test]
    fn kind_mix_fractions_sum_to_one() {
        let t = generate(&GenConfig {
            villes: 1,
            agents_per_ville: 10,
            seed: 8,
            window_start: clock_to_step(11, 30),
            window_len: 120,
        });
        let s = compute(&t);
        let mix = kind_mix(&s);
        let total: f64 = mix.iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Perception dominates the GenAgent-style loop.
        let perceive = mix
            .iter()
            .find(|(k, _, _)| *k == CallKind::Perceive)
            .unwrap();
        assert!(
            perceive.2 > 0.2,
            "perceive fraction {:.2} too low",
            perceive.2
        );
    }
}
