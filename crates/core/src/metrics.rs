//! Run reports: the measurements the paper's evaluation is built from.

use aim_llm::{CallKind, ServerMetrics, VirtualTime};
use serde::{Deserialize, Serialize};

use crate::ids::{AgentId, Step};
use crate::scheduler::SchedStats;

/// One LLM call's lifetime on the timeline (Fig. 1's colored bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallSpan {
    /// Issuing agent.
    pub agent: AgentId,
    /// Step the call belongs to.
    pub step: Step,
    /// Agent function.
    pub kind: CallKind,
    /// Submission time.
    pub start: VirtualTime,
    /// Completion time.
    pub end: VirtualTime,
}

/// Optional recording of every call span plus step-commit marks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// All call spans, in completion order.
    pub spans: Vec<CallSpan>,
    /// `(step, commit time)` of every cluster commit.
    pub commits: Vec<(Step, VirtualTime)>,
}

impl Timeline {
    /// Renders an ASCII approximation of the paper's Fig. 1: one row per
    /// agent, colored by call kind (here: a letter per kind), over
    /// `columns` buckets of the run.
    pub fn render_ascii(&self, num_agents: usize, columns: usize) -> String {
        let end = self
            .spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(VirtualTime::ZERO)
            .as_micros()
            .max(1);
        let mut rows = vec![vec![b' '; columns]; num_agents];
        for span in &self.spans {
            let a = span.agent.index();
            if a >= num_agents {
                continue;
            }
            // A span ending exactly at the run end maps to bucket
            // `columns`, one past the last column — clamp both endpoints
            // so edge spans land in the final column instead of
            // disappearing (or indexing out of range).
            let last = columns - 1;
            let c0 = ((span.start.as_micros() * columns as u64 / end) as usize).min(last);
            let c1 = ((span.end.as_micros() * columns as u64 / end) as usize).min(last);
            let glyph = span.kind.as_str().as_bytes()[0].to_ascii_uppercase();
            for c in c0..=c1 {
                rows[a][c] = glyph;
            }
        }
        let mut out = String::new();
        for (a, row) in rows.iter().enumerate() {
            out.push_str(&format!("agent{a:>4} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push_str("|\n");
        }
        out
    }
}

/// The result of executing one simulation run.
///
/// In a hybrid run ([`crate::exec::hybrid::run_hybrid_sim`]) the
/// interactive stream may outlive the simulation, and the server is
/// drained either way: `makespan` is still the simulation's last commit,
/// while `server` covers the whole served interval, so
/// `achieved_parallelism` and `gpu_utilization` are averages over that
/// interval — up to the last completion of either kind — not over
/// `makespan`. Everywhere else the two intervals coincide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct RunReport {
    /// Policy label (`parallel-sync`, `metropolis`, …).
    pub mode: String,
    /// Completion time of the whole simulation.
    pub makespan: VirtualTime,
    /// Number of LLM calls issued.
    pub total_calls: u64,
    /// Sum of prompt tokens.
    pub total_input_tokens: u64,
    /// Sum of generated tokens.
    pub total_output_tokens: u64,
    /// The paper's achieved parallelism: average outstanding LLM requests
    /// over the execution (§4.2 reports 0.95 / 1.94 / 3.46 for
    /// single-thread / parallel-sync / metropolis at 25 agents, 8 GPUs).
    pub achieved_parallelism: f64,
    /// Average replica busy fraction.
    pub gpu_utilization: f64,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Serving-engine counters.
    pub server: Option<ServerMetrics>,
    /// Speculation accounting (present for speculative runs, §6).
    pub spec: Option<crate::spec::SpecReport>,
    /// Optional per-call timeline (Fig. 1).
    pub timeline: Option<Timeline>,
}

impl RunReport {
    /// Speedup of this run over `other` (by makespan). Below 1 it is the
    /// paper's "fraction of oracle performance" when `other` is the
    /// oracle.
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.makespan.as_secs_f64() / self.makespan.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan_us: u64) -> RunReport {
        RunReport {
            mode: "test".into(),
            makespan: VirtualTime::from_micros(makespan_us),
            total_calls: 0,
            total_input_tokens: 0,
            total_output_tokens: 0,
            achieved_parallelism: 0.0,
            gpu_utilization: 0.0,
            sched: SchedStats::default(),
            server: None,
            spec: None,
            timeline: None,
        }
    }

    #[test]
    fn speedup_and_fraction() {
        let fast = report(50);
        let slow = report(100);
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert_eq!(slow.speedup_over(&fast), 0.5);
    }

    #[test]
    fn timeline_ascii_shape() {
        let tl = Timeline {
            spans: vec![
                CallSpan {
                    agent: AgentId(0),
                    step: Step(0),
                    kind: CallKind::Plan,
                    start: VirtualTime::ZERO,
                    end: VirtualTime::from_micros(50),
                },
                CallSpan {
                    agent: AgentId(1),
                    step: Step(0),
                    kind: CallKind::Converse,
                    start: VirtualTime::from_micros(50),
                    end: VirtualTime::from_micros(100),
                },
            ],
            commits: vec![],
        };
        let art = tl.render_ascii(2, 20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('P'));
        assert!(lines[1].contains('C'));
        // Agent 0's bar occupies the left half, agent 1's the right.
        assert!(lines[0].find('P').unwrap() < lines[1].find('C').unwrap());
    }

    #[test]
    fn empty_timeline_renders() {
        let tl = Timeline::default();
        let art = tl.render_ascii(1, 10);
        assert!(art.contains("agent"));
    }

    #[test]
    fn span_ending_at_run_end_fills_last_column() {
        // Regression: `end == run_end` used to compute a bucket one past
        // the last column; the span must render through the final column.
        let tl = Timeline {
            spans: vec![CallSpan {
                agent: AgentId(0),
                step: Step(0),
                kind: CallKind::Plan,
                start: VirtualTime::from_micros(90),
                end: VirtualTime::from_micros(100),
            }],
            commits: vec![],
        };
        let art = tl.render_ascii(1, 10);
        let row = art.lines().next().unwrap();
        let bar = &row[row.find('|').unwrap() + 1..row.rfind('|').unwrap()];
        assert_eq!(bar.len(), 10);
        assert_eq!(bar.as_bytes()[9], b'P', "last column must be filled");
    }

    #[test]
    fn zero_width_span_at_run_end_still_renders() {
        // The degenerate edge case: a span whose start *and* end both sit
        // at the run end maps to an empty (previously out-of-range) bucket
        // range; after clamping it renders as one glyph in the last column.
        let tl = Timeline {
            spans: vec![
                CallSpan {
                    agent: AgentId(0),
                    step: Step(0),
                    kind: CallKind::Plan,
                    start: VirtualTime::ZERO,
                    end: VirtualTime::from_micros(100),
                },
                CallSpan {
                    agent: AgentId(1),
                    step: Step(1),
                    kind: CallKind::Converse,
                    start: VirtualTime::from_micros(100),
                    end: VirtualTime::from_micros(100),
                },
            ],
            commits: vec![],
        };
        let art = tl.render_ascii(2, 8);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[1].contains('C'), "edge span must not vanish");
        assert_eq!(lines[1].find('C').unwrap(), lines[1].rfind('C').unwrap());
    }
}
