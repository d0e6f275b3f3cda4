//! The unified run report ([`RunTelemetry`]): per-phase histograms, the
//! paper-shaped wall-clock [`Decomposition`], and the ranked
//! [`StallEdge`]s behind its Fig. 1 straggler chains.

use std::collections::BTreeMap;

use aim_llm::{FleetMetrics, ServerMetrics, VirtualTime};

use super::schema::{BlockReason, Counter, Phase, Span, SpanKind};
use crate::ids::{AgentId, Step};
use crate::metrics::{CallSpan, Timeline};
use crate::scheduler::SchedStats;

/// One named per-worker track in a merged report: which Perfetto track a
/// harvested worker's spans landed on, and how many of its spans were
/// lost before reaching the report (worker-local buffer overflow plus
/// controller-side ingest overflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTrack {
    /// Track id carried by this worker's spans.
    pub track: u32,
    /// Display name for the track (becomes the Perfetto thread name).
    pub name: String,
    /// Spans lost before reaching this report.
    pub dropped: u64,
}

/// A latency histogram over log₂ buckets (same idiom as the fleet's
/// per-replica p99): bucket `b` holds durations in `[2^(b-1), 2^b)` µs,
/// with bucket 0 holding sub-µs durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseHistogram {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Longest single span, µs.
    pub max_us: u64,
    /// Log₂ duration buckets.
    pub buckets: [u64; PhaseHistogram::BUCKETS],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            count: 0,
            total_us: 0,
            max_us: 0,
            buckets: [0; PhaseHistogram::BUCKETS],
        }
    }
}

impl PhaseHistogram {
    /// Number of log₂ buckets (covers durations beyond 2³⁹ µs ≈ 6 days).
    pub const BUCKETS: usize = 40;

    /// Records one duration.
    pub fn record(&mut self, us: u64) {
        let b = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(Self::BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean duration, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket holding the `p`-th percentile
    /// (`0 < p <= 100`); 0 when empty.
    pub fn percentile_us(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * u64::from(p.clamp(1, 100))).div_ceil(100);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << b;
            }
        }
        1u64 << (Self::BUCKETS - 1)
    }

    /// Upper bound (µs) of the bucket holding the 99th percentile.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(99)
    }
}

/// The paper-shaped wall-clock decomposition (§2, Fig. 1): where agent
/// time went, aggregated over `agents` agents each observed for
/// `wall_us`.
///
/// `llm_us`, `blocked_us`, and `checkpoint_us` are measured from spans
/// (checkpoint barriers stall every agent, so each barrier is charged to
/// all agents); `overhead_us` is the **residual** — time an agent was
/// neither running an LLM call, waiting on a dependency/barrier, nor
/// stalled behind a checkpoint, which in this engine is by construction
/// controller bookkeeping, relink/migration, and dispatch latency. The
/// four categories therefore always cover the full wall budget (the
/// measured sub-components are still available in
/// [`RunTelemetry::phases`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decomposition {
    /// Agents aggregated over.
    pub agents: u32,
    /// Per-agent observation window, µs (the run's wall time).
    pub wall_us: u64,
    /// Time inside LLM calls, summed over agents, µs.
    pub llm_us: u64,
    /// Time blocked on dependencies or cluster barriers, summed, µs.
    pub blocked_us: u64,
    /// Controller/relink overhead (residual), summed, µs.
    pub overhead_us: u64,
    /// Time stalled behind quiesce+checkpoint barriers, summed, µs.
    pub checkpoint_us: u64,
}

impl Decomposition {
    /// Total budget: `agents × wall_us`.
    pub fn budget_us(&self) -> u64 {
        u64::from(self.agents) * self.wall_us
    }

    /// Sum of the four categories.
    pub fn total_us(&self) -> u64 {
        self.llm_us + self.blocked_us + self.overhead_us + self.checkpoint_us
    }

    /// Fraction of the wall budget the four categories cover, in
    /// `[0, 1]` — the acceptance gate asks for ≥ 0.95.
    pub fn coverage(&self) -> f64 {
        self.frac(self.total_us())
    }

    fn frac(&self, part: u64) -> f64 {
        if self.budget_us() == 0 {
            0.0
        } else {
            part as f64 / self.budget_us() as f64
        }
    }

    /// Fraction of agent time running LLM calls.
    pub fn llm_frac(&self) -> f64 {
        self.frac(self.llm_us)
    }

    /// Fraction of agent time blocked on dependencies/barriers.
    pub fn blocked_frac(&self) -> f64 {
        self.frac(self.blocked_us)
    }

    /// Fraction of agent time in controller/relink overhead.
    pub fn overhead_frac(&self) -> f64 {
        self.frac(self.overhead_us)
    }

    /// Fraction of agent time stalled behind checkpoints.
    pub fn checkpoint_frac(&self) -> f64 {
        self.frac(self.checkpoint_us)
    }
}

impl std::fmt::Display for Decomposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "llm {:.1}% · blocked {:.1}% · overhead {:.1}% · checkpoint {:.1}%",
            100.0 * self.llm_frac(),
            100.0 * self.blocked_frac(),
            100.0 * self.overhead_frac(),
            100.0 * self.checkpoint_frac(),
        )
    }
}

/// One aggregated blocking edge: `agent` spent `total_us` (over `count`
/// waits) waiting on `blocker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEdge {
    /// The agent that waited (`u32::MAX` aggregates checkpoint stalls).
    pub agent: u32,
    /// The agent waited on (`u32::MAX` when unknown).
    pub blocker: u32,
    /// Which kind of wait.
    pub reason: BlockReason,
    /// Number of waits on this edge.
    pub count: u64,
    /// Summed wait, µs.
    pub total_us: u64,
}

/// The top-`k` blocking edges of `spans`: every `Blocked` span folded
/// into its `(agent, blocker, reason)` edge, ranked by total wait, then
/// wait count, both descending, then `(agent, blocker, reason)`
/// ascending — a total order, so every caller ranks ties alike.
pub(crate) fn stall_edges(spans: &[Span], k: usize) -> Vec<StallEdge> {
    let mut edges: BTreeMap<(u32, u32, u8), StallEdge> = BTreeMap::new();
    for span in spans {
        if let SpanKind::Blocked {
            agent,
            blocker,
            reason,
            ..
        } = span.kind
        {
            let e = (edges.entry((agent, blocker, reason as u8))).or_insert(StallEdge {
                agent,
                blocker,
                reason,
                count: 0,
                total_us: 0,
            });
            e.count += 1;
            e.total_us += span.duration_us();
        }
    }
    let mut ranked: Vec<StallEdge> = edges.into_values().collect();
    // The map yields key order, and the sort is stable.
    ranked.sort_by_key(|e| std::cmp::Reverse((e.total_us, e.count)));
    ranked.truncate(k);
    ranked
}

/// The unified run report: spans, counters, the four pre-existing metric
/// structs, per-phase histograms, and the wall-clock [`Decomposition`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RunTelemetry {
    /// Run wall time, µs (span timestamps are relative to run start).
    pub wall_us: u64,
    /// Agents in the run.
    pub agents: u32,
    /// Spans dropped to buffer overflow.
    pub dropped: u64,
    /// Counter snapshot.
    pub counters: Vec<(Counter, u64)>,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Fleet counters, when the backend was a fleet.
    pub fleet: Option<FleetMetrics>,
    /// Serving-engine counters, when a simulated engine was observable.
    pub server: Option<ServerMetrics>,
    /// The wall-clock decomposition, fleet-wide.
    pub decomposition: Decomposition,
    /// Per-phase duration histograms (phases with at least one span).
    pub phases: Vec<(Phase, PhaseHistogram)>,
    /// Critical-path lower bound (µs) from `aim-trace::critical`, when
    /// the workload has a trace to derive it from.
    pub critical_path_us: Option<u64>,
    /// Named per-worker tracks with drop accounting, for merged
    /// distributed runs (empty when every producer was in-process).
    pub worker_tracks: Vec<WorkerTrack>,
    /// Every recorded span, sorted by start time.
    pub spans: Vec<Span>,
}

impl RunTelemetry {
    /// Builds the report from raw parts, computing the decomposition and
    /// per-phase histograms. `spans` must already be rebased to run-start
    /// = 0 (see [`Telemetry::finish`](super::Telemetry::finish)).
    pub fn from_spans(
        mut spans: Vec<Span>,
        wall_us: u64,
        agents: u32,
        dropped: u64,
        counters: Vec<(Counter, u64)>,
        sched: SchedStats,
        fleet: Option<FleetMetrics>,
    ) -> RunTelemetry {
        spans.sort_unstable_by_key(|s| (s.start_us, s.end_us, s.track));
        let wall_us = wall_us.max(1);
        let mut phases: BTreeMap<Phase, PhaseHistogram> = BTreeMap::new();
        for span in &spans {
            phases
                .entry(span.kind.phase())
                .or_default()
                .record(span.duration_us());
        }
        let decomposition = decompose(&spans, wall_us, agents);
        RunTelemetry {
            wall_us,
            agents,
            dropped,
            counters,
            sched,
            fleet,
            server: None,
            decomposition,
            phases: phases.into_iter().collect(),
            critical_path_us: None,
            worker_tracks: Vec::new(),
            spans,
        }
    }

    /// Attaches per-worker track names and drop accounting (merged
    /// distributed runs; see [`WorkerTrack`]).
    pub fn set_worker_tracks(&mut self, tracks: Vec<WorkerTrack>) {
        self.worker_tracks = tracks;
    }

    /// The registered name of `track`, when a worker track matches.
    pub fn track_name(&self, track: u32) -> Option<&str> {
        self.worker_tracks
            .iter()
            .find(|t| t.track == track)
            .map(|t| t.name.as_str())
    }

    /// The histogram for `phase`, if any span fell in it.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseHistogram> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, h)| h)
    }

    /// Value of `counter` (0 when never bumped).
    pub fn counter(&self, counter: Counter) -> u64 {
        counter.value_in(&self.counters)
    }

    /// Per-agent decompositions, indexed by agent id. Checkpoint stalls
    /// are global and charged to every agent.
    pub fn per_agent(&self) -> Vec<Decomposition> {
        per_agent_slices(&self.spans, self.wall_us, self.agents)
            .into_iter()
            .map(|s| s.into_decomposition(self.wall_us))
            .collect()
    }

    /// The top-`k` blocking edges by total wait time — who stalled whom,
    /// and for how long: ranked by total wait, then wait count, both
    /// descending, then `(agent, blocker, reason)` ascending.
    pub fn stall_edges(&self, k: usize) -> Vec<StallEdge> {
        stall_edges(&self.spans, k)
    }

    /// Derives the classic [`Timeline`] (Fig. 1) from the LLM-call and
    /// commit spans, timestamps on the run's wall clock.
    pub fn timeline(&self) -> Timeline {
        let mut spans = Vec::new();
        let mut commits = Vec::new();
        for span in &self.spans {
            match span.kind {
                SpanKind::LlmCall {
                    agent, step, kind, ..
                } => spans.push(CallSpan {
                    agent: AgentId(agent),
                    step: Step(step),
                    kind,
                    start: VirtualTime::from_micros(span.start_us),
                    end: VirtualTime::from_micros(span.end_us),
                }),
                SpanKind::Commit { step, .. } => {
                    commits.push((Step(step), VirtualTime::from_micros(span.end_us)));
                }
                _ => {}
            }
        }
        spans.sort_unstable_by_key(|s| s.end);
        commits.sort_unstable();
        Timeline { spans, commits }
    }

    /// A span-derived serial lower bound, µs: the largest per-agent sum
    /// of LLM-call time. No schedule can finish faster than its busiest
    /// agent's serial LLM work — a weaker floor than the trace-derived
    /// critical path, but available for every observed run.
    pub fn llm_floor_us(&self) -> u64 {
        let mut per_agent: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for span in &self.spans {
            if let SpanKind::LlmCall { agent, .. } = span.kind {
                *per_agent.entry(agent).or_insert(0) += span.duration_us();
            }
        }
        per_agent.into_values().max().unwrap_or(0)
    }

    /// Attaches the trace-derived critical-path lower bound (µs).
    pub fn set_critical_path(&mut self, us: u64) {
        self.critical_path_us = Some(us);
    }

    /// Wall time over the best available lower bound — how close the
    /// schedule ran to the fastest causally possible execution (1.0 is
    /// optimal). Uses [`RunTelemetry::critical_path_us`] when attached,
    /// else the span-derived [`RunTelemetry::llm_floor_us`]; `None` when
    /// no bound is available.
    pub fn slowdown_vs_critical(&self) -> Option<f64> {
        let bound = self.critical_path_us.unwrap_or_else(|| self.llm_floor_us());
        (bound != 0).then(|| self.wall_us as f64 / bound as f64)
    }
}

/// Per-agent span totals (µs), before residual computation.
#[derive(Debug, Clone, Copy, Default)]
struct AgentSlice {
    llm_us: u64,
    blocked_us: u64,
    checkpoint_us: u64,
}

impl AgentSlice {
    fn into_decomposition(self, wall_us: u64) -> Decomposition {
        let measured = self.llm_us + self.blocked_us + self.checkpoint_us;
        Decomposition {
            agents: 1,
            wall_us,
            llm_us: self.llm_us,
            blocked_us: self.blocked_us,
            checkpoint_us: self.checkpoint_us,
            overhead_us: wall_us.saturating_sub(measured),
        }
    }
}

fn per_agent_slices(spans: &[Span], wall_us: u64, agents: u32) -> Vec<AgentSlice> {
    let mut slices = vec![AgentSlice::default(); agents as usize];
    let mut checkpoint_us = 0u64;
    let clamp = |span: &Span| -> u64 {
        span.end_us
            .min(wall_us)
            .saturating_sub(span.start_us.min(wall_us))
    };
    for span in spans {
        match span.kind {
            SpanKind::LlmCall { agent, .. } => {
                if let Some(s) = slices.get_mut(agent as usize) {
                    s.llm_us += clamp(span);
                }
            }
            SpanKind::Blocked { agent, .. } => {
                if let Some(s) = slices.get_mut(agent as usize) {
                    s.blocked_us += clamp(span);
                }
            }
            SpanKind::Checkpoint { .. } => checkpoint_us += clamp(span),
            _ => {}
        }
    }
    for s in &mut slices {
        s.checkpoint_us = checkpoint_us;
        // Overlap double-counting is possible only across categories
        // (e.g. an agent dependency-blocked across a checkpoint); cap at
        // the wall so the residual stays meaningful.
        let measured = s.llm_us + s.blocked_us + s.checkpoint_us;
        if measured > wall_us {
            let excess = measured - wall_us;
            s.blocked_us = s.blocked_us.saturating_sub(excess);
        }
    }
    slices
}

fn decompose(spans: &[Span], wall_us: u64, agents: u32) -> Decomposition {
    let mut total = Decomposition {
        agents,
        wall_us,
        ..Decomposition::default()
    };
    for s in per_agent_slices(spans, wall_us, agents) {
        let d = s.into_decomposition(wall_us);
        total.llm_us += d.llm_us;
        total.blocked_us += d.blocked_us;
        total.checkpoint_us += d.checkpoint_us;
        total.overhead_us += d.overhead_us;
    }
    total
}
