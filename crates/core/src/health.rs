//! The live health plane: worker liveness gauges and the run-level
//! stall watchdog.
//!
//! Finished-run telemetry ([`crate::telemetry`]) answers "where did the
//! time go" after the fact; this module answers "is the run making
//! progress *right now*". It has two halves:
//!
//! - [`HealthBoard`] — a control-plane scoreboard of per-worker
//!   [`WorkerHealth`] gauges, fed by heartbeat replies the distributed
//!   controller polls over AIMMSG (`CtrlMsg::Heartbeat`) and by
//!   severance notifications when a link dies.
//! - [`Watchdog`] — a run-level progress check over the commit
//!   watermark [`Telemetry::last_commit`] that, when no agent commits
//!   for a configured wall budget, produces one diagnostic
//!   [`StallReport`] naming the hottest (waiter, blocker) edges seen in
//!   live telemetry.
//!
//! # Invariants
//!
//! 1. **Control plane only.** Nothing here runs on a span hot path:
//!    the board takes a mutex and the watchdog drains span buffers, so
//!    both must be driven from poll loops (checkpoint hooks, the HTTP
//!    status ticker), never from recording code.
//! 2. **The watchdog fires at most once per run** (an atomic
//!    compare-exchange guards the report) and **never panics** — a
//!    wedged run keeps running; the report is a diagnostic, not an
//!    abort.
//! 3. **Heartbeats are best-effort.** A missed or severed heartbeat
//!    marks the worker not-alive on the board; it never fails the
//!    caller. Gauges are last-writer-wins snapshots, not a log.
//! 4. **Blocked edges are retrospective.** `Blocked` spans are recorded
//!    when a wait *ends*, so a fully wedged run's report names the most
//!    recently *completed* waits — the edges that led into the stall —
//!    rather than waits still in flight.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::telemetry::{stall_edges, StallEdge, Telemetry};

/// One worker's latest heartbeat gauges (last-writer-wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Worker (shard) id.
    pub worker: u32,
    /// Display name, e.g. `worker 3`.
    pub name: String,
    /// Whether the link answered the latest poll.
    pub alive: bool,
    /// Board-clock µs when this entry was last refreshed.
    pub last_seen_us: u64,
    /// Highest step the worker has applied, when it owns any agents.
    pub last_applied_step: Option<u32>,
    /// Controller-sent minus worker-handled messages at poll time
    /// (≈ 0 on a healthy lock-step link; growth means a wedged worker).
    pub queue_depth: u64,
    /// Agents currently mirrored on the worker.
    pub members: u32,
    /// Spans the worker's local telemetry buffer has overflowed
    /// (absolute running total).
    pub span_overflow: u64,
}

/// A control-plane scoreboard of per-worker liveness and lag gauges.
///
/// Shared between whatever polls heartbeats (the distributed
/// controller's checkpoint hook) and whatever renders them (the HTTP
/// `/status` endpoint). See the module invariants: updates lock, so
/// keep it off span hot paths.
#[derive(Debug)]
pub struct HealthBoard {
    epoch: Instant,
    workers: Mutex<BTreeMap<u32, WorkerHealth>>,
}

impl Default for HealthBoard {
    fn default() -> Self {
        HealthBoard::new()
    }
}

impl HealthBoard {
    /// An empty board whose clock starts now.
    pub fn new() -> HealthBoard {
        HealthBoard {
            epoch: Instant::now(),
            workers: Mutex::new(BTreeMap::new()),
        }
    }

    /// µs since the board was created (the `last_seen_us` clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one heartbeat, replacing the worker's previous entry.
    pub fn record_heartbeat(&self, health: WorkerHealth) {
        self.workers.lock().insert(health.worker, health);
    }

    /// Marks a worker's link as severed: its entry (created if absent)
    /// goes not-alive with the severance time as `last_seen_us`.
    pub fn mark_severed(&self, worker: u32) {
        let now = self.now_us();
        let mut workers = self.workers.lock();
        let entry = workers.entry(worker).or_insert_with(|| WorkerHealth {
            worker,
            name: format!("worker {worker}"),
            alive: false,
            last_seen_us: now,
            last_applied_step: None,
            queue_depth: 0,
            members: 0,
            span_overflow: 0,
        });
        entry.alive = false;
        entry.last_seen_us = now;
    }

    /// Snapshot of every worker's latest gauges, ordered by worker id.
    pub fn workers(&self) -> Vec<WorkerHealth> {
        self.workers.lock().values().cloned().collect()
    }
}

/// How many blocking edges a [`StallReport`] retains (hottest first).
pub const STALL_REPORT_EDGES: usize = 5;

/// The diagnostic a fired [`Watchdog`] produces: how long the run has
/// gone without a commit, where it got to, and the hottest blocking
/// (waiter, blocker) edges observed so far.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// µs since the last commit (or since the sink's epoch when nothing
    /// ever committed).
    pub stalled_us: u64,
    /// Step of the last commit, `None` when nothing ever committed.
    pub last_step: Option<u32>,
    /// Aggregated blocking edges, hottest (by total wait) first, at
    /// most [`STALL_REPORT_EDGES`]. May be empty when the run wedged
    /// before any wait completed (module invariant 4).
    pub edges: Vec<StallEdge>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.last_step {
            Some(step) => write!(
                f,
                "no commit for {} ms (last committed step {step})",
                self.stalled_us / 1000
            )?,
            None => write!(
                f,
                "no commit for {} ms (nothing committed yet)",
                self.stalled_us / 1000
            )?,
        }
        if self.edges.is_empty() {
            write!(f, "; no completed waits observed")?;
        } else {
            write!(f, "; hottest blocking edges:")?;
            for e in &self.edges {
                let agent = fmt_agent(e.agent);
                let blocker = fmt_agent(e.blocker);
                write!(
                    f,
                    " [{agent} waited on {blocker} ({:?}) ×{} for {} ms]",
                    e.reason,
                    e.count,
                    e.total_us / 1000
                )?;
            }
        }
        Ok(())
    }
}

fn fmt_agent(id: u32) -> String {
    if id == u32::MAX {
        "?".to_string()
    } else {
        format!("agent {id}")
    }
}

/// A run-level progress watchdog over the commit watermark.
///
/// `check` compares "now" against [`Telemetry::last_commit`]; once the
/// gap exceeds the budget it fires **once** (module invariant 2),
/// returning a [`StallReport`] built from the live span buffers. All
/// later calls return `None`, as do calls while the run is healthy.
#[derive(Debug)]
pub struct Watchdog {
    budget_us: u64,
    fired: AtomicBool,
}

impl Watchdog {
    /// A watchdog that fires after `budget_us` µs without a commit.
    pub fn new(budget_us: u64) -> Watchdog {
        Watchdog {
            budget_us,
            fired: AtomicBool::new(false),
        }
    }

    /// The configured wall budget, µs.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// Whether the watchdog has already fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Checks progress; returns the one-shot [`StallReport`] when the
    /// run has gone `budget_us` without a commit. Never panics; safe to
    /// call from any poll loop (but see module invariant 1 — it drains
    /// span buffers, so keep it off hot paths).
    pub fn check(&self, telemetry: &Telemetry) -> Option<StallReport> {
        let now = telemetry.now_us();
        let (last_us, last_step) = match telemetry.last_commit() {
            Some((us, step)) => (us, Some(step)),
            // Nothing ever committed: stalled since the sink's epoch.
            None => (0, None),
        };
        let stalled_us = now.saturating_sub(last_us);
        if stalled_us < self.budget_us {
            return None;
        }
        if self
            .fired
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        Some(StallReport {
            stalled_us,
            last_step,
            edges: stall_edges(&telemetry.drain_spans(), STALL_REPORT_EDGES),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{BlockReason, RunTelemetry, SpanKind};

    fn blocked(t: &Telemetry, agent: u32, blocker: u32, dur_us: u64) {
        let start = t.now_us();
        t.record_at(
            start,
            start + dur_us,
            SpanKind::Blocked {
                agent,
                blocker,
                step: 1,
                reason: BlockReason::Dependency,
            },
        );
    }

    #[test]
    fn watchdog_stays_quiet_within_budget() {
        let t = Telemetry::new();
        t.record(
            t.now_us(),
            SpanKind::Commit {
                cluster: 1,
                step: 3,
                members: 1,
            },
        );
        let dog = Watchdog::new(60_000_000);
        assert!(dog.check(&t).is_none());
        assert!(!dog.fired());
    }

    #[test]
    fn watchdog_fires_once_and_names_edges() {
        let t = Telemetry::new();
        blocked(&t, 7, 9, 500);
        blocked(&t, 7, 9, 500);
        blocked(&t, 2, 4, 100);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let dog = Watchdog::new(1_000);
        let report = dog.check(&t).expect("budget exceeded, must fire");
        assert_eq!(report.last_step, None);
        assert!(report.stalled_us >= 1_000);
        assert_eq!(report.edges.len(), 2);
        assert_eq!((report.edges[0].agent, report.edges[0].blocker), (7, 9));
        assert_eq!(report.edges[0].count, 2);
        assert_eq!(report.edges[0].total_us, 1000);
        // One-shot: the second check is silent even though still stalled.
        assert!(dog.check(&t).is_none());
        assert!(dog.fired());
        let text = report.to_string();
        assert!(text.contains("agent 7 waited on agent 9"), "{text}");
    }

    #[test]
    fn watchdog_and_run_report_rank_tied_edges_alike() {
        // Agent 3 waits as long and as often on 8 as on 5: the tie falls
        // to the blocker, whichever entry point ranks the edges.
        let (dogged, reported) = (Telemetry::new(), Telemetry::new());
        for t in [&dogged, &reported] {
            blocked(t, 3, 8, 200);
            blocked(t, 3, 5, 200);
        }
        let report = Watchdog::new(0)
            .check(&dogged)
            .expect("a zero budget fires");
        let spans = reported.drain_spans();
        let run = RunTelemetry::from_spans(spans, 1_000, 10, 0, vec![], Default::default(), None);
        for edges in [report.edges, run.stall_edges(STALL_REPORT_EDGES)] {
            let got: Vec<_> = (edges.iter())
                .map(|e| (e.agent, e.blocker, e.count, e.total_us))
                .collect();
            assert_eq!(got, [(3, 5, 1, 200), (3, 8, 1, 200)]);
        }
    }

    #[test]
    fn board_tracks_liveness_and_severance() {
        let board = HealthBoard::new();
        board.record_heartbeat(WorkerHealth {
            worker: 3,
            name: "worker 3".into(),
            alive: true,
            last_seen_us: board.now_us(),
            last_applied_step: Some(5),
            queue_depth: 0,
            members: 12,
            span_overflow: 0,
        });
        board.mark_severed(1);
        let workers = board.workers();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].worker, 1);
        assert!(!workers[0].alive);
        assert_eq!(workers[1].worker, 3);
        assert!(workers[1].alive);
        assert_eq!(workers[1].last_applied_step, Some(5));
    }
}
