//! Controller/worker runtime over OS threads — Algorithm 3.
//!
//! The controller (the calling thread) owns the [`Scheduler`]; it pushes
//! ready clusters into a shared priority `ready_queue` and consumes
//! completion confirmations from an `ack_queue`, both priority-ordered by
//! simulation step (§3.1, §3.5). Worker threads pull clusters, run every
//! member's step (the paper maps agents to threads and workers to
//! processes — Rust has no GIL, so workers are threads too), resolve and
//! commit the step through the user's [`ClusterProgram`], and acknowledge.
//!
//! # How members get threads
//!
//! The guarantee is the paper's: **every member of a cluster can be
//! blocked in the backend at the same time**, each on an OS thread of its
//! own, so a cluster's LLM calls are in flight together and the serving
//! side can batch them. What the runtime does not do is pay for a thread
//! a step never needed: **steps that do not block share threads.**
//!
//! A worker publishes its cluster's members as a claimable batch and then
//! claims and runs members itself, in order. A crew of helper threads —
//! created on demand inside the run, shared by all workers, joined before
//! the run returns — claims from the same batches. Whoever claims a
//! member while others remain unclaimed, and while no helper is already
//! looking for work, wakes a parked helper or spawns one; that helper's
//! first claim does the same. While steps block, the wake-ups therefore
//! chain until every member is in flight at once; when steps return in
//! microseconds the worker finishes the batch by itself and next to no
//! thread is created ([`ThreadedReport::agent_threads_spawned`] counts
//! them). Progress never depends on a helper: the owning worker claims
//! every member nobody else took, and results reach
//! [`ClusterProgram::commit`] in `cluster.members` order whoever ran them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aim_llm::LlmBackend;
use aim_store::PriorityQueue;
use serde::{Deserialize, Serialize};

use super::crew::{Batch, Crew};
use crate::depgraph::{DepGraph, DepTracker};
use crate::error::EngineError;
use crate::ids::{AgentId, Step};
use crate::scheduler::{Cluster, Scheduler};
use crate::space::Space;
use crate::telemetry::{
    BlockReason, Counter, RunTelemetry, SpanKind, Telemetry, TelemetryBackend, TelemetryObserver,
};

/// User-defined agent/world logic executed by the threaded runtime.
///
/// This is the developer-facing surface the paper describes in §2.1: the
/// engine owns scheduling and state-update plumbing, the developer supplies
/// `agent.proceed` (here [`ClusterProgram::agent_step`]) and
/// `world.resolve_conflict_and_commit` (here [`ClusterProgram::commit`]).
pub trait ClusterProgram<S: Space>: Send + Sync {
    /// Opaque per-agent action produced by a step.
    type Action: Send + 'static;

    /// Runs one agent's step: perceive, retrieve, plan — making as many
    /// blocking `llm` calls as needed — and returns the agent's intended
    /// action. May be called concurrently, from different threads: every
    /// member of a cluster can be inside it at once, each blocked on the
    /// backend, because a member still waiting for a thread gets one while
    /// the others block. Calls that return promptly may instead run back
    /// to back on one thread.
    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Self::Action;

    /// Resolves conflicts between the cluster's actions, commits them to
    /// the world, and returns each member's new position. Called once per
    /// cluster, serialized with respect to the same world region by
    /// construction (coupled agents share a cluster).
    fn commit(
        &self,
        cluster: &Cluster,
        actions: Vec<(AgentId, Self::Action)>,
    ) -> Vec<(AgentId, S::Pos)>;
}

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadedConfig {
    /// Worker threads pulling clusters (paper: "the number of workers can
    /// be adjusted based on available CPU resources").
    pub workers: usize,
    /// Order both queues by step (§3.5) instead of FIFO.
    pub priority_enabled: bool,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        }
    }
}

/// Wall-clock measurements of a threaded run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ThreadedReport {
    /// Wall time from start to completion.
    pub wall: Duration,
    /// Clusters executed.
    pub clusters: u64,
    /// Agent-steps executed.
    pub agent_steps: u64,
    /// Helper threads spawned to run agent steps, over the whole run
    /// (workers run steps too and are not counted). Far below
    /// `agent_steps` unless most steps block; also on the telemetry sink
    /// as [`Counter::AgentThreadsSpawned`] when the run is observed.
    pub agent_threads_spawned: u64,
    /// The serving backend's [`LlmBackend::describe`] string — with a
    /// [`aim_llm::Fleet`] backend this names every replica, so a report
    /// fully identifies the deployment that produced it.
    pub backend: String,
    /// Fleet-level per-replica counters (routing, prefix cache, faults,
    /// tail latency), when the backend is an [`aim_llm::Fleet`]; `None`
    /// for plain backends.
    pub fleet: Option<aim_llm::FleetMetrics>,
    /// The unified telemetry report (spans, histograms, wall-clock
    /// decomposition), when the run was observed via
    /// [`run_threaded_observed`]; `None` otherwise.
    pub telemetry: Option<RunTelemetry>,
}

impl std::fmt::Display for ThreadedReport {
    /// One-screen human-readable summary — what `repro` experiments print
    /// instead of hand-formatting the fields.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "threaded run: {:.3} s wall · {} clusters · {} agent-steps · {} helper threads",
            self.wall.as_secs_f64(),
            self.clusters,
            self.agent_steps,
            self.agent_threads_spawned,
        )?;
        writeln!(f, "  backend: {}", self.backend)?;
        if let Some(fleet) = &self.fleet {
            writeln!(
                f,
                "  fleet: served {} · prefix hit {:.1}% · p99 {:.1} ms · failed {}",
                fleet.total_served(),
                100.0 * fleet.hit_rate(),
                fleet.max_p99_us() as f64 / 1000.0,
                fleet.total_failed(),
            )?;
        }
        if let Some(t) = &self.telemetry {
            writeln!(
                f,
                "  telemetry: {} spans ({} dropped) · skew {} · max cluster {}",
                t.spans.len(),
                t.dropped,
                t.sched.max_step_skew,
                t.sched.max_cluster_size,
            )?;
            writeln!(
                f,
                "  decomposition: {} (coverage {:.1}%)",
                t.decomposition,
                100.0 * t.decomposition.coverage(),
            )?;
            if let Some(slowdown) = t.slowdown_vs_critical() {
                let bound = if t.critical_path_us.is_some() {
                    "critical path"
                } else {
                    "llm floor"
                };
                writeln!(f, "  wall vs {bound}: {slowdown:.2}×")?;
            }
        }
        Ok(())
    }
}

/// A periodic quiesced-checkpoint hook for [`run_threaded_observed`].
///
/// Whenever the fully-committed step floor (`min_step`) reaches a
/// multiple of `every_steps`, the runtime stops handing out new clusters,
/// lets every in-flight cluster finish, and only then invokes `f` — so
/// the callback observes a consistent commit-boundary cut: the store, the
/// dependency graph, and the program's world all agree, and the
/// controller thread is the sole owner. The callback typically evicts
/// history and writes an [`aim_store::SnapshotBuilder`] through an
/// [`aim_store::Checkpointer`]; failing it aborts the run.
///
/// Work lost to the barrier is bounded: in-flight clusters drain at their
/// own pace and nothing is cancelled, the runtime merely defers *new*
/// emissions until the capture is done.
pub struct CheckpointHook<'a, S: Space, G: DepTracker<S> = DepGraph<S>> {
    /// Fire whenever `min_step` first reaches a multiple of this
    /// (must be positive).
    pub every_steps: u32,
    /// Invoked with the scheduler quiesced (no clusters in flight).
    #[allow(clippy::type_complexity)]
    pub f: &'a mut dyn FnMut(&mut Scheduler<S, G>) -> Result<(), EngineError>,
}

impl<S: Space, G: DepTracker<S>> std::fmt::Debug for CheckpointHook<'_, S, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointHook")
            .field("every_steps", &self.every_steps)
            .finish()
    }
}

/// Runs its closure when dropped, unwinding included.
struct OnDrop<'a>(&'a (dyn Fn() + Sync));

impl Drop for OnDrop<'_> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Runs `scheduler` to completion with `cfg.workers` worker threads
/// executing `program` against `backend`, with an optional periodic
/// [`CheckpointHook`] (see its docs for the quiesce protocol) and an
/// optional [`Telemetry`] sink.
///
/// When `telemetry` is `Some`, the runtime threads the sink through every
/// layer before running:
///
/// - the scheduler records dependency-blocked waits with the blocking
///   agent attached ([`SpanKind::Blocked`], dependency reason), and the
///   dependency tracker records relink/migration passes if it is sharded;
/// - the backend is wrapped in a [`TelemetryBackend`] so every blocking
///   LLM call becomes a [`SpanKind::LlmCall`] span, and — if the backend
///   is a serving fleet — a [`TelemetryObserver`] is installed so each
///   per-replica attempt (first try or retry) becomes a
///   [`SpanKind::FleetAttempt`] span linked to its parent call;
/// - workers record cluster lifecycle spans (dispatch → agent steps →
///   commit) plus barrier waits: in a multi-member cluster, each member
///   that finished before the straggler gets a [`SpanKind::Blocked`] span
///   (barrier reason) naming the straggler — this is where lock-step's
///   cost shows up;
/// - the controller records per-completion bookkeeping
///   ([`SpanKind::Control`]) and the full quiesce→checkpoint barrier
///   ([`SpanKind::Checkpoint`]), measured from the moment it first
///   deferred ready work.
///
/// The finished [`RunTelemetry`] lands in [`ThreadedReport::telemetry`].
/// When `telemetry` is `None` — or the sink is disabled — the hot path
/// costs one relaxed atomic load per would-be span.
///
/// # Errors
///
/// Returns [`EngineError::Deadlock`] if the scheduler reports no ready and
/// no in-flight work before finishing (a rule bug), and propagates store
/// errors from completions and any error the hook returns.
///
/// # Panics
///
/// Panics if the hook cadence is zero. If `agent_step` or `commit`
/// panics, the run is stopped, every thread it started is joined, and the
/// panic is resumed on the caller.
pub fn run_threaded_observed<S, G, P>(
    scheduler: &mut Scheduler<S, G>,
    program: Arc<P>,
    backend: Arc<dyn LlmBackend>,
    cfg: ThreadedConfig,
    mut hook: Option<CheckpointHook<'_, S, G>>,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<ThreadedReport, EngineError>
where
    S: Space,
    G: DepTracker<S>,
    P: ClusterProgram<S> + 'static,
{
    assert!(cfg.workers > 0, "at least one worker is required");
    if let Some(h) = &hook {
        assert!(h.every_steps > 0, "checkpoint cadence must be positive");
    }
    // Instrument every layer up front; the raw backend stays reachable
    // for the report's describe/fleet_metrics.
    let raw_backend = Arc::clone(&backend);
    let backend: Arc<dyn LlmBackend> = match &telemetry {
        Some(t) => {
            scheduler.set_telemetry(Arc::clone(t));
            backend.install_observer(Arc::new(TelemetryObserver::new(Arc::clone(t))));
            Arc::new(TelemetryBackend::new(backend, Arc::clone(t)))
        }
        None => backend,
    };
    let run_start_us = telemetry.as_ref().map(|t| t.now_us());
    type Ack<P2> = (crate::ids::ClusterId, Vec<(AgentId, P2)>);
    let ready: PriorityQueue<Cluster> = PriorityQueue::new();
    let ack: PriorityQueue<Ack<S::Pos>> = PriorityQueue::new();
    let started = Instant::now();
    let mut clusters = 0u64;
    let mut agent_steps = 0u64;
    // One member's step, with the time it finished taken on the thread
    // that ran it (0 while the sink is absent or disabled).
    let agent_step = |agent: AgentId, step: Step| {
        let action = program.agent_step(agent, step, backend.as_ref());
        let finished_us = telemetry
            .as_deref()
            .filter(|t| t.is_enabled())
            .map_or(0, Telemetry::now_us);
        (action, finished_us)
    };
    let crew = Crew::new(&agent_step);
    let end_run = || {
        ready.close();
        ack.close();
        crew.shutdown();
    };

    let (result, worker_panic) = std::thread::scope(|scope| {
        // However this thread leaves the scope — done, failed, or
        // unwinding from the hook — workers and helpers must exit for the
        // scope to join them.
        let end = OnDrop(&end_run);
        // Workers: pull cluster → run its members with the crew → commit
        // → ack.
        let mut handles = Vec::new();
        for _ in 0..cfg.workers {
            let (ready, ack, crew, program, end_run) = (&ready, &ack, &crew, &*program, &end_run);
            let (priority, telemetry) = (cfg.priority_enabled, &telemetry);
            handles.push(scope.spawn(move || {
                // A worker that unwinds (a panic in `agent_step` or
                // `commit`) takes the run down with it instead of
                // leaving the controller waiting for its ack.
                let _end = OnDrop(end_run);
                let rec = telemetry.as_ref().map(|t| t.recorder());
                while let Some(cluster) = ready.pop() {
                    let cluster_t0 = rec.as_ref().and_then(|r| r.start());
                    let batch = Batch::new(cluster);
                    let outcomes = crew.run(scope, &batch);
                    let cluster = &batch.cluster;
                    // Per-member finish timestamps, collected only while
                    // the sink is enabled (stays empty — no allocation —
                    // on the disabled path).
                    let mut finishes: Vec<(u32, u64)> = Vec::new();
                    let actions: Vec<(AgentId, P::Action)> = cluster
                        .members
                        .iter()
                        .zip(outcomes)
                        .map(|(&m, (action, finished_us))| {
                            if finished_us > 0 {
                                finishes.push((m.0, finished_us));
                            }
                            (m, action)
                        })
                        .collect();
                    if let Some(r) = &rec {
                        // Intra-cluster barrier: everyone who finished
                        // before the straggler was blocked on it.
                        if finishes.len() > 1 {
                            let join_end = r.now_us();
                            let straggler = finishes
                                .iter()
                                .max_by_key(|&&(_, f)| f)
                                .map(|&(a, _)| a)
                                .expect("non-empty");
                            for &(a, f) in &finishes {
                                if a != straggler && join_end > f {
                                    r.record_at(
                                        f,
                                        join_end,
                                        SpanKind::Blocked {
                                            agent: a,
                                            blocker: straggler,
                                            step: cluster.step.0,
                                            reason: BlockReason::Barrier,
                                        },
                                    );
                                }
                            }
                        }
                    }
                    let commit_t0 = rec.as_ref().and_then(|r| r.start());
                    let new_pos = program.commit(cluster, actions);
                    if let Some(r) = &rec {
                        let members = cluster.members.len() as u32;
                        if let Some(t0) = commit_t0 {
                            r.record(
                                t0,
                                SpanKind::Commit {
                                    cluster: cluster.id.0,
                                    step: cluster.step.0,
                                    members,
                                },
                            );
                        }
                        if let Some(t0) = cluster_t0 {
                            r.record(
                                t0,
                                SpanKind::Cluster {
                                    cluster: cluster.id.0,
                                    step: cluster.step.0,
                                    members,
                                },
                            );
                        }
                    }
                    let prio = if priority { cluster.step.priority() } else { 0 };
                    if ack.push(prio, (cluster.id, new_pos)).is_err() {
                        break; // controller gone
                    }
                }
            }));
        }

        // Controller loop on the calling thread.
        let ctl = telemetry.as_ref().map(|t| t.recorder());
        let push_ready = |sched: &mut Scheduler<S, G>| {
            for c in sched.ready_clusters() {
                let prio = if cfg.priority_enabled {
                    c.step.priority()
                } else {
                    0
                };
                // Only an unwinding worker closes the queue this early;
                // the closed ack queue ends the loop below.
                if ready.push(prio, c).is_err() {
                    break;
                }
            }
        };
        // Next committed-step multiple at which the checkpoint hook fires;
        // computed from the *current* floor so resumed runs do not
        // re-checkpoint their restore point.
        let next_multiple = |step: u32, every: u32| step - step % every + every;
        let mut next_due = hook
            .as_ref()
            .map(|h| next_multiple(scheduler.graph().min_step().0, h.every_steps));
        let due = |sched: &Scheduler<S, G>, next_due: &Option<u32>| matches!(next_due, Some(d) if sched.graph().min_step().0 >= *d);
        // Opens when the controller first defers ready work for a due
        // checkpoint; the Checkpoint span covers drain + hook.
        let mut stall_start: Option<u64> = None;
        // Run the controller to an explicit result, then end the run so
        // workers always exit (even on the error path) and can be joined.
        let mut run = |scheduler: &mut Scheduler<S, G>| -> Result<(), EngineError> {
            push_ready(scheduler);
            while !scheduler.is_done() {
                if due(scheduler, &next_due) && scheduler.inflight_len() == 0 {
                    // Quiesced: every emitted cluster has committed, so
                    // store, graph, and world agree on one cut and this
                    // thread is the sole writer.
                    let barrier_t0 = stall_start
                        .take()
                        .or_else(|| ctl.as_ref().and_then(|r| r.start()));
                    let step = scheduler.graph().min_step().0;
                    let h = hook.as_mut().expect("due implies a hook");
                    (h.f)(scheduler)?;
                    if let (Some(r), Some(t0)) = (&ctl, barrier_t0) {
                        r.telemetry().counter_add(Counter::CheckpointBarriers, 1);
                        r.record(t0, SpanKind::Checkpoint { step });
                    }
                    next_due = Some(next_multiple(scheduler.graph().min_step().0, h.every_steps));
                    push_ready(scheduler);
                    continue;
                }
                if scheduler.inflight_len() == 0 {
                    return Err(EngineError::Deadlock {
                        detail: "no in-flight clusters and none ready".to_string(),
                    });
                }
                let Some((cid, new_pos)) = ack.pop() else {
                    return Err(EngineError::Deadlock {
                        detail: "ack queue closed with work outstanding".to_string(),
                    });
                };
                clusters += 1;
                agent_steps += new_pos.len() as u64;
                let ctl_t0 = ctl.as_ref().and_then(|r| r.start());
                scheduler.complete(&cid, &new_pos)?;
                if !due(scheduler, &next_due) {
                    push_ready(scheduler);
                } else if stall_start.is_none() {
                    // A checkpoint is due — hold new work back and let the
                    // in-flight clusters drain; the stall clock starts at
                    // the first deferred emission.
                    stall_start = ctl.as_ref().and_then(|r| r.start());
                }
                if let (Some(r), Some(t0)) = (&ctl, ctl_t0) {
                    r.record(
                        t0,
                        SpanKind::Control {
                            cluster: cid.0,
                            members: new_pos.len() as u32,
                        },
                    );
                }
            }
            Ok(())
        };
        let outcome = run(scheduler);
        drop(end);
        let mut worker_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        (outcome, worker_panic)
    });
    let agent_threads_spawned = crew.spawned();
    if let Some(t) = &telemetry {
        t.counter_add(Counter::AgentThreadsSpawned, agent_threads_spawned);
    }
    if let Some(payload) = worker_panic {
        std::panic::resume_unwind(payload);
    }
    result?;

    let telemetry = telemetry.map(|t| {
        // Final harvest: drain any telemetry the tracker's workers
        // buffered outside the sink (out-of-process shards) before the
        // report is assembled.
        scheduler.graph_mut().harvest_telemetry();
        t.finish(
            run_start_us.expect("set whenever telemetry is"),
            t.now_us(),
            scheduler.graph().len() as u32,
            scheduler.stats(),
            raw_backend.fleet_metrics(),
        )
    });
    Ok(ThreadedReport {
        wall: started.elapsed(),
        clusters,
        agent_steps,
        agent_threads_spawned,
        backend: raw_backend.describe(),
        fleet: raw_backend.fleet_metrics(),
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DependencyPolicy;
    use crate::rules::RuleParams;
    use crate::space::{GridSpace, Point};
    use aim_llm::{CallKind, InstantBackend, LlmRequest, RequestId};
    use aim_store::Db;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Program: each agent makes one LLM call per step and random-walks +1
    /// in x; records the order of (agent, step) commits for verification.
    struct WalkProgram {
        calls: AtomicU64,
        req_ids: AtomicU64,
        positions: Mutex<HashMap<u32, Point>>,
        log: Mutex<Vec<(u32, u32)>>,
    }

    impl WalkProgram {
        fn new(initial: &[Point]) -> Self {
            WalkProgram {
                calls: AtomicU64::new(0),
                req_ids: AtomicU64::new(0),
                positions: Mutex::new(
                    initial
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as u32, *p))
                        .collect(),
                ),
                log: Mutex::new(Vec::new()),
            }
        }
    }

    impl ClusterProgram<GridSpace> for WalkProgram {
        type Action = Point;

        fn agent_step(&self, agent: AgentId, _step: Step, llm: &dyn LlmBackend) -> Point {
            let id = RequestId(self.req_ids.fetch_add(1, Ordering::Relaxed));
            llm.call(&LlmRequest::new(id, agent.0, 0, 64, 8, CallKind::Plan));
            self.calls.fetch_add(1, Ordering::Relaxed);
            let cur = self.positions.lock()[&agent.0];
            Point::new(cur.x + 1, cur.y)
        }

        fn commit(
            &self,
            cluster: &Cluster,
            actions: Vec<(AgentId, Point)>,
        ) -> Vec<(AgentId, Point)> {
            let mut log = self.log.lock();
            let mut pos = self.positions.lock();
            for (a, p) in &actions {
                pos.insert(a.0, *p);
                log.push((a.0, cluster.step.0));
            }
            actions
        }
    }

    fn mk_sched(initial: &[Point], policy: DependencyPolicy, target: u32) -> Scheduler<GridSpace> {
        Scheduler::new(
            Arc::new(GridSpace::new(1000, 1000)),
            RuleParams::genagent(),
            policy,
            Arc::new(Db::new()),
            initial,
            Step(target),
        )
        .unwrap()
    }

    #[test]
    fn threaded_run_completes_and_counts() {
        let initial = vec![Point::new(0, 0), Point::new(100, 100), Point::new(200, 200)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 12);
        assert_eq!(program.calls.load(Ordering::Relaxed), 12);
        // Per-agent step order must be strictly increasing.
        let log = program.log.lock();
        let mut last: HashMap<u32, u32> = HashMap::new();
        for (a, s) in log.iter() {
            if let Some(prev) = last.get(a) {
                assert!(s > prev, "agent {a} committed step {s} after {prev}");
            }
            last.insert(*a, *s);
        }
    }

    #[test]
    fn threaded_respects_coupling() {
        // Two adjacent agents must commit each step together (same cluster),
        // so their per-step commit entries must be adjacent in the log.
        let initial = vec![Point::new(0, 0), Point::new(2, 0)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 3);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig {
                workers: 2,
                priority_enabled: true,
            },
            None,
            None,
        )
        .unwrap();
        assert!(sched.is_done());
        assert!(sched.stats().max_cluster_size >= 2);
        assert!(sched.graph().validate().is_ok());
    }

    #[test]
    fn threaded_with_many_workers_and_agents() {
        let initial: Vec<Point> = (0..20)
            .map(|i| Point::new((i % 5) * 50, (i / 5) * 50))
            .collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 5);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig {
                workers: 8,
                priority_enabled: true,
            },
            None,
            None,
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 100);
        assert!(sched.graph().validate().is_ok());
    }

    #[test]
    fn report_identifies_the_backend() {
        let initial = vec![Point::new(0, 0)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 2);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded_observed(
            &mut sched,
            program,
            backend,
            ThreadedConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.backend, "instant");
    }

    #[test]
    fn threaded_run_over_heterogeneous_fleet() {
        use aim_llm::{FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind};

        let initial: Vec<Point> = (0..8).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
        let program = Arc::new(WalkProgram::new(&initial));
        let fleet = Arc::new(
            FleetConfig::new("core-test", RoutePolicyKind::RoundRobin)
                .with_replica(ReplicaSpec::instant())
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("fast", 10),
                    5,
                    None,
                ))
                .build(),
        );
        let backend: Arc<dyn LlmBackend> = Arc::clone(&fleet) as Arc<dyn LlmBackend>;
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 32);
        let m = fleet.metrics();
        assert_eq!(
            m.total_served(),
            32,
            "every LLM call went through the fleet"
        );
        assert!(m.all_replicas_served(), "both replica types served: {m:?}");
        assert!(report.backend.starts_with("fleet(core-test, round-robin"));
        let fm = report
            .fleet
            .as_ref()
            .expect("fleet backends report metrics");
        assert_eq!(fm.total_served(), 32);
        assert_eq!(fm.replicas.len(), 2);
    }

    #[test]
    fn checkpoint_hook_fires_quiesced_on_cadence() {
        let initial: Vec<Point> = (0..6).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 9);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let mut fired: Vec<(u32, usize)> = Vec::new();
        let mut hook_fn = |sched: &mut Scheduler<GridSpace>| {
            fired.push((sched.graph().min_step().0, sched.inflight_len()));
            Ok(())
        };
        run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            Some(CheckpointHook {
                every_steps: 3,
                f: &mut hook_fn,
            }),
            None,
        )
        .unwrap();
        assert!(sched.is_done());
        // The hook fired at (at least) the multiples of 3 below the
        // target, always quiesced, never at step 0.
        assert!(!fired.is_empty());
        for (step, inflight) in &fired {
            assert_eq!(*inflight, 0, "hook must run with nothing in flight");
            assert!(
                *step >= 3 && *step % 3 == 0 && *step < 9,
                "bad fire at {step}"
            );
        }
        let steps: Vec<u32> = fired.iter().map(|(s, _)| *s).collect();
        assert!(steps.contains(&3) && steps.contains(&6), "fires: {steps:?}");
    }

    #[test]
    fn checkpoint_hook_error_aborts_cleanly() {
        let initial = vec![Point::new(0, 0), Point::new(300, 300)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 6);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let mut hook_fn = |_: &mut Scheduler<GridSpace>| {
            Err(EngineError::Deadlock {
                detail: "hook says stop".to_string(),
            })
        };
        let r = run_threaded_observed(
            &mut sched,
            program,
            backend,
            ThreadedConfig::default(),
            Some(CheckpointHook {
                every_steps: 2,
                f: &mut hook_fn,
            }),
            None,
        );
        // The error propagates and the workers shut down (no hang).
        assert!(matches!(r, Err(EngineError::Deadlock { .. })));
        assert!(!sched.is_done());
    }

    #[test]
    fn observed_run_produces_unified_telemetry() {
        use crate::telemetry::Phase;

        let initial: Vec<Point> = (0..6).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let telemetry = Arc::new(Telemetry::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            None,
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        let t = report.telemetry.as_ref().expect("observed run reports");
        assert_eq!(t.agents, 6);
        assert_eq!(t.dropped, 0);
        // 24 agent-steps → 24 cluster/commit/control/llm spans each
        // (singleton clusters: far-apart agents).
        for phase in [Phase::Cluster, Phase::Commit, Phase::Control, Phase::Llm] {
            let h = t.phase(phase).unwrap_or_else(|| panic!("no {phase:?}"));
            assert_eq!(h.count, 24, "{phase:?}");
        }
        assert_eq!(t.counter(crate::telemetry::Counter::LlmCalls), 24);
        // Decomposition covers the run by construction.
        assert!((t.decomposition.coverage() - 1.0).abs() < 1e-9);
        // Display renders the one-screen summary.
        let text = report.to_string();
        assert!(text.contains("threaded run:"), "{text}");
        assert!(text.contains("decomposition:"), "{text}");
    }

    #[test]
    fn observed_global_sync_records_barrier_blocking() {
        // Lock-step forces all agents into one barrier cluster per step;
        // with a deliberately slow straggler the other members must show
        // barrier-blocked spans naming it.
        use aim_llm::{FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind};

        let initial: Vec<Point> = (0..3).map(|i| Point::new(i * 300, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 2);
        let program = Arc::new(WalkProgram::new(&initial));
        let fleet = Arc::new(
            FleetConfig::new("barrier-test", RoutePolicyKind::RoundRobin)
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("slowish", 2_000),
                    64,
                    None,
                ))
                .build(),
        );
        let telemetry = Arc::new(Telemetry::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            fleet as Arc<dyn LlmBackend>,
            ThreadedConfig::default(),
            None,
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        let t = report.telemetry.as_ref().expect("observed run reports");
        let barrier: Vec<_> = t
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SpanKind::Blocked {
                        reason: BlockReason::Barrier,
                        ..
                    }
                )
            })
            .collect();
        assert!(!barrier.is_empty(), "lock-step must show barrier waits");
        for s in &barrier {
            let SpanKind::Blocked { agent, blocker, .. } = s.kind else {
                unreachable!()
            };
            assert_ne!(agent, blocker, "straggler never blocks on itself");
        }
        // Fleet attempts were observed and linked by request id to calls.
        assert_eq!(t.counter(crate::telemetry::Counter::FleetAttempts), 6);
        let call_reqs: std::collections::HashSet<u64> = t
            .spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::LlmCall { request, .. } => Some(request),
                _ => None,
            })
            .collect();
        for s in &t.spans {
            if let SpanKind::FleetAttempt { request, .. } = s.kind {
                assert!(call_reqs.contains(&request), "orphan attempt {request}");
            }
        }
    }

    /// [`WalkProgram`] with a probe called at the top of every
    /// `agent_step` and one at the top of every `commit`.
    struct Probed<F, G> {
        walk: WalkProgram,
        on_step: F,
        on_commit: G,
    }

    impl<F, G> ClusterProgram<GridSpace> for Probed<F, G>
    where
        F: Fn(AgentId, Step) + Send + Sync,
        G: Fn(&Cluster, &[(AgentId, Point)]) + Send + Sync,
    {
        type Action = Point;

        fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Point {
            (self.on_step)(agent, step);
            self.walk.agent_step(agent, step, llm)
        }

        fn commit(
            &self,
            cluster: &Cluster,
            actions: Vec<(AgentId, Point)>,
        ) -> Vec<(AgentId, Point)> {
            (self.on_commit)(cluster, &actions);
            self.walk.commit(cluster, actions)
        }
    }

    /// Runs `f` on a thread of its own and returns what it returned or
    /// panicked with; fails the test instead of hanging it when `f` is
    /// not done within `limit`.
    fn within<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(outcome);
        });
        rx.recv_timeout(limit)
            .unwrap_or_else(|_| panic!("the run is still going after {limit:?}"))
    }

    /// `rows` rows of `per_row` agents one cell apart (each row couples
    /// into one cluster and stays one: everybody walks +1 in x), rows
    /// far enough apart never to interact.
    fn rows_of(rows: i32, per_row: i32) -> Vec<Point> {
        (0..rows)
            .flat_map(|r| (0..per_row).map(move |i| Point::new(i, r * 30)))
            .collect()
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| s.to_string()),
        }
    }

    #[test]
    fn panicking_agent_step_is_resumed_on_the_caller() {
        let outcome = within(Duration::from_secs(20), || {
            let initial = vec![Point::new(0, 0), Point::new(300, 0), Point::new(600, 0)];
            let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
            let program = Arc::new(Probed {
                walk: WalkProgram::new(&initial),
                on_step: |agent: AgentId, step: Step| {
                    assert!(!(agent.0 == 1 && step.0 == 1), "agent 1 trips at step 1");
                },
                on_commit: |_: &Cluster, _: &[(AgentId, Point)]| {},
            });
            let cfg = ThreadedConfig {
                workers: 2,
                priority_enabled: true,
            };
            run_threaded_observed(
                &mut sched,
                program,
                Arc::new(InstantBackend::new()),
                cfg,
                None,
                None,
            )
            .map(|_| ())
        });
        let message = panic_message(outcome.expect_err("the panic must reach the caller"));
        assert!(message.contains("agent 1 trips at step 1"), "{message}");
    }

    #[test]
    fn panicking_commit_is_resumed_on_the_caller() {
        let outcome = within(Duration::from_secs(20), || {
            // One coupled row: a multi-member batch is in flight when the
            // commit goes wrong.
            let initial = rows_of(1, 6);
            let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
            let program = Arc::new(Probed {
                walk: WalkProgram::new(&initial),
                on_step: |_: AgentId, _: Step| {},
                on_commit: |cluster: &Cluster, _: &[(AgentId, Point)]| {
                    assert!(cluster.step.0 != 1, "commit trips at step 1");
                },
            });
            let cfg = ThreadedConfig {
                workers: 2,
                priority_enabled: true,
            };
            run_threaded_observed(
                &mut sched,
                program,
                Arc::new(InstantBackend::new()),
                cfg,
                None,
                None,
            )
            .map(|_| ())
        });
        let message = panic_message(outcome.expect_err("the panic must reach the caller"));
        assert!(message.contains("commit trips at step 1"), "{message}");
    }

    #[test]
    fn members_of_a_cluster_are_all_in_flight_at_once() {
        // Every member waits for all the others inside `agent_step`: one
        // member run after another instead of beside it deadlocks, which
        // is the property backends that batch a cluster's calls rely on.
        const N: i32 = 8;
        for (rows, workers, policy) in [
            (1, 1, DependencyPolicy::GlobalSync),
            (2, 2, DependencyPolicy::Spatiotemporal),
        ] {
            let report = within(Duration::from_secs(30), move || {
                let initial = rows_of(rows, N);
                let mut sched = mk_sched(&initial, policy, 5);
                let barriers: Vec<std::sync::Barrier> = (0..rows)
                    .map(|_| std::sync::Barrier::new(N as usize))
                    .collect();
                let program = Arc::new(Probed {
                    walk: WalkProgram::new(&initial),
                    on_step: move |agent: AgentId, _: Step| {
                        barriers[agent.0 as usize / N as usize].wait();
                    },
                    on_commit: |cluster: &Cluster, _: &[(AgentId, Point)]| {
                        assert_eq!(cluster.members.len(), N as usize);
                    },
                });
                let cfg = ThreadedConfig {
                    workers,
                    priority_enabled: true,
                };
                run_threaded_observed(
                    &mut sched,
                    program,
                    Arc::new(InstantBackend::new()),
                    cfg,
                    None,
                    None,
                )
                .unwrap()
            })
            .expect("no panic");
            assert_eq!(report.agent_steps, (rows * N * 5) as u64);
            assert!(report.agent_threads_spawned >= (N - 1) as u64);
        }
    }

    #[test]
    fn steps_that_do_not_block_share_threads() {
        let initial: Vec<Point> = (0..64).map(|i| Point::new(i * 15, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 20);
        let program = Arc::new(WalkProgram::new(&initial));
        let telemetry = Arc::new(Telemetry::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig::default(),
            None,
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        assert_eq!(report.clusters, 20);
        assert_eq!(report.agent_steps, 64 * 20);
        assert!(
            report.agent_threads_spawned < report.agent_steps / 4,
            "{} threads for {} agent-steps",
            report.agent_threads_spawned,
            report.agent_steps
        );
        for (i, p) in initial.iter().enumerate() {
            assert_eq!(
                program.positions.lock()[&(i as u32)],
                Point::new(p.x + 20, p.y)
            );
        }
        // The sink carries the same number, and spans recorded on helper
        // threads (every LLM call) all arrived.
        let t = report.telemetry.as_ref().expect("observed run reports");
        assert_eq!(
            t.counter(Counter::AgentThreadsSpawned),
            report.agent_threads_spawned
        );
        assert_eq!(t.counter(Counter::LlmCalls), 64 * 20);
        assert_eq!(t.dropped, 0);
    }

    /// Sleeps 0–200 µs per call, chosen from the request id.
    struct JitterBackend;

    impl LlmBackend for JitterBackend {
        fn call(&self, req: &LlmRequest) -> aim_llm::LlmResponse {
            let us = req.id.0 * 37 % 5 * 50;
            if us > 0 {
                std::thread::sleep(Duration::from_micros(us));
            }
            aim_llm::LlmResponse {
                id: req.id,
                output_tokens: req.output_tokens,
            }
        }

        fn describe(&self) -> String {
            "jitter".to_string()
        }
    }

    #[test]
    fn wake_up_protocol_survives_jittered_mixed_clusters() {
        // Six 30-member clusters and twenty singletons per step on four
        // workers, steps that block for 0–200 µs: claims, summons, parks
        // and drains race in every order. A lost wake-up or a lost
        // member shows as a time-out, a double run as a count of 2.
        const STEPS: u32 = 40;
        within(Duration::from_secs(300), || {
            let mut initial = rows_of(6, 30);
            initial.extend((6..26).map(|r| Point::new(0, r * 30)));
            assert_eq!(initial.len(), 200);
            for _ in 0..50 {
                let ran: Arc<Mutex<HashMap<(u32, u32), u32>>> = Arc::default();
                let counted = Arc::clone(&ran);
                let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, STEPS);
                let program = Arc::new(Probed {
                    walk: WalkProgram::new(&initial),
                    on_step: move |agent: AgentId, step: Step| {
                        *counted.lock().entry((agent.0, step.0)).or_default() += 1;
                    },
                    on_commit: |cluster: &Cluster, actions: &[(AgentId, Point)]| {
                        let order: Vec<AgentId> = actions.iter().map(|(a, _)| *a).collect();
                        assert_eq!(order, cluster.members, "results out of member order");
                    },
                });
                let cfg = ThreadedConfig {
                    workers: 4,
                    priority_enabled: true,
                };
                let report = run_threaded_observed(
                    &mut sched,
                    Arc::clone(&program),
                    Arc::new(JitterBackend),
                    cfg,
                    None,
                    None,
                )
                .unwrap();
                assert_eq!(report.agent_steps, 200 * STEPS as u64);
                assert_eq!(sched.stats().max_cluster_size, 30);
                let ran = ran.lock();
                assert_eq!(ran.len(), 200 * STEPS as usize);
                assert!(ran.values().all(|&n| n == 1), "a step ran twice");
                // Each action is its own agent's: nobody's result landed
                // in a neighbour's slot.
                let positions = program.walk.positions.lock();
                for (i, p) in initial.iter().enumerate() {
                    assert_eq!(positions[&(i as u32)], Point::new(p.x + STEPS as i32, p.y));
                }
                // The run returned, so the scope has joined every worker
                // and helper; nothing else holds the program.
                drop(positions);
                assert_eq!(Arc::strong_count(&program), 1);
            }
        })
        .expect("no panic");
    }

    #[test]
    fn global_sync_threaded_matches_lockstep() {
        let initial = vec![Point::new(0, 0), Point::new(500, 500)];
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 3);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded_observed(
            &mut sched,
            program,
            backend,
            ThreadedConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.clusters, 3, "one barrier cluster per step");
        assert_eq!(sched.stats().max_step_skew, 0);
    }
}
