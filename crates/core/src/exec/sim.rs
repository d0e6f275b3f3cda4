//! Discrete-event (virtual-time) execution of a replayed workload: the
//! conservative [`Scheduler`] mounted on the shared event loop.

use aim_llm::SimServer;

use crate::depgraph::DepTracker;
use crate::error::EngineError;
use crate::exec::kernel;
use crate::metrics::RunReport;
use crate::scheduler::Scheduler;
use crate::space::Space;
use crate::workload::Workload;

/// Knobs of the discrete-event executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// CPU time to dispatch a cluster step (controller + worker + world
    /// bookkeeping) before its first LLM call, µs.
    pub step_cpu_us: u64,
    /// CPU time to resolve conflicts, commit, and update the dependency
    /// graph after the last call, µs.
    pub commit_cpu_us: u64,
    /// Run agents *within* a cluster one after another instead of
    /// concurrently (the paper's `single-thread` baseline, combined with
    /// `max_concurrent_clusters = 1`).
    pub serial_agents: bool,
    /// Bound on clusters processed concurrently (worker-pool size);
    /// `None` = unbounded.
    pub max_concurrent_clusters: Option<usize>,
    /// Order backlog clusters by step (the paper's priority scheduling,
    /// §3.5) instead of FIFO. Only observable when the worker pool or the
    /// serving engine is saturated.
    pub priority_ready_queue: bool,
    /// Record a full per-call [`crate::metrics::Timeline`] (costs memory on
    /// big runs).
    pub record_timeline: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            step_cpu_us: 2_000,
            commit_cpu_us: 1_000,
            serial_agents: false,
            max_concurrent_clusters: None,
            priority_ready_queue: true,
            record_timeline: false,
        }
    }
}

impl SimConfig {
    /// The paper's `single-thread` baseline: everything serialized.
    pub fn single_thread() -> Self {
        SimConfig {
            serial_agents: true,
            max_concurrent_clusters: Some(1),
            ..SimConfig::default()
        }
    }
}

/// Drives `scheduler` over `workload` against `server` until every agent
/// reaches the target step; returns the measured [`RunReport`].
///
/// Deterministic: identical inputs produce identical reports.
///
/// # Errors
///
/// Propagates store failures and reports scheduler deadlock (which would
/// indicate a rule-violation bug) as [`EngineError::Deadlock`].
pub fn run_sim<S, G, W>(
    scheduler: &mut Scheduler<S, G>,
    workload: &W,
    server: &mut SimServer,
    cfg: &SimConfig,
) -> Result<RunReport, EngineError>
where
    S: Space,
    G: DepTracker<S>,
    W: Workload<S::Pos> + ?Sized,
{
    let outcome = kernel::run(scheduler, workload, server, &[], cfg)?;
    let mode = scheduler.policy().label().to_string();
    Ok(outcome.report(mode, scheduler.stats(), None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Step;
    use crate::policy::DependencyPolicy;
    use crate::rules::RuleParams;
    use crate::space::{GridSpace, Point};
    use crate::workload::testutil::TableWorkload;
    use crate::workload::CallSpec;
    use aim_llm::{presets, CallKind, ServerConfig, VirtualTime};
    use aim_store::Db;
    use std::sync::Arc;

    fn mk_sched(initial: &[Point], policy: DependencyPolicy, target: u32) -> Scheduler<GridSpace> {
        Scheduler::new(
            Arc::new(GridSpace::new(500, 500)),
            RuleParams::genagent(),
            policy,
            Arc::new(Db::new()),
            initial,
            Step(target),
        )
        .unwrap()
    }

    fn mk_server() -> SimServer {
        SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 1, true))
    }

    fn spec(input: u32, output: u32) -> CallSpec {
        CallSpec::new(input, output, CallKind::Plan)
    }

    #[test]
    fn empty_workload_completes_in_cpu_time_only() {
        let w = TableWorkload::stationary(vec![Point::new(0, 0)], 3);
        let mut s = mk_sched(&w.initial, DependencyPolicy::Spatiotemporal, 3);
        let mut server = mk_server();
        let r = run_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap();
        assert_eq!(r.total_calls, 0);
        // 3 steps × (2ms dispatch + 1ms commit).
        assert_eq!(r.makespan, VirtualTime::from_micros(3 * 3_000));
    }

    #[test]
    fn calls_serialize_within_agent_step() {
        let w = TableWorkload::stationary(vec![Point::new(0, 0)], 1)
            .with_call(0, 0, spec(100, 5))
            .with_call(0, 0, spec(100, 5));
        let mut s = mk_sched(&w.initial, DependencyPolicy::Spatiotemporal, 1);
        let mut server = mk_server();
        let cfg = SimConfig {
            record_timeline: true,
            ..SimConfig::default()
        };
        let r = run_sim(&mut s, &w, &mut server, &cfg).unwrap();
        assert_eq!(r.total_calls, 2);
        let tl = r.timeline.unwrap();
        assert_eq!(tl.spans.len(), 2);
        assert!(
            tl.spans[0].end <= tl.spans[1].start,
            "chain calls must not overlap"
        );
    }

    #[test]
    fn parallel_agents_overlap_in_global_sync() {
        let w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(300, 300)], 1)
            .with_call(0, 0, spec(200, 20))
            .with_call(1, 0, spec(200, 20));
        let mut s = mk_sched(&w.initial, DependencyPolicy::GlobalSync, 1);
        let mut server = mk_server();
        let cfg = SimConfig {
            record_timeline: true,
            ..SimConfig::default()
        };
        let r = run_sim(&mut s, &w, &mut server, &cfg).unwrap();
        let tl = r.timeline.unwrap();
        assert_eq!(tl.spans.len(), 2);
        let overlap = tl.spans[0].start < tl.spans[1].end && tl.spans[1].start < tl.spans[0].end;
        assert!(
            overlap,
            "parallel-sync agents should issue concurrently: {:?}",
            tl.spans
        );
        assert!(r.achieved_parallelism > 1.0);
    }

    #[test]
    fn single_thread_serializes_everything() {
        let w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(300, 300)], 1)
            .with_call(0, 0, spec(200, 20))
            .with_call(1, 0, spec(200, 20));
        let mut s = mk_sched(&w.initial, DependencyPolicy::GlobalSync, 1);
        let mut server = mk_server();
        let cfg = SimConfig {
            record_timeline: true,
            ..SimConfig::single_thread()
        };
        let r = run_sim(&mut s, &w, &mut server, &cfg).unwrap();
        let tl = r.timeline.unwrap();
        assert!(
            tl.spans[0].end <= tl.spans[1].start,
            "single-thread must serialize agents: {:?}",
            tl.spans
        );
        assert!(r.achieved_parallelism <= 1.0 + 1e-9);
    }

    #[test]
    fn metropolis_beats_global_sync_on_imbalanced_work() {
        // The straggler alternates: agent 0 is heavy on even steps, agent 1
        // on odd steps. Global sync pays the heavy cost every step; the OOO
        // schedule overlaps the two agents' heavy phases (they are far
        // apart, hence independent).
        let heavy = |w: TableWorkload| {
            (0..4).fold(w, |w, s| {
                let (h, l) = if s % 2 == 0 { (0, 1) } else { (1, 0) };
                w.with_call(h, s, spec(400, 80))
                    .with_call(l, s, spec(20, 2))
            })
        };
        let w = heavy(TableWorkload::stationary(
            vec![Point::new(0, 0), Point::new(400, 400)],
            4,
        ));
        let run = |policy| {
            let mut s = mk_sched(&w.initial, policy, 4);
            let mut server = mk_server();
            run_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap()
        };
        let sync = run(DependencyPolicy::GlobalSync);
        let ooo = run(DependencyPolicy::Spatiotemporal);
        assert!(
            ooo.makespan < sync.makespan,
            "metropolis {} should beat parallel-sync {}",
            ooo.makespan,
            sync.makespan
        );
        assert_eq!(
            ooo.sched.max_step_skew > 0,
            true,
            "agent 1 must have run ahead"
        );
    }

    #[test]
    fn deterministic_reports() {
        let w = TableWorkload::stationary(
            vec![Point::new(0, 0), Point::new(10, 0), Point::new(200, 200)],
            3,
        )
        .with_call(0, 0, spec(100, 10))
        .with_call(1, 1, spec(300, 30))
        .with_call(2, 2, spec(50, 5));
        let run = || {
            let mut s = mk_sched(&w.initial, DependencyPolicy::Spatiotemporal, 3);
            let mut server = mk_server();
            run_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_calls, b.total_calls);
        assert_eq!(a.server, b.server);
    }

    #[test]
    fn worker_slots_throttle_concurrency() {
        // Two distant agents, one call each; with one worker slot the
        // cluster dispatches serialize.
        let w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(300, 300)], 1)
            .with_call(0, 0, spec(100, 10))
            .with_call(1, 0, spec(100, 10));
        let run = |slots| {
            let mut s = mk_sched(&w.initial, DependencyPolicy::Spatiotemporal, 1);
            let mut server = mk_server();
            let cfg = SimConfig {
                max_concurrent_clusters: slots,
                ..SimConfig::default()
            };
            run_sim(&mut s, &w, &mut server, &cfg).unwrap()
        };
        let free = run(None);
        let one = run(Some(1));
        assert!(one.makespan > free.makespan);
    }

    #[test]
    fn moves_feed_back_into_scheduler() {
        // Agent 0 walks toward agent 1; when it gets close they couple.
        let mut w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(8, 0)], 6);
        for s in 0..6 {
            w = w.with_move(0, s, Point::new(s as i32 + 1, 0));
        }
        let mut s = mk_sched(&w.initial, DependencyPolicy::Spatiotemporal, 6);
        let mut server = mk_server();
        let r = run_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap();
        assert!(
            r.sched.max_cluster_size >= 2,
            "agents must have coupled while close"
        );
        assert!(s.graph().validate().is_ok());
    }
}
