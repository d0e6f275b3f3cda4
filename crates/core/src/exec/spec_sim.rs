//! Discrete-event (virtual-time) execution of a replayed workload under
//! the *speculative* scheduler (paper §6, [`crate::spec`]).
//!
//! The event loop is the one [`crate::exec::sim::run_sim`] runs on, with
//! the optimistic twists: poisoned in-flight executions run to completion
//! (no preemption) and their results are dropped; squashed committed
//! steps re-execute when their agents re-emit; and every discarded
//! execution's LLM calls are accounted as waste in [`RunReport::spec`].
//! Replayed workloads are deterministic, so the simulation outcome is
//! identical to the conservative schedule — what changes is completion
//! time (higher concurrency) against wasted tokens (misspeculation).

use aim_llm::SimServer;

use crate::depgraph::DepTracker;
use crate::error::EngineError;
use crate::exec::kernel;
use crate::metrics::RunReport;
use crate::scheduler::SchedStats;
use crate::space::Space;
use crate::spec::SpecScheduler;
use crate::workload::Workload;

pub use crate::exec::sim::SimConfig;

/// Drives the speculative `scheduler` over `workload` against `server`
/// until every agent has retired at the target step; returns the
/// measured [`RunReport`] with [`RunReport::spec`] populated.
///
/// Deterministic: identical inputs produce identical reports.
///
/// # Errors
///
/// Propagates store failures and reports scheduler deadlock as
/// [`EngineError::Deadlock`].
pub fn run_spec_sim<S, G, W>(
    scheduler: &mut SpecScheduler<S, G>,
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
    let stats = scheduler.stats();
    let sched = SchedStats {
        clusters_emitted: stats.emitted_firm + stats.emitted_spec,
        agent_steps: stats.agent_steps,
        watcher_wakes: 0,
        blocked_evals: stats.spec_denied,
        max_step_skew: stats.max_step_skew,
        max_cluster_size: stats.max_cluster_size,
    };
    let mode = format!("metropolis-spec({})", scheduler.spec_params().max_runahead);
    Ok(outcome.report(mode, sched, Some(stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sim::run_sim;
    use crate::ids::Step;
    use crate::policy::DependencyPolicy;
    use crate::rules::RuleParams;
    use crate::scheduler::Scheduler;
    use crate::space::{GridSpace, Point};
    use crate::spec::SpecParams;
    use crate::workload::testutil::TableWorkload;
    use crate::workload::CallSpec;
    use aim_llm::{presets, CallKind, ServerConfig, VirtualTime};
    use aim_store::Db;
    use std::sync::Arc;

    fn mk_spec_sched(initial: &[Point], runahead: u32, target: u32) -> SpecScheduler<GridSpace> {
        SpecScheduler::new(
            Arc::new(GridSpace::new(500, 500)),
            RuleParams::genagent(),
            SpecParams::new(runahead),
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
    fn empty_workload_completes() {
        let w = TableWorkload::stationary(vec![Point::new(0, 0)], 3);
        let mut s = mk_spec_sched(&w.initial, 4, 3);
        let mut server = mk_server();
        let r = run_spec_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap();
        assert_eq!(r.total_calls, 0);
        assert_eq!(r.makespan, VirtualTime::from_micros(3 * 3_000));
        let sr = r.spec.unwrap();
        assert_eq!(sr.wasted_calls, 0);
        assert_eq!(sr.stats.retired_steps, 3);
    }

    #[test]
    fn runahead_zero_matches_conservative_executor() {
        // The same imbalanced workload under the conservative scheduler
        // and under speculation-disabled SpecScheduler must complete in
        // exactly the same virtual time.
        let mut w = TableWorkload::stationary(
            vec![Point::new(0, 0), Point::new(10, 0), Point::new(200, 200)],
            6,
        );
        for s in 0..6u32 {
            w = w
                .with_call(0, s, spec(400, 40))
                .with_call(1, s, spec(50, 5))
                .with_call(2, s, spec(120, 12));
        }
        let conservative = {
            let mut s = Scheduler::new(
                Arc::new(GridSpace::new(500, 500)),
                RuleParams::genagent(),
                DependencyPolicy::Spatiotemporal,
                Arc::new(Db::new()),
                &w.initial,
                Step(6),
            )
            .unwrap();
            let mut server = mk_server();
            run_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap()
        };
        let speculative = {
            let mut s = mk_spec_sched(&w.initial, 0, 6);
            let mut server = mk_server();
            run_spec_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap()
        };
        assert_eq!(conservative.makespan, speculative.makespan);
        assert_eq!(conservative.total_calls, speculative.total_calls);
        assert_eq!(speculative.spec.unwrap().wasted_calls, 0);
    }

    #[test]
    fn speculation_overlaps_blocked_work() {
        // Agent 0 owns one huge call at step 0; agent 1 (10 away) has
        // steady work every step. Conservatively agent 1 stalls at gap 5
        // until the huge call commits; speculatively its remaining steps
        // overlap it, cutting completion time. Nothing is ever squashed
        // (the agents never move), so the speedup is free.
        let mut w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(10, 0)], 12);
        w = w.with_call(0, 0, spec(600, 1200));
        for s in 0..12u32 {
            w = w.with_call(1, s, spec(200, 60));
        }
        let run = |runahead: u32| {
            let mut s = mk_spec_sched(&w.initial, runahead, 12);
            let mut server = mk_server();
            run_spec_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap()
        };
        let blocked = run(0);
        let ahead = run(8);
        assert!(
            ahead.makespan < blocked.makespan,
            "speculation {} must beat conservative {}",
            ahead.makespan,
            blocked.makespan
        );
        let sr = ahead.spec.unwrap();
        assert_eq!(sr.wasted_calls, 0, "stationary agents never misspeculate");
        assert!(sr.stats.emitted_spec > 0);
        assert_eq!(sr.stats.retired_steps, 24, "all agent-steps validated");
    }

    #[test]
    fn misspeculation_is_charged_as_waste() {
        // Agent 0 walks toward agent 1 while its long step-0 call holds
        // the commit back; agent 1's speculative steps read state that
        // agent 0's arrival invalidates.
        let mut w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(6, 0)], 8);
        w = w.with_call(0, 0, spec(600, 900));
        for s in 0..8u32 {
            w = w.with_call(1, s, spec(100, 20));
            // Agent 0 walks one cell east per step.
            w = w.with_move(0, s, Point::new(s as i32 + 1, 0));
        }
        let mut s = mk_spec_sched(&w.initial, 4, 8);
        let mut server = mk_server();
        let r = run_spec_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap();
        let sr = r.spec.unwrap();
        assert!(
            sr.stats.squashed_steps > 0,
            "the approach must squash: {:?}",
            sr.stats
        );
        assert!(sr.wasted_calls > 0, "squashed steps carried calls");
        assert!(
            r.total_calls > 8 + 1,
            "re-executions are re-issued: {} calls",
            r.total_calls
        );
        assert!(sr.waste_fraction(r.total_input_tokens, r.total_output_tokens) > 0.0);
    }

    #[test]
    fn deterministic_reports() {
        let mut w = TableWorkload::stationary(
            vec![Point::new(0, 0), Point::new(8, 0), Point::new(30, 30)],
            5,
        );
        for s in 0..5u32 {
            w = w
                .with_call(0, s, spec(300, 30))
                .with_call(1, s, spec(80, 8));
            w = w.with_move(1, s, Point::new(8 - s as i32, 0));
        }
        let run = || {
            let mut s = mk_spec_sched(&w.initial, 3, 5);
            let mut server = mk_server();
            run_spec_sim(&mut s, &w, &mut server, &SimConfig::default()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_calls, b.total_calls);
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn worker_slots_respected() {
        let w = TableWorkload::stationary(vec![Point::new(0, 0), Point::new(300, 300)], 1)
            .with_call(0, 0, spec(100, 10))
            .with_call(1, 0, spec(100, 10));
        let run = |slots| {
            let mut s = mk_spec_sched(&w.initial, 4, 1);
            let mut server = mk_server();
            let cfg = SimConfig {
                max_concurrent_clusters: slots,
                ..SimConfig::default()
            };
            run_spec_sim(&mut s, &w, &mut server, &cfg).unwrap()
        };
        let free = run(None);
        let one = run(Some(1));
        assert!(one.makespan > free.makespan);
    }
}
