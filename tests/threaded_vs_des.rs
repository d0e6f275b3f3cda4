//! The two executors agree: replaying the same trace through the
//! discrete-event simulator and through the threaded runtime (with a
//! trace-driven `ClusterProgram`) performs the same scheduling work.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ai_metropolis::llm::{presets, InstantBackend, ServerConfig, SimServer};
use ai_metropolis::prelude::*;
use ai_metropolis::trace::gen;
use ai_metropolis::world::clock_to_step;
use common::{execute, replay};

/// Replays a recorded trace through the threaded runtime.
struct TraceProgram {
    trace: Trace,
    req_ids: AtomicU64,
    calls: AtomicU64,
}

impl ClusterProgram<GridSpace> for TraceProgram {
    type Action = Point;

    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Point {
        for spec in Workload::calls(&self.trace, agent, step) {
            let id = RequestId(self.req_ids.fetch_add(1, Ordering::Relaxed));
            llm.call(&LlmRequest::new(
                id,
                agent.0,
                step.priority(),
                spec.input_tokens,
                spec.output_tokens,
                spec.kind,
            ));
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        Workload::pos_after(&self.trace, agent, step)
    }

    fn commit(&self, _cluster: &Cluster, actions: Vec<(AgentId, Point)>) -> Vec<(AgentId, Point)> {
        actions
    }
}

#[test]
fn same_scheduling_work_in_both_executors() {
    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 12,
        seed: 41,
        window_start: clock_to_step(10, 0),
        window_len: 50,
    });

    // Discrete-event replay.
    let mut des_sched = replay(&trace, DependencyPolicy::Spatiotemporal);
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 2, true));
    let des = run_sim(&mut des_sched, &trace, &mut server, &SimConfig::default()).unwrap();

    // Threaded replay of the same trace.
    let mut thr_sched = replay(&trace, DependencyPolicy::Spatiotemporal);
    let program = Arc::new(TraceProgram {
        trace: trace.clone(),
        req_ids: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    });
    let backend = Arc::new(InstantBackend::new());
    let thr = execute(&mut thr_sched, Arc::clone(&program), backend, 6, None, None);

    // Identical work, regardless of execution substrate.
    assert_eq!(des.total_calls, program.calls.load(Ordering::Relaxed));
    assert_eq!(des.sched.agent_steps, thr.agent_steps);
    // Final agent state identical.
    for a in 0..trace.meta().num_agents {
        assert_eq!(
            des_sched.graph().pos(AgentId(a)),
            thr_sched.graph().pos(AgentId(a))
        );
    }
    // Both satisfy the causality invariant at the end.
    assert!(des_sched.graph().validate().is_ok());
    assert!(thr_sched.graph().validate().is_ok());
}

#[test]
fn threaded_oracle_policy_also_completes() {
    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 8,
        seed: 43,
        window_start: clock_to_step(12, 0),
        window_len: 40,
    });
    let graph = Arc::new(ai_metropolis::trace::oracle::mine(&trace));
    let mut sched = replay(&trace, DependencyPolicy::Oracle(graph));
    let program = Arc::new(TraceProgram {
        trace: trace.clone(),
        req_ids: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    });
    let backend = Arc::new(InstantBackend::new());
    let report = execute(&mut sched, program, backend, 4, None, None);
    assert_eq!(
        report.agent_steps,
        (trace.meta().num_agents * trace.meta().num_steps) as u64
    );
}
