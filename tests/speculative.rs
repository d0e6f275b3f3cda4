//! Cross-crate integration of the §6 extensions: speculative execution
//! over real world-generated traces, speculation on a non-Euclidean
//! space, and the hybrid interactive driver against a replayed village.

mod common;

use std::sync::Arc;

use ai_metropolis::llm::{presets, ServerConfig, SimServer};
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::trace::gen;
use ai_metropolis::world::clock_to_step;
use common::{replay, spec_replay};

fn lunch_trace(villes: u32, seed: u64) -> Trace {
    gen::generate(&gen::GenConfig {
        villes,
        agents_per_ville: 15,
        seed,
        window_start: clock_to_step(12, 0),
        window_len: 90,
    })
}

fn conservative_run(trace: &Trace, replicas: u32) -> RunReport {
    let mut sched = replay(trace, DependencyPolicy::Spatiotemporal);
    let mut server = SimServer::new(ServerConfig::from_preset(
        presets::tiny_test(),
        replicas,
        true,
    ));
    run_sim(&mut sched, trace, &mut server, &SimConfig::default()).unwrap()
}

fn speculative_run(trace: &Trace, replicas: u32, runahead: u32) -> (RunReport, Vec<Point>) {
    let mut sched = spec_replay(trace, runahead);
    let mut server = SimServer::new(ServerConfig::from_preset(
        presets::tiny_test(),
        replicas,
        true,
    ));
    let report = run_spec_sim(&mut sched, trace, &mut server, &SimConfig::default()).unwrap();
    let finals = (0..trace.meta().num_agents)
        .map(|a| sched.graph().pos(AgentId(a)))
        .collect();
    (report, finals)
}

#[test]
fn speculative_replay_reproduces_trace_trajectories() {
    // Whatever speculation does along the way, the retired world must be
    // exactly the recorded one.
    let trace = lunch_trace(1, 21);
    let meta = trace.meta();
    let target = Workload::target_step(&trace);
    for runahead in [0u32, 2, 6] {
        let (report, finals) = speculative_run(&trace, 2, runahead);
        for a in 0..meta.num_agents {
            let expected =
                Workload::pos_after(&trace, ai_metropolis::core::AgentId(a), Step(target.0 - 1));
            assert_eq!(
                finals[a as usize], expected,
                "agent {a} diverged (runahead {runahead})"
            );
        }
        let spec = report.spec.expect("speculative runs carry spec stats");
        assert_eq!(
            spec.stats.retired_steps,
            meta.num_agents as u64 * target.0 as u64,
            "every agent-step must retire exactly once"
        );
    }
}

#[test]
fn speculation_stays_within_its_waste_of_conservative() {
    // Speculation is not a free lunch: on a small, contended server the
    // re-executed waste can eat the run-ahead gain (the §6 trade-off).
    // The honest bound is that any loss stays within the measured wasted
    // work plus scheduling noise.
    for seed in [3u64, 21, 77] {
        let trace = lunch_trace(1, seed);
        let cons = conservative_run(&trace, 2);
        let (spec, _) = speculative_run(&trace, 2, 4);
        let sr = spec.spec.as_ref().expect("spec stats");
        let waste = sr.waste_fraction(spec.total_input_tokens, spec.total_output_tokens);
        let bound = cons.makespan.as_secs_f64() * (1.0 + waste + 0.03);
        assert!(
            spec.makespan.as_secs_f64() <= bound,
            "seed {seed}: speculation {} exceeds conservative {} + waste {:.1}% + noise",
            spec.makespan,
            cons.makespan,
            waste * 100.0
        );
    }
}

#[test]
fn runahead_zero_matches_conservative_end_to_end() {
    let trace = lunch_trace(1, 5);
    let cons = conservative_run(&trace, 1);
    let (spec, _) = speculative_run(&trace, 1, 0);
    assert_eq!(cons.makespan, spec.makespan);
    assert_eq!(cons.total_calls, spec.total_calls);
    assert_eq!(spec.spec.unwrap().wasted_calls, 0);
}

#[test]
fn speculation_generalizes_to_social_space() {
    // §6: the same rules — and therefore the same speculative machinery —
    // work on hop distance. A ring of agents shuffling clockwise, with
    // one slow pole: neighbors speculate past it, validate or roll back,
    // and the run retires completely.
    use ai_metropolis::core::space::{NodeId, SocialSpace};
    use ai_metropolis::core::AgentId;

    let n = 24u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let space = Arc::new(SocialSpace::new(n as usize, &edges));
    let initial: Vec<NodeId> = (0..8).map(|i| NodeId(i * 3)).collect();
    let mut sched = SpecScheduler::new(
        space,
        RuleParams::new(2, 1),
        SpecParams::new(3),
        Arc::new(Db::new()),
        &initial,
        Step(6),
    )
    .unwrap();
    // Drive by hand: hold agent 0's first cluster to create a laggard
    // pole, advance everyone else (shuffling one hop), then release.
    let mut held = None;
    let mut safety = 0;
    while !sched.is_done() {
        safety += 1;
        assert!(safety < 10_000, "failed to converge");
        let ready = sched.ready_clusters().unwrap();
        if ready.is_empty() && sched.inflight_len() == usize::from(held.is_some()) {
            // Only the held cluster remains: release it.
            if let Some(c) = held.take() {
                complete_shuffle(&mut sched, &c, n);
                continue;
            }
        }
        for c in ready {
            if held.is_none() && c.members.contains(&AgentId(0)) && c.step == Step(0) {
                held = Some(c);
                continue;
            }
            complete_shuffle(&mut sched, &c, n);
        }
    }
    assert!(sched.is_done());
    assert_eq!(sched.live_entries(), 0);
    for a in 0..8u32 {
        assert_eq!(sched.graph().step(AgentId(a)), Step(6));
    }

    fn complete_shuffle(
        sched: &mut SpecScheduler<SocialSpace>,
        c: &ai_metropolis::core::scheduler::Cluster,
        n: u32,
    ) {
        let pos: Vec<(AgentId, NodeId)> = c
            .members
            .iter()
            .map(|m| {
                let cur = sched.graph().pos(*m);
                (*m, NodeId((cur.0 + 1) % n))
            })
            .collect();
        sched.complete(&c.id, &pos).unwrap();
    }
}

#[test]
fn hybrid_driver_serves_chat_against_real_trace() {
    let trace = lunch_trace(1, 9);
    let mut sched = replay(&trace, DependencyPolicy::Spatiotemporal);
    let mut server = SimServer::new(
        ServerConfig::from_preset(presets::tiny_test(), 1, true).with_interactive_lane(2),
    );
    let load = InteractiveLoad::chat(50_000, 40, 13);
    let (report, chat) = run_hybrid_sim(
        &mut sched,
        &trace,
        &mut server,
        &load,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(chat.count, 40, "every chat turn answered");
    assert!(chat.p50_us <= chat.p95_us && chat.p95_us <= chat.max_us);
    assert_eq!(
        report.total_calls,
        Workload::total_calls(&trace),
        "chat traffic must not be double-counted as simulation calls"
    );
    assert!(sched.is_done());
    assert!(sched.graph().validate().is_ok());
}
