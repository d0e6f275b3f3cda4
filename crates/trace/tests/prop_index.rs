//! Property tests: a trace's dense chain index and the flat oracle hold on
//! arbitrary traces — with empty chains, agents that never call, windows
//! and codec round trips — against definitions that index nothing.

use aim_core::policy::OracleGraph;
use aim_core::space::Point;
use aim_core::{AgentId, Step};
use aim_llm::CallKind;
use aim_trace::{codec, oracle, Trace, TraceBuilder, TraceMeta};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ArbTrace {
    agents: u32,
    steps: u32,
    radius: u32,
    calls: Vec<(u32, u32, u8, u32, u32)>, // agent, step, kind idx, in, out
    /// `(steps + 1) × agents` positions, row-major by step.
    positions: Vec<(i32, i32)>,
    /// A window, as fractions of the trace: first step and length.
    window: (u32, u32),
}

fn arb_trace() -> impl Strategy<Value = ArbTrace> {
    (1u32..20, 1u32..12, 0u32..6).prop_flat_map(|(agents, steps, radius)| {
        // A third of the agents never call.
        let callers = agents - agents / 3;
        let calls =
            proptest::collection::vec((0..callers, 0..steps, 0u8..7, 1u32..3000, 1u32..200), 0..40);
        // A small board, so agents often meet, across the origin, so
        // cells of negative coordinates are hit too.
        let cells = ((steps + 1) * agents) as usize;
        let positions = proptest::collection::vec((-12i32..12, -12i32..12), cells);
        let window = (0u32..1000, 0u32..1000);
        (Just((agents, steps, radius)), calls, positions, window).prop_map(
            |((agents, steps, radius), calls, positions, window)| ArbTrace {
                agents,
                steps,
                radius,
                calls,
                positions,
                window,
            },
        )
    })
}

fn build(t: &ArbTrace) -> Trace {
    let meta = TraceMeta {
        name: "prop index".into(),
        num_agents: t.agents,
        start_step: 7,
        num_steps: t.steps,
        map_width: 32,
        map_height: 32,
        radius_p: t.radius,
        max_vel: 1,
        seed: 3,
    };
    let rows: Vec<Vec<Point>> = t
        .positions
        .chunks(t.agents as usize)
        .map(|row| row.iter().map(|&(x, y)| Point::new(x, y)).collect())
        .collect();
    let mut b = TraceBuilder::new(meta, &rows[0]);
    for &(agent, step, kind, input, output) in &t.calls {
        b.push_call(agent, step, CallKind::ALL[kind as usize], input, output);
    }
    for row in &rows[1..] {
        b.push_positions(row);
    }
    b.finish()
}

/// The traces one arbitrary trace stands for: itself, a window of it, and
/// both through the codec.
fn variants(t: &ArbTrace) -> Vec<Trace> {
    let trace = build(t);
    let steps = trace.meta().num_steps;
    let from = t.window.0 % steps;
    let len = 1 + t.window.1 % (steps - from);
    let window = trace.window(from, len, "window");
    let through_codec = |trace: &Trace| {
        let mut buf = Vec::new();
        codec::write_trace(trace, &mut buf).expect("write");
        codec::read_trace(&mut std::io::Cursor::new(&buf)).expect("read")
    };
    let (a, b) = (through_codec(&trace), through_codec(&window));
    vec![trace, window, a, b]
}

/// Positions at the start of `step`, as the matrix's rows define them.
fn start(trace: &Trace, agent: u32, step: u32) -> Point {
    match step {
        0 => trace.initial_position(agent),
        _ => trace.position_after(agent, step - 1),
    }
}

fn check_chains(trace: &Trace) {
    let (n, steps) = (trace.meta().num_agents, trace.meta().num_steps);
    for s in 0..steps {
        for a in 0..n {
            let want: Vec<_> = trace
                .calls()
                .iter()
                .filter(|c| c.agent == a && c.step == s)
                .copied()
                .collect();
            assert_eq!(trace.chain(a, s), &want[..], "chain ({a}, {s})");
            for (seq, c) in want.iter().enumerate() {
                assert_eq!(c.seq, seq as u32, "chain ({a}, {s}) numbers its calls");
            }
        }
        assert!(trace.chain(n, s).is_empty(), "agent {n} is out of range");
        assert!(trace.chain(u32::MAX, s).is_empty());
    }
    for a in 0..n {
        assert!(
            trace.chain(a, steps).is_empty(),
            "step {steps} is out of range"
        );
        assert!(trace.chain(a, u32::MAX).is_empty());
    }
    for s in 0..=steps {
        let row: Vec<Point> = (0..n).map(|a| start(trace, a, s)).collect();
        assert_eq!(trace.row(s), &row[..], "row {s}");
    }
}

fn check_oracle(trace: &Trace) {
    let n = trace.meta().num_agents;
    let r2 = u64::from(trace.meta().radius_p).pow(2);
    let pairs = oracle::interaction_pairs(trace);
    let g = oracle::mine(trace);
    assert_eq!(g, OracleGraph::from_interactions(n as usize, &pairs));
    assert_eq!(g.num_steps(), trace.meta().num_steps as usize);
    for (s, step_pairs) in (0u32..).zip(&pairs) {
        // The pairs: every pair within range, once each, sorted.
        let near: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| start(trace, a, s).dist2(start(trace, b, s)) <= r2)
            .collect();
        assert_eq!(step_pairs, &near, "pairs of step {s}");
        // The components: a partition in smallest-member order, members
        // ascending, each agent's own.
        let comps: Vec<&[u32]> = g.components_at(Step(s)).collect();
        let mut seen = vec![false; n as usize];
        for (i, comp) in comps.iter().enumerate() {
            assert!(!comp.is_empty(), "step {s}: empty component");
            assert!(comp.windows(2).all(|w| w[0] < w[1]), "{comp:?} unsorted");
            if i > 0 {
                assert!(
                    comps[i - 1][0] < comp[0],
                    "step {s}: components out of order"
                );
            }
            for &m in comp.iter() {
                assert!(!seen[m as usize], "step {s}: agent {m} in two components");
                seen[m as usize] = true;
                assert_eq!(g.component_of(Step(s), AgentId(m)), comp.to_vec());
            }
            // Connected in this step's pairs: a search from the first
            // member over pairs inside the component reaches them all.
            let mut reached = vec![comp[0]];
            let mut i = 0;
            while i < reached.len() {
                let x = reached[i];
                for &(a, b) in step_pairs {
                    let y = match (a == x, b == x) {
                        (true, _) => b,
                        (_, true) => a,
                        _ => continue,
                    };
                    assert!(comp.contains(&y), "pair ({a},{b}) crosses components");
                    if !reached.contains(&y) {
                        reached.push(y);
                    }
                }
                i += 1;
            }
            assert_eq!(
                reached.len(),
                comp.len(),
                "step {s}: {comp:?} is not connected"
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "step {s}: components miss an agent"
        );
        for &(a, b) in step_pairs {
            assert_eq!(
                g.component_of(Step(s), AgentId(a)),
                g.component_of(Step(s), AgentId(b)),
                "pair ({a},{b}) split at step {s}"
            );
        }
    }
    let beyond = Step(trace.meta().num_steps);
    assert_eq!(g.components_at(beyond).len(), 0);
    assert_eq!(g.component_of(beyond, AgentId(0)), vec![0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chains_are_the_calls_of_their_agent_and_step(t in arb_trace()) {
        for trace in variants(&t) {
            check_chains(&trace);
        }
    }

    #[test]
    fn oracle_components_partition_the_connected_pairs(t in arb_trace()) {
        for trace in variants(&t) {
            check_oracle(&trace);
        }
    }
}

fn two_by_two() -> TraceBuilder {
    let meta = TraceMeta {
        name: "two".into(),
        num_agents: 2,
        start_step: 0,
        num_steps: 2,
        map_width: 8,
        map_height: 8,
        radius_p: 4,
        max_vel: 1,
        seed: 0,
    };
    TraceBuilder::new(meta, &[Point::new(0, 0), Point::new(1, 1)])
}

#[test]
#[should_panic(expected = "call of agent 2 at step 0 out of range")]
fn a_call_of_an_agent_out_of_range_is_refused() {
    // Row-major, agent 2 of step 0 would alias agent 0 of step 1.
    two_by_two().push_call(2, 0, CallKind::Plan, 10, 1);
}

#[test]
#[should_panic(expected = "call of agent 0 at step 2 out of range")]
fn a_call_at_a_step_out_of_range_is_refused() {
    two_by_two().push_call(0, 2, CallKind::Plan, 10, 1);
}
