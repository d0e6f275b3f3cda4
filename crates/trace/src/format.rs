//! The in-memory trace representation and its [`Workload`] replay impl.

use aim_core::space::Point;
use aim_core::workload::{CallSpec, Workload};
use aim_core::{AgentId, Step};
use aim_llm::CallKind;
use serde::{Deserialize, Serialize};

/// Trace header: everything needed to interpret the body and to configure
/// a matching scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable label, e.g. `"smallville-day-seed42"`.
    pub name: String,
    /// Number of agents (ids `0..num_agents`).
    pub num_agents: u32,
    /// Absolute step (since midnight of day 0) the trace starts at.
    pub start_step: u32,
    /// Number of steps covered (replay target).
    pub num_steps: u32,
    /// Map width in tiles (for reports).
    pub map_width: u32,
    /// Map height in tiles.
    pub map_height: u32,
    /// Perception radius the world was generated with.
    pub radius_p: u32,
    /// Movement/information speed limit per step.
    pub max_vel: u32,
    /// Generator seed.
    pub seed: u64,
}

/// One recorded LLM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallEvent {
    /// Issuing agent.
    pub agent: u32,
    /// Step *relative to the trace start* (0-based).
    pub step: u32,
    /// Position within the agent's chain for that step.
    pub seq: u32,
    /// Agent function that issued the call.
    pub kind: CallKind,
    /// Prompt tokens.
    pub input_tokens: u32,
    /// Generation tokens.
    pub output_tokens: u32,
}

/// A complete recorded workload: call chains plus a dense position matrix,
/// both indexed by `(step, agent)` in row-major order.
///
/// Row `s` of the positions holds every agent at the start of relative
/// step `s` (row 0 is the trace start, row `s + 1` the state after step
/// `s`). The calls are sorted by `(step, agent, seq)`, the same order, so
/// `(agent, step)`'s chain is `calls[offsets[i]..offsets[i + 1]]` with
/// `i = step * num_agents + agent`: two array reads, nothing hashed.
/// `Trace` implements [`Workload`] so it can be handed straight to the
/// engine's executors — this is the paper's replay mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    meta: TraceMeta,
    calls: Vec<CallEvent>,
    /// `(num_steps + 1) × num_agents`, row-major by step.
    positions: Vec<Point>,
    /// `num_steps × num_agents + 1` chain starts into `calls` (one row
    /// fewer than `positions`, so the codec's shape bound holds it too).
    #[serde(skip)]
    offsets: Vec<u32>,
}

impl Trace {
    /// The trace header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// All calls, sorted by `(step, agent, seq)`.
    pub fn calls(&self) -> &[CallEvent] {
        &self.calls
    }

    /// Position of `agent` at the start of the trace.
    pub fn initial_position(&self, agent: u32) -> Point {
        self.positions[agent as usize]
    }

    /// Position of `agent` after committing relative step `step`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` or `step` is out of range.
    pub fn position_after(&self, agent: u32, step: u32) -> Point {
        let row = (step + 1) as usize;
        assert!(
            row <= self.meta.num_steps as usize,
            "step {step} out of range"
        );
        self.positions[row * self.meta.num_agents as usize + agent as usize]
    }

    /// Every agent's position at the start of relative step `step`, by
    /// agent; `row(num_steps)` is the final state, and a later step
    /// panics.
    pub fn row(&self, step: u32) -> &[Point] {
        let n = self.meta.num_agents as usize;
        &self.positions[step as usize * n..(step as usize + 1) * n]
    }

    /// The call chain of `(agent, step)`, in `seq` order (empty when the
    /// agent made no call then, or either is out of range).
    pub fn chain(&self, agent: u32, step: u32) -> &[CallEvent] {
        if agent >= self.meta.num_agents || step >= self.meta.num_steps {
            return &[];
        }
        let i = step as usize * self.meta.num_agents as usize + agent as usize;
        &self.calls[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Extracts the sub-trace covering relative steps
    /// `[from, from + len)` — e.g. the paper's busy (12pm–1pm) and quiet
    /// (6am–7am) hour windows out of a full-day trace.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the trace bounds or `len` is zero.
    pub fn window(&self, from: u32, len: u32, name: impl Into<String>) -> Trace {
        assert!(len > 0, "window must be non-empty");
        let Some(end) = from
            .checked_add(len)
            .filter(|&end| end <= self.meta.num_steps)
        else {
            panic!("window {from}+{len} out of {} steps", self.meta.num_steps);
        };
        let meta = TraceMeta {
            name: name.into(),
            start_step: self.meta.start_step + from,
            num_steps: len,
            ..self.meta.clone()
        };
        let n = self.meta.num_agents as usize;
        let positions = self.positions[from as usize * n..(end as usize + 1) * n].to_vec();
        // The window's chains are one run of the row-major call order.
        let run = self.offsets[from as usize * n]..self.offsets[end as usize * n];
        let calls = self.calls[run.start as usize..run.end as usize]
            .iter()
            .map(|c| CallEvent {
                step: c.step - from,
                ..*c
            })
            .collect();
        Trace::from_parts(meta, calls, positions)
    }

    /// The trace of `calls`, pushed in any order: each `(agent, step)`
    /// chain keeps its calls' order and is numbered `seq` 0, 1, … in it.
    /// Every call must lie in the `num_agents × num_steps` grid, as
    /// [`TraceBuilder::push_call`] checks, or it would land in another
    /// chain's slot.
    ///
    /// # Panics
    ///
    /// Panics if the position matrix does not hold `num_steps + 1` rows.
    pub(crate) fn from_parts(
        meta: TraceMeta,
        mut calls: Vec<CallEvent>,
        positions: Vec<Point>,
    ) -> Trace {
        let (agents, steps) = (meta.num_agents as usize, meta.num_steps as usize);
        assert_eq!(
            positions.len(),
            (steps + 1) * agents,
            "position matrix size mismatch"
        );
        let slot = |c: &CallEvent| c.step as usize * agents + c.agent as usize;
        calls.sort_by_key(slot); // stable: chains keep their order
        let mut offsets = Vec::with_capacity(steps * agents + 1);
        offsets.push(0);
        let mut end = 0usize;
        for i in 0..steps * agents {
            let start = end;
            while end < calls.len() && slot(&calls[end]) == i {
                calls[end].seq = (end - start) as u32;
                end += 1;
            }
            offsets.push(u32::try_from(end).expect("at most u32::MAX calls"));
        }
        Trace {
            meta,
            calls,
            positions,
            offsets,
        }
    }
}

impl Workload<Point> for Trace {
    fn num_agents(&self) -> usize {
        self.meta.num_agents as usize
    }

    fn target_step(&self) -> Step {
        Step(self.meta.num_steps)
    }

    fn initial_pos(&self, agent: AgentId) -> Point {
        self.initial_position(agent.0)
    }

    fn calls(&self, agent: AgentId, step: Step) -> Vec<CallSpec> {
        self.chain(agent.0, step.0)
            .iter()
            .map(|c| CallSpec::new(c.input_tokens, c.output_tokens, c.kind))
            .collect()
    }

    fn pos_after(&self, agent: AgentId, step: Step) -> Point {
        self.position_after(agent.0, step.0)
    }

    fn total_calls(&self) -> u64 {
        self.calls.len() as u64
    }
}

/// Incrementally builds a [`Trace`] (used by the generator and the codec).
#[derive(Debug)]
pub struct TraceBuilder {
    meta: TraceMeta,
    calls: Vec<CallEvent>,
    positions: Vec<Point>,
}

impl TraceBuilder {
    /// Starts a trace with the given header and initial positions.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != meta.num_agents`.
    pub fn new(meta: TraceMeta, initial: &[Point]) -> Self {
        assert_eq!(
            initial.len(),
            meta.num_agents as usize,
            "initial positions mismatch"
        );
        let mut positions = Vec::with_capacity(((meta.num_steps + 1) * meta.num_agents) as usize);
        positions.extend_from_slice(initial);
        TraceBuilder {
            meta,
            calls: Vec::new(),
            positions,
        }
    }

    /// Appends one call to `(agent, step)`'s chain; [`finish`](Self::finish)
    /// numbers each chain's `seq` in push order.
    ///
    /// # Panics
    ///
    /// Panics if `agent` or `step` is out of range.
    pub fn push_call(&mut self, agent: u32, step: u32, kind: CallKind, input: u32, output: u32) {
        assert!(
            agent < self.meta.num_agents && step < self.meta.num_steps,
            "call of agent {agent} at step {step} out of range"
        );
        self.calls.push(CallEvent {
            agent,
            step,
            seq: 0,
            kind,
            input_tokens: input,
            output_tokens: output,
        });
    }

    /// Appends the position row for the step that just committed; rows must
    /// arrive in step order, `num_agents` points at a time.
    pub fn push_positions(&mut self, row: &[Point]) {
        assert_eq!(
            row.len(),
            self.meta.num_agents as usize,
            "position row size mismatch"
        );
        self.positions.extend_from_slice(row);
    }

    /// Finalizes the trace.
    ///
    /// # Panics
    ///
    /// Panics if the number of position rows does not match
    /// `meta.num_steps`.
    pub fn finish(self) -> Trace {
        Trace::from_parts(self.meta, self.calls, self.positions)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A tiny hand-built trace: 2 agents, 3 steps.
    pub fn tiny() -> Trace {
        let meta = TraceMeta {
            name: "tiny".into(),
            num_agents: 2,
            start_step: 100,
            num_steps: 3,
            map_width: 10,
            map_height: 10,
            radius_p: 4,
            max_vel: 1,
            seed: 1,
        };
        let mut b = TraceBuilder::new(meta, &[Point::new(0, 0), Point::new(9, 9)]);
        b.push_call(0, 0, CallKind::Plan, 100, 10);
        b.push_call(0, 0, CallKind::Perceive, 50, 5);
        b.push_call(1, 1, CallKind::Converse, 200, 20);
        b.push_positions(&[Point::new(1, 0), Point::new(9, 9)]); // after step 0
        b.push_positions(&[Point::new(2, 0), Point::new(9, 8)]); // after step 1
        b.push_positions(&[Point::new(3, 0), Point::new(9, 7)]); // after step 2
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::tiny;
    use super::*;

    #[test]
    fn builder_assigns_chain_seq() {
        let t = tiny();
        let chain = t.chain(0, 0);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].seq, 0);
        assert_eq!(chain[0].kind, CallKind::Plan);
        assert_eq!(chain[1].seq, 1);
        assert!(t.chain(0, 1).is_empty());
        assert!(t.chain(5, 0).is_empty(), "unknown agent yields empty chain");
    }

    #[test]
    fn positions_by_step() {
        let t = tiny();
        assert_eq!(t.initial_position(0), Point::new(0, 0));
        assert_eq!(t.position_after(0, 0), Point::new(1, 0));
        assert_eq!(t.position_after(1, 2), Point::new(9, 7));
    }

    #[test]
    fn workload_impl_replays() {
        let t = tiny();
        assert_eq!(Workload::num_agents(&t), 2);
        assert_eq!(Workload::target_step(&t), Step(3));
        assert_eq!(t.total_calls(), 3);
        let specs = Workload::calls(&t, AgentId(0), Step(0));
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].input_tokens, 100);
        assert_eq!(
            Workload::pos_after(&t, AgentId(1), Step(1)),
            Point::new(9, 8)
        );
    }

    #[test]
    fn window_rebases_steps_and_positions() {
        let t = tiny();
        let w = t.window(1, 2, "tiny-window");
        assert_eq!(w.meta().start_step, 101);
        assert_eq!(w.meta().num_steps, 2);
        assert_eq!(
            w.initial_position(0),
            Point::new(1, 0),
            "window starts after step 0"
        );
        let chain = w.chain(1, 0);
        assert_eq!(
            chain.len(),
            1,
            "agent 1's step-1 call lands at window step 0"
        );
        assert_eq!(chain[0].kind, CallKind::Converse);
        assert_eq!(w.position_after(0, 1), Point::new(3, 0));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn window_bounds_checked() {
        tiny().window(2, 5, "bad");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn window_end_past_u32_is_out_of_bounds() {
        tiny().window(u32::MAX, 2, "bad");
    }

    #[test]
    #[should_panic(expected = "position matrix size mismatch")]
    fn mismatched_positions_rejected() {
        let t = tiny();
        let meta = t.meta().clone();
        let _ = Trace::from_parts(meta, vec![], vec![Point::new(0, 0)]);
    }
}
