//! The out-of-order scheduler state machine (paper §3.1, Algorithm 3).
//!
//! [`Scheduler`] is the controller's brain, factored as a pure state
//! machine so the same logic drives both the discrete-event executor
//! ([`crate::exec::sim`]) and the threaded runtime
//! ([`crate::exec::threaded`]): callers repeatedly take [`ready
//! clusters`](Scheduler::ready_clusters), execute them (issuing LLM calls
//! however they like), and report [`completions`](Scheduler::complete).
//!
//! Internally the scheduler keeps a *dirty set* of agents whose readiness
//! must be (re)evaluated and a *watcher table* mapping a blocking agent to
//! the agents waiting on it, so each commit touches only the affected
//! neighborhood instead of rescanning the world — the scoreboard analogy
//! of the paper's out-of-order execution.

use std::collections::BTreeSet;
use std::sync::Arc;

use aim_store::{Db, StoreError};
use serde::{Deserialize, Serialize};

use crate::depgraph::{DepGraph, DepTracker};
use crate::exec::kernel::Controller;
use crate::ids::{AgentId, ClusterId, Step};
use crate::policy::DependencyPolicy;
use crate::rules::RuleParams;
use crate::space::Space;

/// A group of coupled agents scheduled to execute one step together
/// (§3.4); the minimal synchronization unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Unique id of this cluster instance.
    pub id: ClusterId,
    /// The step every member executes.
    pub step: Step,
    /// Sorted member agents.
    pub members: Vec<AgentId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentState {
    /// Not executing; readiness subject to the policy.
    Waiting,
    /// Handed out in a ready cluster, not yet completed.
    InFlight,
    /// Reached the target step.
    Finished,
}

/// Counters describing a scheduler run (see [`Scheduler::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SchedStats {
    /// Clusters emitted as ready.
    pub clusters_emitted: u64,
    /// Total members across emitted clusters (= agent-steps executed).
    pub agent_steps: u64,
    /// Times a watcher wake caused re-evaluation.
    pub watcher_wakes: u64,
    /// Blocked verdicts during readiness evaluation.
    pub blocked_evals: u64,
    /// Maximum observed step skew (max step − min step over agents).
    pub max_step_skew: u32,
    /// Largest cluster emitted.
    pub max_cluster_size: u32,
}

/// The AI Metropolis scheduler: tracks real dependencies and hands out
/// maximally parallel, causality-safe work.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use aim_core::prelude::*;
/// use aim_store::Db;
///
/// # fn main() -> Result<(), aim_store::StoreError> {
/// let space = Arc::new(GridSpace::new(100, 140));
/// let initial = vec![Point::new(0, 0), Point::new(50, 50)];
/// let mut sched = Scheduler::new(
///     space,
///     RuleParams::genagent(),
///     DependencyPolicy::Spatiotemporal,
///     Arc::new(Db::new()),
///     &initial,
///     Step(2),
/// )?;
/// // Far apart: both agents are immediately ready, in separate clusters.
/// let ready = sched.ready_clusters();
/// assert_eq!(ready.len(), 2);
/// for c in &ready {
///     let pos = sched.graph().pos(c.members[0]);
///     sched.complete(&c.id.clone(), &[(c.members[0], pos)])?;
/// }
/// # Ok(())
/// # }
/// ```
/// The scheduler is generic over its dependency tracker `G` — the
/// single-shard [`DepGraph`] by default, or a
/// [`ShardedDepGraph`](crate::shard::ShardedDepGraph) for 10k+-agent
/// worlds (built via [`Scheduler::from_graph`]); the state machine is
/// identical either way.
pub struct Scheduler<S: Space, G: DepTracker<S> = DepGraph<S>> {
    graph: G,
    policy: DependencyPolicy,
    target_step: Step,
    state: Vec<AgentState>,
    /// `(step, agent)` entries needing readiness evaluation.
    dirty: BTreeSet<(u32, u32)>,
    /// blocker agent → agents to re-dirty when it advances (dense, one
    /// slot per agent — ids index directly, no hashing).
    watchers: Vec<Vec<u32>>,
    inflight: std::collections::HashMap<ClusterId, Cluster>,
    next_cluster: u64,
    finished: usize,
    stats: SchedStats,
    /// Cluster-growth scratch: `stamp[a] == epoch` marks `a` as already
    /// collected into the cluster being grown (reset-free visited set).
    stamp: Vec<u64>,
    epoch: u64,
    /// Reused BFS frontier for cluster growth.
    frontier: Vec<AgentId>,
    /// Telemetry sink; when set, dependency-blocked waits are recorded
    /// as spans (opened at the blocked verdict, closed at emission).
    telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    /// Per-agent open blocked-wait marks (`since_us == u64::MAX` means
    /// not blocked). Only populated when telemetry is attached.
    block_mark: Vec<BlockMark>,
    _space: std::marker::PhantomData<fn() -> S>,
}

/// An open dependency-blocked wait: when it began and who blocked it.
#[derive(Debug, Clone, Copy)]
struct BlockMark {
    since_us: u64,
    blocker: u32,
}

const UNMARKED: BlockMark = BlockMark {
    since_us: u64::MAX,
    blocker: u32::MAX,
};

impl<S: Space, G: DepTracker<S>> std::fmt::Debug for Scheduler<S, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.policy)
            .field("agents", &self.graph.len())
            .field("target_step", &self.target_step)
            .field("finished", &self.finished)
            .finish()
    }
}

impl<S: Space> Scheduler<S> {
    /// Creates a scheduler with all agents at step 0.
    ///
    /// Only the spatiotemporal policy needs the graph's derived
    /// blocked/coupled edges, so for every other policy the underlying
    /// [`DepGraph`] is built with
    /// [`EdgeMode::Off`](crate::depgraph::EdgeMode) and **edge queries on
    /// [`Scheduler::graph`] panic** (node queries — positions, steps,
    /// `validate` — always work). Build a standalone [`DepGraph`] if you
    /// need edge introspection alongside an ablation policy.
    ///
    /// # Errors
    ///
    /// Propagates store errors from the initial graph population.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or `target_step` is zero.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        policy: DependencyPolicy,
        db: Arc<Db>,
        initial: &[S::Pos],
        target_step: Step,
    ) -> Result<Self, StoreError> {
        Self::new_with_history(space, params, policy, db, initial, target_step, false)
    }

    /// [`Scheduler::new`] with per-step history recording enabled when
    /// `history` is set (see [`crate::depgraph::GraphOptions`]) — the
    /// construction checkpointed long-horizon runs use, paired with
    /// periodic [`Scheduler::evict_history`] calls.
    ///
    /// # Errors
    ///
    /// Propagates store errors from the initial graph population.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or `target_step` is zero.
    pub fn new_with_history(
        space: Arc<S>,
        params: RuleParams,
        policy: DependencyPolicy,
        db: Arc<Db>,
        initial: &[S::Pos],
        target_step: Step,
        history: bool,
    ) -> Result<Self, StoreError> {
        assert!(!initial.is_empty(), "at least one agent is required");
        assert!(target_step > Step::ZERO, "target_step must be positive");
        let graph = DepGraph::new_with_options(
            space,
            params,
            db,
            initial,
            crate::depgraph::GraphOptions {
                edges: Self::edge_mode_for(&policy),
                history,
            },
        )?;
        Ok(Self::around_graph(graph, policy, target_step))
    }

    /// Rebuilds a scheduler from the authoritative records already in
    /// `db` — the resume path of checkpoint/restore. Each agent picks up
    /// at its recorded step: agents at or past `target_step` start
    /// finished, everyone else is immediately evaluable.
    ///
    /// The caller chooses `target_step` for the *resumed* run, which may
    /// exceed the target the snapshot was taken under (extending a
    /// finished run is legal).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if an agent record is missing or
    /// malformed.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero or `target_step` is zero.
    pub fn recover(
        space: Arc<S>,
        params: RuleParams,
        policy: DependencyPolicy,
        db: Arc<Db>,
        num_agents: usize,
        target_step: Step,
        history: bool,
    ) -> Result<Self, StoreError> {
        assert!(num_agents > 0, "at least one agent is required");
        assert!(target_step > Step::ZERO, "target_step must be positive");
        let graph = DepGraph::recover_with_options(
            space,
            params,
            db,
            num_agents,
            crate::depgraph::GraphOptions {
                edges: Self::edge_mode_for(&policy),
                history,
            },
        )?;
        Ok(Self::around_graph(graph, policy, target_step))
    }

    /// Only the spatiotemporal policy consults the graph's derived
    /// edges; the ablation policies schedule without them and skip the
    /// per-commit maintenance cost.
    fn edge_mode_for(policy: &DependencyPolicy) -> crate::depgraph::EdgeMode {
        match policy {
            DependencyPolicy::Spatiotemporal => crate::depgraph::EdgeMode::Maintained,
            _ => crate::depgraph::EdgeMode::Off,
        }
    }
}

impl<S: Space, G: DepTracker<S>> Scheduler<S, G> {
    /// Builds the scheduler state machine around an already-assembled
    /// dependency tracker, deriving agent states from its (possibly
    /// recovered) steps — how a scheduler is mounted on a
    /// [`ShardedDepGraph`](crate::shard::ShardedDepGraph) (or any custom
    /// [`DepTracker`]).
    ///
    /// The tracker must answer the edge queries the `policy` will ask:
    /// under [`DependencyPolicy::Spatiotemporal`] that means maintained
    /// blocked/coupled adjacency.
    ///
    /// # Panics
    ///
    /// Panics if the tracker is empty or `target_step` is zero.
    pub fn from_graph(graph: G, policy: DependencyPolicy, target_step: Step) -> Self {
        assert!(graph.len() > 0, "at least one agent is required");
        assert!(target_step > Step::ZERO, "target_step must be positive");
        Self::around_graph(graph, policy, target_step)
    }

    /// Builds the scheduler state machine around an assembled graph,
    /// deriving agent states from the graph's (possibly recovered) steps.
    fn around_graph(graph: G, policy: DependencyPolicy, target_step: Step) -> Self {
        let n = graph.len();
        let mut state = vec![AgentState::Waiting; n];
        let mut dirty = BTreeSet::new();
        let mut finished = 0;
        for a in 0..n as u32 {
            let step = graph.step(AgentId(a));
            if step >= target_step {
                state[a as usize] = AgentState::Finished;
                finished += 1;
            } else {
                dirty.insert((step.0, a));
            }
        }
        Scheduler {
            graph,
            policy,
            target_step,
            state,
            dirty,
            watchers: vec![Vec::new(); n],
            inflight: std::collections::HashMap::new(),
            next_cluster: 0,
            finished,
            stats: SchedStats::default(),
            stamp: vec![0; n],
            epoch: 0,
            frontier: Vec::new(),
            telemetry: None,
            block_mark: Vec::new(),
            _space: std::marker::PhantomData,
        }
    }

    /// Attaches a telemetry sink: dependency-blocked waits become
    /// [`crate::telemetry::SpanKind::Blocked`] spans with the blocking
    /// agent attached, and the dependency tracker is given the same sink
    /// for relink/migration spans (via
    /// [`DepTracker::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Arc<crate::telemetry::Telemetry>) {
        self.block_mark = vec![UNMARKED; self.state.len()];
        self.graph.set_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }

    /// The dependency tracker (positions, steps, edge queries).
    ///
    /// Edge queries (`first_blocker`, `coupled_of`, `blockers_of`,
    /// `snapshot`) are only available under
    /// [`DependencyPolicy::Spatiotemporal`] — see [`Scheduler::new`].
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Mutable access to the dependency tracker, for maintenance
    /// operations between scheduling rounds that need `&mut` on the
    /// tracker itself — e.g. the distributed tracker's quiesce-based
    /// invariant check or worker kill/respawn during fault-injection
    /// tests. Scheduling state (ready sets, in-flight clusters) is not
    /// touched, so callers must not advance or roll back agents through
    /// this handle while clusters are in flight.
    pub fn graph_mut(&mut self) -> &mut G {
        &mut self.graph
    }

    /// The policy in force.
    pub fn policy(&self) -> &DependencyPolicy {
        &self.policy
    }

    /// The step at which agents finish.
    pub fn target_step(&self) -> Step {
        self.target_step
    }

    /// All agents have reached the target step.
    pub fn is_done(&self) -> bool {
        self.finished == self.state.len()
    }

    /// Counters for reporting.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Clusters currently handed out and not yet completed.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Computes and returns every cluster that is ready to execute, marking
    /// its members in-flight. Returns an empty vector when nothing new can
    /// start (callers then wait for a completion).
    pub fn ready_clusters(&mut self) -> Vec<Cluster> {
        match &self.policy {
            DependencyPolicy::GlobalSync => self.ready_global_sync(),
            DependencyPolicy::NoDependency => self.ready_no_dependency(),
            DependencyPolicy::Oracle(_) => self.ready_oracle(),
            DependencyPolicy::Spatiotemporal => self.ready_spatiotemporal(),
        }
    }

    /// Reports a cluster finished: members' steps advance to the recorded
    /// positions, newly unblocked agents become evaluable.
    ///
    /// `new_pos` must contain exactly the cluster's members.
    ///
    /// # Errors
    ///
    /// Propagates store errors from the graph-update transaction.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not in flight or `new_pos` does not match its
    /// members.
    pub fn complete(
        &mut self,
        cluster: &ClusterId,
        new_pos: &[(AgentId, S::Pos)],
    ) -> Result<(), StoreError> {
        let cluster = self
            .inflight
            .remove(cluster)
            .unwrap_or_else(|| panic!("{cluster} is not in flight"));
        assert_eq!(
            new_pos.len(),
            cluster.members.len(),
            "positions must cover all members"
        );
        for (a, _) in new_pos {
            assert!(
                cluster.members.contains(a),
                "{a} is not a member of {}",
                cluster.id
            );
            assert_eq!(self.state[a.index()], AgentState::InFlight);
        }
        self.graph.advance(new_pos)?;
        for (a, _) in new_pos {
            let step = self.graph.step(*a);
            if step >= self.target_step {
                self.state[a.index()] = AgentState::Finished;
                self.finished += 1;
            } else {
                self.state[a.index()] = AgentState::Waiting;
                self.dirty.insert((step.0, a.0));
            }
            // Wake agents that were blocked on this member.
            for w in std::mem::take(&mut self.watchers[a.index()]) {
                if self.state[w as usize] == AgentState::Waiting {
                    self.stats.watcher_wakes += 1;
                    self.dirty.insert((self.graph.step(AgentId(w)).0, w));
                }
            }
        }
        let skew = self.current_skew();
        self.stats.max_step_skew = self.stats.max_step_skew.max(skew);
        Ok(())
    }

    /// Current step skew: max step − min step over all agents, read from
    /// the graph's step index in O(log n).
    pub fn current_skew(&self) -> u32 {
        self.graph.max_step().0 - self.graph.min_step().0
    }

    /// Compacts dependency-graph history below the deepest legal rollback
    /// (see [`DepGraph::evict_history`]); returns the records evicted.
    /// No-op unless the scheduler was built with history recording.
    ///
    /// Call while quiesced — the threaded executor's checkpoint barrier
    /// is the natural site.
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn evict_history(&mut self) -> Result<u64, StoreError> {
        self.graph.evict_history()
    }

    /// Closes every member's open blocked-wait mark: the cluster is
    /// executing again, so the dependency wait that kept it parked ends
    /// now. Out of line so the telemetry-free emit loop keeps its shape.
    #[cold]
    #[inline(never)]
    fn close_block_marks(&mut self, step: Step, members: &[AgentId]) {
        let Some(t) = &self.telemetry else { return };
        for m in members {
            let mark = std::mem::replace(&mut self.block_mark[m.index()], UNMARKED);
            if mark.since_us != u64::MAX {
                t.record(
                    mark.since_us,
                    crate::telemetry::SpanKind::Blocked {
                        agent: m.0,
                        blocker: mark.blocker,
                        step: step.0,
                        reason: crate::telemetry::BlockReason::Dependency,
                    },
                );
            }
        }
    }

    /// Opens a blocked-wait mark on every member that does not already
    /// hold one (first verdict wins — re-evaluations that stay blocked
    /// extend the same wait rather than splitting it). Out of line for
    /// the same reason as [`Scheduler::close_block_marks`].
    #[cold]
    #[inline(never)]
    fn open_block_marks(&mut self, members: &[AgentId], blocker: AgentId) {
        let Some(now) = self.telemetry.as_ref().and_then(|t| t.start()) else {
            return;
        };
        for m in members {
            if self.block_mark[m.index()].since_us == u64::MAX {
                self.block_mark[m.index()] = BlockMark {
                    since_us: now,
                    blocker: blocker.0,
                };
            }
        }
    }

    fn emit(&mut self, step: Step, members: Vec<AgentId>) -> Cluster {
        debug_assert!(!members.is_empty());
        for m in &members {
            debug_assert_eq!(self.state[m.index()], AgentState::Waiting);
            self.state[m.index()] = AgentState::InFlight;
            self.dirty.remove(&(step.0, m.0));
        }
        // Close open blocked waits: the agents are executing again.
        if self.telemetry.is_some() {
            self.close_block_marks(step, &members);
        }
        let id = ClusterId(self.next_cluster);
        self.next_cluster += 1;
        self.stats.clusters_emitted += 1;
        self.stats.agent_steps += members.len() as u64;
        self.stats.max_cluster_size = self.stats.max_cluster_size.max(members.len() as u32);
        let cluster = Cluster { id, step, members };
        self.inflight.insert(id, cluster.clone());
        cluster
    }

    fn ready_global_sync(&mut self) -> Vec<Cluster> {
        // One barriered cluster containing every unfinished agent; it can
        // only form when nothing is in flight.
        if !self.inflight.is_empty() {
            self.dirty.clear();
            return Vec::new();
        }
        let members: Vec<AgentId> = (0..self.state.len() as u32)
            .map(AgentId)
            .filter(|a| self.state[a.index()] == AgentState::Waiting)
            .collect();
        self.dirty.clear();
        if members.is_empty() {
            return Vec::new();
        }
        let step = self.graph.step(members[0]);
        debug_assert!(
            members.iter().all(|m| self.graph.step(*m) == step),
            "global sync keeps all agents in lock step"
        );
        vec![self.emit(step, members)]
    }

    fn ready_no_dependency(&mut self) -> Vec<Cluster> {
        let mut out = Vec::new();
        while let Some(&(s, a)) = self.dirty.iter().next() {
            self.dirty.remove(&(s, a));
            if self.state[a as usize] != AgentState::Waiting || self.graph.step(AgentId(a)).0 != s {
                continue;
            }
            out.push(self.emit(Step(s), vec![AgentId(a)]));
        }
        out
    }

    fn ready_oracle(&mut self) -> Vec<Cluster> {
        let DependencyPolicy::Oracle(oracle) = self.policy.clone() else {
            unreachable!()
        };
        let mut out = Vec::new();
        while let Some(&(s, a)) = self.dirty.iter().next() {
            self.dirty.remove(&(s, a));
            if self.state[a as usize] != AgentState::Waiting || self.graph.step(AgentId(a)).0 != s {
                continue;
            }
            let comp = oracle.component_of(Step(s), AgentId(a));
            let all_arrived = comp.iter().all(|&m| {
                self.state[m as usize] == AgentState::Waiting && self.graph.step(AgentId(m)).0 == s
            });
            if all_arrived {
                let members: Vec<AgentId> = comp.iter().map(|&m| AgentId(m)).collect();
                out.push(self.emit(Step(s), members));
            }
            // Otherwise: the last member to arrive re-triggers via its own
            // dirty entry — no watcher needed.
        }
        out
    }

    fn ready_spatiotemporal(&mut self) -> Vec<Cluster> {
        let mut out = Vec::new();
        while let Some(&(s, a)) = self.dirty.iter().next() {
            self.dirty.remove(&(s, a));
            if self.state[a as usize] != AgentState::Waiting || self.graph.step(AgentId(a)).0 != s {
                continue; // stale entry
            }
            // Grow the coupled cluster from `a` over waiting same-step
            // agents (transitive closure of the coupling relation). The
            // coupling edges come straight off the graph's maintained
            // adjacency; the visited set is an epoch stamp, so the whole
            // growth allocates nothing beyond the emitted member list.
            self.epoch += 1;
            self.stamp[a as usize] = self.epoch;
            let mut members = vec![AgentId(a)];
            self.frontier.clear();
            self.frontier.push(AgentId(a));
            while let Some(x) = self.frontier.pop() {
                for &nb in self.graph.coupled_of(x) {
                    if self.state[nb.index()] == AgentState::Waiting
                        && self.stamp[nb.index()] != self.epoch
                    {
                        self.stamp[nb.index()] = self.epoch;
                        members.push(nb);
                        self.frontier.push(nb);
                    }
                }
            }
            members.sort_unstable();
            // A cluster may advance only if no member is blocked by a
            // lagging agent (§3.2).
            let mut blocker = None;
            for m in &members {
                if let Some(b) = self.graph.first_blocker(*m) {
                    blocker = Some(b);
                    break;
                }
            }
            match blocker {
                Some(b) => {
                    self.stats.blocked_evals += 1;
                    let list = &mut self.watchers[b.index()];
                    for m in &members {
                        if !list.contains(&m.0) {
                            list.push(m.0);
                        }
                        // The whole cluster was evaluated; drop stale
                        // entries so it is not rescanned until woken.
                        self.dirty.remove(&(s, m.0));
                    }
                    if self.telemetry.is_some() {
                        self.open_block_marks(&members, b);
                    }
                }
                None => {
                    out.push(self.emit(Step(s), members));
                }
            }
        }
        out
    }
}

/// The conservative scheduler as the virtual-time kernel sees it: every
/// execution it hands out is final.
impl<S: Space, G: DepTracker<S>> Controller<S::Pos> for Scheduler<S, G> {
    const SPECULATIVE: bool = false;

    fn ready(&mut self) -> Result<Vec<Cluster>, StoreError> {
        Ok(self.ready_clusters())
    }

    fn complete(
        &mut self,
        cluster: &ClusterId,
        new_pos: &[(AgentId, S::Pos)],
    ) -> Result<bool, StoreError> {
        Scheduler::complete(self, cluster, new_pos).map(|()| true)
    }

    fn is_done(&self) -> bool {
        Scheduler::is_done(self)
    }

    fn inflight_len(&self) -> usize {
        Scheduler::inflight_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::OracleGraph;
    use crate::space::{GridSpace, Point};

    fn sched(points: &[(i32, i32)], policy: DependencyPolicy, target: u32) -> Scheduler<GridSpace> {
        let space = Arc::new(GridSpace::new(200, 200));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        Scheduler::new(
            space,
            RuleParams::genagent(),
            policy,
            Arc::new(Db::new()),
            &initial,
            Step(target),
        )
        .unwrap()
    }

    /// Completes `c` in place (agents stay put).
    fn finish(s: &mut Scheduler<GridSpace>, c: &Cluster) {
        let pos: Vec<(AgentId, Point)> =
            c.members.iter().map(|m| (*m, s.graph().pos(*m))).collect();
        s.complete(&c.id, &pos).unwrap();
    }

    #[test]
    fn global_sync_lockstep() {
        let mut s = sched(&[(0, 0), (100, 100)], DependencyPolicy::GlobalSync, 3);
        for step in 0..3u32 {
            let ready = s.ready_clusters();
            assert_eq!(ready.len(), 1, "one barriered cluster per step");
            assert_eq!(ready[0].step, Step(step));
            assert_eq!(ready[0].members.len(), 2);
            assert!(
                s.ready_clusters().is_empty(),
                "no work while the barrier is open"
            );
            finish(&mut s, &ready[0]);
        }
        assert!(s.is_done());
        assert_eq!(s.stats().max_step_skew, 0);
    }

    #[test]
    fn no_dependency_runs_everyone_freely() {
        let mut s = sched(&[(0, 0), (1, 0)], DependencyPolicy::NoDependency, 2);
        let ready = s.ready_clusters();
        assert_eq!(ready.len(), 2, "adjacent agents still independent");
        // Finish agent 0 for both steps before agent 1 moves at all.
        finish(&mut s, &ready[0]);
        let more = s.ready_clusters();
        assert_eq!(more.len(), 1);
        finish(&mut s, &more[0]);
        assert!(s.ready_clusters().is_empty()); // agent 0 finished
        finish(&mut s, &ready[1]);
        let last = s.ready_clusters();
        finish(&mut s, &last[0]);
        assert!(s.is_done());
        assert_eq!(s.stats().max_step_skew, 2);
    }

    #[test]
    fn spatiotemporal_couples_adjacent_agents() {
        let mut s = sched(
            &[(0, 0), (5, 0), (100, 100)],
            DependencyPolicy::Spatiotemporal,
            2,
        );
        let ready = s.ready_clusters();
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].members, vec![AgentId(0), AgentId(1)]);
        assert_eq!(ready[1].members, vec![AgentId(2)]);
    }

    #[test]
    fn spatiotemporal_blocks_runahead_near_lagging_agent() {
        // Agents 10 apart: decoupled (10 > 5) but within blocking radius
        // once the gap grows: blocked at gap d if 10 <= (d+1)*1+4 → d >= 5.
        let mut s = sched(&[(0, 0), (10, 0)], DependencyPolicy::Spatiotemporal, 20);
        let mut steps_done = [0u32; 2];
        // Run agent 1 ahead as far as the scheduler allows while agent 0
        // never completes its first emitted cluster... we must keep agent 0
        // in flight. Pop initial ready (both singletons).
        let ready = s.ready_clusters();
        assert_eq!(ready.len(), 2);
        let c0 = ready[0].clone();
        let mut c1 = ready[1].clone();
        assert_eq!(c1.members, vec![AgentId(1)]);
        // Advance agent 1 repeatedly; agent 0 stays in flight at step 0.
        loop {
            finish(&mut s, &c1);
            steps_done[1] += 1;
            let next = s.ready_clusters();
            if next.is_empty() {
                break;
            }
            assert_eq!(next.len(), 1);
            c1 = next[0].clone();
        }
        // Blocked when executing step d requires (d+1)+4 >= 10 → d = 5, so
        // steps 0..=4 complete (5 commits).
        assert_eq!(steps_done[1], 5);
        // Completing agent 0's step 0 unblocks agent 1 for exactly 1 more.
        finish(&mut s, &c0);
        let next = s.ready_clusters();
        assert_eq!(next.len(), 2, "agent0 re-ready and agent1 woken: {next:?}");
        assert_eq!(s.stats().watcher_wakes, 1);
    }

    #[test]
    fn spatiotemporal_min_step_never_deadlocks() {
        let mut s = sched(
            &[(0, 0), (3, 0), (8, 0), (30, 30)],
            DependencyPolicy::Spatiotemporal,
            5,
        );
        let mut safety = 0;
        while !s.is_done() {
            let ready = s.ready_clusters();
            assert!(
                !ready.is_empty() || s.inflight_len() > 0,
                "no ready clusters and nothing in flight: deadlock"
            );
            for c in ready {
                finish(&mut s, &c);
            }
            safety += 1;
            assert!(safety < 1000, "failed to converge");
        }
        assert!(s.graph().validate().is_ok());
    }

    #[test]
    fn oracle_waits_for_component_partners() {
        // Oracle says agents 0 and 1 interact at step 1 (and only then).
        let oracle = Arc::new(OracleGraph::from_interactions(
            2,
            &[vec![], vec![(0, 1)], vec![]],
        ));
        let mut s = sched(&[(0, 0), (50, 50)], DependencyPolicy::Oracle(oracle), 3);
        let ready = s.ready_clusters();
        assert_eq!(ready.len(), 2, "step 0 components are singletons");
        // Finish agent 0's step 0; its step-1 component needs agent 1.
        finish(&mut s, &ready[0]);
        assert!(
            s.ready_clusters().is_empty(),
            "agent0 must wait for agent1 at step 1"
        );
        finish(&mut s, &ready[1]);
        let joint = s.ready_clusters();
        assert_eq!(joint.len(), 1);
        assert_eq!(joint[0].members, vec![AgentId(0), AgentId(1)]);
        assert_eq!(joint[0].step, Step(1));
        finish(&mut s, &joint[0]);
        // Step 2: independent again.
        assert_eq!(s.ready_clusters().len(), 2);
    }

    #[test]
    fn completion_validation_panics_on_bad_input() {
        let mut s = sched(&[(0, 0)], DependencyPolicy::NoDependency, 2);
        let ready = s.ready_clusters();
        let c = &ready[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s2 = sched(&[(0, 0)], DependencyPolicy::NoDependency, 2);
            s2.ready_clusters();
            // Wrong cluster id entirely.
            s2.complete(&ClusterId(999), &[]).unwrap();
        }));
        assert!(result.is_err());
        finish(&mut s, c);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sched(&[(0, 0), (100, 100)], DependencyPolicy::NoDependency, 2);
        while !s.is_done() {
            for c in s.ready_clusters() {
                finish(&mut s, &c);
            }
        }
        let st = s.stats();
        assert_eq!(st.agent_steps, 4);
        assert_eq!(st.clusters_emitted, 4);
        assert_eq!(st.max_cluster_size, 1);
    }

    #[test]
    fn movement_is_respected_on_complete() {
        let mut s = sched(&[(0, 0)], DependencyPolicy::NoDependency, 1);
        let ready = s.ready_clusters();
        s.complete(&ready[0].id, &[(AgentId(0), Point::new(1, 1))])
            .unwrap();
        assert_eq!(s.graph().pos(AgentId(0)), Point::new(1, 1));
        assert!(s.is_done());
    }
}
