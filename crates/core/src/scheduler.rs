//! The out-of-order scheduler state machine (paper §3.1, Algorithm 3).
//!
//! [`Scheduler`] is the controller's brain, factored as a pure state
//! machine so the same logic drives both the discrete-event executor
//! ([`crate::exec::sim`]) and the threaded runtime
//! ([`crate::exec::threaded`]): callers repeatedly take [`ready
//! clusters`](Scheduler::ready_clusters), execute them (issuing LLM calls
//! however they like), and report [`completions`](Scheduler::complete).
//!
//! The ready/complete cycle itself lives in one crate-private core that
//! [`Scheduler`] and the speculative [`crate::spec::SpecScheduler`] both
//! hold: per-agent states, a *dirty set* of agents whose readiness must
//! be (re)evaluated and a *watcher table* mapping a blocking agent to the
//! agents waiting on it, so each commit touches only the affected
//! neighborhood instead of rescanning the world — the scoreboard analogy
//! of the paper's out-of-order execution. [`Scheduler`] adds the policy
//! that decides what is ready and the map of clusters in flight.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aim_store::{Db, StoreError};
use serde::{Deserialize, Serialize};

use crate::depgraph::{DepGraph, DepTracker, EdgeMode, GraphOptions};
use crate::exec::kernel::Controller;
use crate::ids::{AgentId, ClusterId, Step};
use crate::policy::DependencyPolicy;
use crate::rules::RuleParams;
use crate::space::Space;
use crate::telemetry::{BlockReason, SpanKind, Telemetry};

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

/// The conservative ready/complete state machine over a dependency
/// tracker `G` (§3.3–3.5), shared by both schedulers: what an agent is
/// doing, which `(step, agent)` entries need evaluation, who waits on
/// whom, cluster growth, emission, the completion check, and
/// requeue-and-wake. Its holders decide *what* to emit and keep their
/// clusters in flight; the core keeps the books.
pub(crate) struct Core<S: Space, G: DepTracker<S>> {
    graph: G,
    target_step: Step,
    state: Vec<AgentState>,
    /// `(step, agent)` entries needing readiness evaluation.
    dirty: BTreeSet<(u32, u32)>,
    /// blocker agent → agents to re-dirty when it completes (dense, one
    /// slot per agent — ids index directly, no hashing).
    watchers: Vec<Vec<u32>>,
    next_cluster: u64,
    finished: usize,
    stats: SchedStats,
    /// `stamp[a] == epoch` marks `a` as already visited by the current
    /// cluster growth or completion check (reset-free visited set).
    stamp: Vec<u64>,
    epoch: u64,
    /// Telemetry sink; when set, dependency-blocked waits are recorded
    /// as spans (opened at the blocked verdict, closed at emission).
    telemetry: Option<Arc<Telemetry>>,
    /// Per-agent open blocked-wait marks (`since_us == u64::MAX` means
    /// not blocked). Only populated when telemetry is attached.
    block_mark: Vec<BlockMark>,
    _space: std::marker::PhantomData<fn() -> S>,
}

impl<S: Space, G: DepTracker<S>> Core<S, G> {
    /// Builds the state machine around `graph`, deriving agent states
    /// from its (possibly recovered) steps: agents at or past
    /// `target_step` start finished, everyone else is evaluable.
    ///
    /// # Panics
    ///
    /// Panics if the tracker is empty or `target_step` is zero.
    pub(crate) fn new(graph: G, target_step: Step) -> Self {
        assert!(graph.len() > 0, "at least one agent is required");
        assert!(target_step > Step::ZERO, "target_step must be positive");
        let n = graph.len();
        let mut core = Core {
            graph,
            target_step,
            // Every agent starts as if just completed; `reopen` places it.
            state: vec![AgentState::InFlight; n],
            dirty: BTreeSet::new(),
            watchers: vec![Vec::new(); n],
            next_cluster: 0,
            finished: 0,
            stats: SchedStats::default(),
            stamp: vec![0; n],
            epoch: 0,
            telemetry: None,
            block_mark: Vec::new(),
            _space: std::marker::PhantomData,
        };
        for a in 0..n as u32 {
            core.reopen(AgentId(a));
        }
        core
    }

    pub(crate) fn graph(&self) -> &G {
        &self.graph
    }

    pub(crate) fn graph_mut(&mut self) -> &mut G {
        &mut self.graph
    }

    pub(crate) fn target_step(&self) -> Step {
        self.target_step
    }

    pub(crate) fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Every agent has reached the target step.
    pub(crate) fn is_done(&self) -> bool {
        self.finished == self.state.len()
    }

    fn is_waiting_at(&self, a: AgentId, step: Step) -> bool {
        self.state[a.index()] == AgentState::Waiting && self.graph.step(a) == step
    }

    /// Max step − min step over all agents.
    pub(crate) fn current_skew(&self) -> u32 {
        self.graph.max_step().0 - self.graph.min_step().0
    }

    /// Gives the tracker and every blocked wait the telemetry sink.
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.block_mark = vec![UNMARKED; self.state.len()];
        self.graph.set_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }

    /// Pops dirty entries in `(step, agent)` order until one is live — an
    /// agent still waiting at the step it was queued at.
    pub(crate) fn next_dirty(&mut self) -> Option<(Step, AgentId)> {
        while let Some((s, a)) = self.dirty.pop_first() {
            if self.is_waiting_at(AgentId(a), Step(s)) {
                return Some((Step(s), AgentId(a)));
            }
        }
        None
    }

    /// Queues `a` for re-evaluation at `step`.
    pub(crate) fn mark_dirty(&mut self, step: Step, a: AgentId) {
        self.dirty.insert((step.0, a.0));
    }

    /// Fills the empty `members` with the coupled cluster of `a`: the
    /// transitive closure of the coupling relation over waiting agents,
    /// straight off the tracker's adjacency, ascending. The visited set
    /// is an epoch stamp, so growth allocates nothing beyond `members`.
    pub(crate) fn grow(&mut self, a: AgentId, members: &mut Vec<AgentId>) {
        debug_assert!(members.is_empty());
        self.epoch += 1;
        self.stamp[a.index()] = self.epoch;
        members.push(a);
        let mut next = 0;
        while let Some(&x) = members.get(next) {
            next += 1;
            for &nb in self.graph.coupled_of(x) {
                if self.state[nb.index()] == AgentState::Waiting
                    && self.stamp[nb.index()] != self.epoch
                {
                    self.stamp[nb.index()] = self.epoch;
                    members.push(nb);
                }
            }
        }
        members.sort_unstable();
    }

    /// The first blocker of the first member that has one (§3.2): a
    /// cluster may advance only if no member is blocked by a laggard.
    pub(crate) fn first_blocker(&self, members: &[AgentId]) -> Option<AgentId> {
        members.iter().find_map(|m| self.graph.first_blocker(*m))
    }

    /// Parks `members`, a cluster at `step` that may not run yet, until
    /// agent `on` completes: the whole cluster was evaluated, so its
    /// dirty entries go and it is not rescanned until woken.
    pub(crate) fn wait_on(&mut self, on: AgentId, step: Step, members: &[AgentId]) {
        self.stats.blocked_evals += 1;
        let list = &mut self.watchers[on.index()];
        for m in members {
            if !list.contains(&m.0) {
                list.push(m.0);
            }
            self.dirty.remove(&(step.0, m.0));
        }
        if self.telemetry.is_some() {
            self.open_block_marks(members, on);
        }
    }

    /// Marks `members` in flight at `step` and names the new cluster.
    pub(crate) fn emit(&mut self, step: Step, members: &[AgentId]) -> ClusterId {
        debug_assert!(!members.is_empty());
        let id = ClusterId(self.next_cluster);
        self.next_cluster += 1;
        for m in members {
            debug_assert_eq!(self.state[m.index()], AgentState::Waiting);
            self.state[m.index()] = AgentState::InFlight;
            self.dirty.remove(&(step.0, m.0));
        }
        // Close open blocked waits: the agents are executing again.
        if self.telemetry.is_some() {
            self.close_block_marks(step, members);
        }
        self.stats.clusters_emitted += 1;
        self.stats.agent_steps += members.len() as u64;
        self.stats.max_cluster_size = self.stats.max_cluster_size.max(members.len() as u32);
        id
    }

    /// The one completion check, made before anything changes: `new_pos`
    /// must name each of in-flight `cluster`'s (ascending) `members`
    /// exactly once.
    ///
    /// # Panics
    ///
    /// Panics if it does not.
    pub(crate) fn check_completion(
        &mut self,
        cluster: &ClusterId,
        members: &[AgentId],
        new_pos: &[(AgentId, S::Pos)],
    ) {
        assert_eq!(
            new_pos.len(),
            members.len(),
            "positions must cover all members"
        );
        self.epoch += 1;
        for (a, _) in new_pos {
            assert!(
                members.binary_search(a).is_ok(),
                "{a} is not a member of {cluster}"
            );
            assert_ne!(
                self.stamp[a.index()],
                self.epoch,
                "{a} is named twice in the positions of {cluster}"
            );
            self.stamp[a.index()] = self.epoch;
            assert_eq!(self.state[a.index()], AgentState::InFlight);
        }
    }

    /// Accepts a checked execution: advances the tracker, then — member by
    /// member in `new_pos` order — requeues (or finishes) it and wakes the
    /// agents waiting on it, and samples the step skew.
    ///
    /// # Errors
    ///
    /// Propagates store errors from the tracker's advance; no agent has
    /// moved then.
    pub(crate) fn commit(&mut self, new_pos: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        self.graph.advance(new_pos)?;
        for (a, _) in new_pos {
            self.reopen(*a);
            self.wake(*a);
        }
        self.stats.max_step_skew = self.stats.max_step_skew.max(self.current_skew());
        Ok(())
    }

    /// Puts `a` back into scheduling at its current step — after a
    /// commit, a discarded execution, or a squash that pulled it back
    /// (possibly from finished) — or finishes it at the target step.
    pub(crate) fn reopen(&mut self, a: AgentId) {
        if self.state[a.index()] == AgentState::Finished {
            self.finished -= 1;
        }
        let step = self.graph.step(a);
        if step >= self.target_step {
            self.state[a.index()] = AgentState::Finished;
            self.finished += 1;
        } else {
            self.state[a.index()] = AgentState::Waiting;
            self.dirty.insert((step.0, a.0));
        }
    }

    /// Re-dirties every waiting agent parked on `a`.
    pub(crate) fn wake(&mut self, a: AgentId) {
        for w in std::mem::take(&mut self.watchers[a.index()]) {
            if self.state[w as usize] == AgentState::Waiting {
                self.stats.watcher_wakes += 1;
                self.dirty.insert((self.graph.step(AgentId(w)).0, w));
            }
        }
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
                    SpanKind::Blocked {
                        agent: m.0,
                        blocker: mark.blocker,
                        step: step.0,
                        reason: BlockReason::Dependency,
                    },
                );
            }
        }
    }

    /// Opens a blocked-wait mark on every member that does not already
    /// hold one (first verdict wins — re-evaluations that stay blocked
    /// extend the same wait rather than splitting it). Out of line for
    /// the same reason as [`Core::close_block_marks`].
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
    core: Core<S, G>,
    policy: DependencyPolicy,
    inflight: HashMap<ClusterId, Cluster>,
}

impl<S: Space, G: DepTracker<S>> std::fmt::Debug for Scheduler<S, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.policy)
            .field("agents", &self.core.graph.len())
            .field("target_step", &self.core.target_step)
            .field("finished", &self.core.finished)
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
        let options = Self::graph_options(&policy, history);
        let graph = DepGraph::new_with_options(space, params, db, initial, options)?;
        Ok(Self::from_graph(graph, policy, target_step))
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
        let options = Self::graph_options(&policy, history);
        let graph = DepGraph::recover_with_options(space, params, db, num_agents, options)?;
        Ok(Self::from_graph(graph, policy, target_step))
    }

    /// Only the spatiotemporal policy consults the graph's derived
    /// edges; the ablation policies schedule without them and skip the
    /// per-commit maintenance cost.
    fn graph_options(policy: &DependencyPolicy, history: bool) -> GraphOptions {
        let edges = match policy {
            DependencyPolicy::Spatiotemporal => EdgeMode::Maintained,
            _ => EdgeMode::Off,
        };
        GraphOptions { edges, history }
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
        Scheduler {
            core: Core::new(graph, target_step),
            policy,
            inflight: HashMap::new(),
        }
    }

    /// Attaches a telemetry sink: dependency-blocked waits become
    /// [`crate::telemetry::SpanKind::Blocked`] spans with the blocking
    /// agent attached, and the dependency tracker is given the same sink
    /// for relink/migration spans (via
    /// [`DepTracker::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.core.set_telemetry(telemetry);
    }

    /// The dependency tracker (positions, steps, edge queries).
    ///
    /// Edge queries (`first_blocker`, `coupled_of`, `blockers_of`,
    /// `snapshot`) are only available under
    /// [`DependencyPolicy::Spatiotemporal`] — see [`Scheduler::new`].
    pub fn graph(&self) -> &G {
        self.core.graph()
    }

    /// Mutable access to the dependency tracker, for maintenance
    /// operations between scheduling rounds that need `&mut` on the
    /// tracker itself — e.g. the distributed tracker's quiesce-based
    /// invariant check or worker kill/respawn during fault-injection
    /// tests. Scheduling state (ready sets, in-flight clusters) is not
    /// touched, so callers must not advance or roll back agents through
    /// this handle while clusters are in flight.
    pub fn graph_mut(&mut self) -> &mut G {
        self.core.graph_mut()
    }

    /// The policy in force.
    pub fn policy(&self) -> &DependencyPolicy {
        &self.policy
    }

    /// The step at which agents finish.
    pub fn target_step(&self) -> Step {
        self.core.target_step()
    }

    /// All agents have reached the target step.
    pub fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// Counters for reporting.
    pub fn stats(&self) -> SchedStats {
        self.core.stats()
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
    /// `new_pos` must name each of the cluster's members exactly once.
    ///
    /// # Errors
    ///
    /// Propagates the errors of the tracker's
    /// [`advance`](crate::depgraph::DepTracker::advance).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not in flight or `new_pos` does not name
    /// each of its members exactly once — checked before any scheduler
    /// or store state changes.
    pub fn complete(
        &mut self,
        cluster: &ClusterId,
        new_pos: &[(AgentId, S::Pos)],
    ) -> Result<(), StoreError> {
        let Entry::Occupied(flight) = self.inflight.entry(*cluster) else {
            panic!("{cluster} is not in flight");
        };
        self.core
            .check_completion(cluster, &flight.get().members, new_pos);
        flight.remove();
        self.core.commit(new_pos)
    }

    /// Current step skew: max step − min step over all agents, read from
    /// the graph's per-shard step histograms in O(shards).
    pub fn current_skew(&self) -> u32 {
        self.core.current_skew()
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
        self.core.graph.evict_history()
    }

    fn emit(&mut self, step: Step, members: Vec<AgentId>) -> Cluster {
        let id = self.core.emit(step, &members);
        let cluster = Cluster { id, step, members };
        self.inflight.insert(id, cluster.clone());
        cluster
    }

    fn ready_global_sync(&mut self) -> Vec<Cluster> {
        // One barriered cluster containing every unfinished agent; it can
        // only form when nothing is in flight.
        self.core.dirty.clear();
        if !self.inflight.is_empty() {
            return Vec::new();
        }
        let members: Vec<AgentId> = (0..self.core.state.len() as u32)
            .map(AgentId)
            .filter(|a| self.core.state[a.index()] == AgentState::Waiting)
            .collect();
        let Some(&first) = members.first() else {
            return Vec::new();
        };
        let step = self.core.graph.step(first);
        debug_assert!(
            members.iter().all(|m| self.core.graph.step(*m) == step),
            "global sync keeps all agents in lock step"
        );
        vec![self.emit(step, members)]
    }

    fn ready_no_dependency(&mut self) -> Vec<Cluster> {
        let mut out = Vec::new();
        while let Some((s, a)) = self.core.next_dirty() {
            out.push(self.emit(s, vec![a]));
        }
        out
    }

    fn ready_oracle(&mut self) -> Vec<Cluster> {
        let DependencyPolicy::Oracle(oracle) = self.policy.clone() else {
            unreachable!()
        };
        let mut out = Vec::new();
        while let Some((s, a)) = self.core.next_dirty() {
            let comp = oracle.component_of(s, a);
            if comp.iter().all(|&m| self.core.is_waiting_at(AgentId(m), s)) {
                out.push(self.emit(s, comp.into_iter().map(AgentId).collect()));
            }
            // Otherwise: the last member to arrive re-triggers via its own
            // dirty entry — no watcher needed.
        }
        out
    }

    fn ready_spatiotemporal(&mut self) -> Vec<Cluster> {
        let mut out = Vec::new();
        while let Some((s, a)) = self.core.next_dirty() {
            let mut members = Vec::new();
            self.core.grow(a, &mut members);
            match self.core.first_blocker(&members) {
                Some(b) => self.core.wait_on(b, s, &members),
                None => out.push(self.emit(s, members)),
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

    fn finish(&mut self) {
        self.graph_mut().harvest_telemetry();
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
    fn complete_rejects_a_repeated_member_before_changing_anything() {
        let mut s = sched(&[(0, 0), (5, 0)], DependencyPolicy::Spatiotemporal, 3);
        let ready = s.ready_clusters();
        assert_eq!(ready[0].members, vec![AgentId(0), AgentId(1)]);
        let twice = [
            (AgentId(0), Point::new(1, 0)),
            (AgentId(0), Point::new(2, 0)),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.complete(&ready[0].id, &twice)
        }));
        assert!(result.is_err(), "a repeated member must be rejected");
        assert_eq!(s.graph().step(AgentId(0)), Step(0), "the store moved");
        assert_eq!(s.inflight_len(), 1, "the cluster left flight");
        // The rejected call changed nothing: the run still completes.
        finish(&mut s, &ready[0]);
        while !s.is_done() {
            let ready = s.ready_clusters();
            assert!(!ready.is_empty(), "wedged");
            ready.iter().for_each(|c| finish(&mut s, c));
        }
        assert!(s.graph().validate().is_ok());
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
