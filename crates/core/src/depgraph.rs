//! The spatiotemporal dependency graph (paper §3.3).
//!
//! Each node is an agent with its temporal (step) and spatial (position)
//! state; edges are *derived* from the rules of [`crate::rules`]: an edge
//! `B → A` means `A` is currently blocked by `B`, a double edge `A ↔ B`
//! means the agents are coupled. Mirroring the paper, the authoritative
//! node state lives in an in-memory database ([`aim_store::Db`], our Redis
//! substitute), written behind in batches of cluster advancements; an
//! in-process mirror of the nodes answers the controller's queries (is an
//! agent blocked? who couples with whom?) without round trips.
//!
//! # Incremental edge maintenance
//!
//! Blocked/coupled edges are **maintained**, not recomputed per query:
//! when a commit (or rollback) moves a set of agents, only the edges
//! *incident to those agents* are torn down and rebuilt, using the
//! space's [`crate::space::SpatialIndex`] to enumerate candidate
//! neighbors instead of scanning the population. This is sound because
//! an edge between two agents that both stayed put cannot change —
//! positions are fixed and the blocking radius depends only on the pair's
//! step gap — and, by the validity argument of §3.2 (Appendix A), an
//! agent advancing can only *shed* edges it has to bystanders, never
//! create one; every edge it gains is incident to it and therefore
//! rebuilt here. Queries ([`DepGraph::first_blocker`],
//! [`DepGraph::coupled_of`]) then serve from adjacency lists in
//! O(degree) without allocating.
//!
//! A [`DepGraph`] is the crate's one tracker — the committed-state
//! mirror every tracker keeps, plus a sink its writes go to — with the
//! shard worker's store core as its sink, writing to the graph's own store
//! with the same code that writes a [`crate::dist`] worker's store. It
//! writes behind: each advance or rollback is queued, the mirror moves as
//! soon as the sink has accepted it, and the queue lands as one write
//! batch per [`crate::dist::WINDOW`] calls or at a quiesce point (see
//! [`DepTracker::advance`]). A call that names one agent twice, or
//! rolls an agent back to a step ahead of its current one, is refused
//! before anything is written. The mirror's agents are partitioned over
//! the shards of a map (one shard here; many in
//! [`crate::shard::ShardedDepGraph`], which *is* this graph over a
//! multi-shard map), each shard keeping its step bounds and spatial
//! index, and every candidate is re-checked against the §3.2 rules.
//!
//! The node table in the store remains the authoritative state; adjacency
//! is a derived cache that [`DepGraph::recover`] rebuilds from scratch.
//! [`DepGraph::check_invariants`] holds the mirror to that table and its
//! adjacency to such a rebuild; the property and live-world tests run it.

use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::dist::worker::Records;
pub use crate::edges::Tracker;
use crate::edges::{Mirror, Node, Whole};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::shard::ShardMap;
use crate::space::{query_or_all, Space};

/// The dependency-tracking surface the [`crate::scheduler::Scheduler`],
/// the [`crate::spec::SpecScheduler`] and the executors consume,
/// abstracted so the same state machine drives the single-shard
/// [`DepGraph`], the partitioned [`crate::shard::ShardedDepGraph`] and
/// the distributed [`crate::dist::DistTracker`].
///
/// Implementations must answer edge queries (`first_blocker`,
/// `coupled_of`) **exactly** per the §3.2 rules — the scheduler's
/// correctness argument assumes the tracker never misses an edge. The
/// three shipped trackers are one tracker: a committed-state mirror
/// (shard partition and prune test, rule classification, adjacency
/// lists) that answers every query, plus a sink its writes go to. They
/// differ only in the mirror's shards — one, or many — and in where the
/// records land: the graph's own store, written behind by the shard
/// worker's store core, or isolated workers behind a message boundary.
/// That changes cost, never a scheduling decision.
///
/// # Hosting speculation
///
/// The speculative scheduler additionally rewinds agents
/// ([`DepTracker::rollback`]) and asks neighbourhood questions
/// ([`DepTracker::candidates_within`], [`DepTracker::blockers_within`]).
/// All three have default bodies: the default `rollback` refuses with a
/// [`StoreError`], so a tracker that keeps it can run every conservative
/// policy but fails the first squash of a speculative run; the default
/// `candidates_within` names every agent, which is correct and linear,
/// and the default `blockers_within` asks `candidates_within`. All three
/// shipped trackers — [`DepGraph`], [`crate::shard::ShardedDepGraph`] and
/// [`crate::dist::DistTracker`] — implement them from their spatially
/// indexed partition and maintained edges, and host speculation.
pub trait DepTracker<S: Space>: Send {
    /// Number of agents tracked.
    fn len(&self) -> usize;

    /// Current (next-to-execute) step of `a`.
    fn step(&self, a: AgentId) -> Step;

    /// Current position of `a`.
    fn pos(&self, a: AgentId) -> S::Pos;

    /// The lowest step any agent is at (the paper's `base_step`).
    fn min_step(&self) -> Step;

    /// The highest step any agent is at.
    fn max_step(&self) -> Step;

    /// Advances every `(agent, new_position)` one step and repairs the
    /// derived edges. The write is durable at the next quiesce point: the
    /// shipped trackers queue it and write [`crate::dist::WINDOW`] calls
    /// as one store batch, and land a partial window when a store is read
    /// (`DepGraph::db`, `commits`, `history_records`, `history_at`,
    /// `DistTracker::worker_db`), when history is evicted, at the
    /// invariant check ([`Tracker::check_invariants`]), and on `Drop`
    /// ([`crate::dist::DistTracker`] has a few more; see [`crate::dist`]).
    /// A store handle kept from before may miss writes queued since. On
    /// error no agent has moved.
    ///
    /// # Errors
    ///
    /// Refuses a call that names one agent twice; otherwise propagates
    /// the failure of a write batch this call triggered. Writes of earlier
    /// calls that returned `Ok` are never dropped by it.
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError>;

    /// Rewinds every `(agent, step, position)` to that earlier state and
    /// repairs the derived edges — the squash of a speculative run. A
    /// target step may lie several steps back but never ahead of the
    /// agent's current step. Durable at the next quiesce point, like
    /// [`DepTracker::advance`]; on error no agent has moved.
    ///
    /// # Errors
    ///
    /// Refuses a call that names one agent twice or a target step ahead
    /// of its agent's current one; otherwise propagates the failure of a
    /// write batch this call triggered. The default body refuses every
    /// call: such a tracker cannot host speculation.
    fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        let _ = updates;
        Err(StoreError::TxnAborted(
            "this dependency tracker cannot roll agents back".into(),
        ))
    }

    /// Appends to `out` every agent that may currently stand within
    /// `units` of `center`: a superset, in no particular order, possibly
    /// with repeats. Callers re-check each candidate with
    /// [`Space::within_units`] and must not depend on the order; `out` is
    /// not cleared. The default names every agent.
    fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        query_or_all(None, self.len(), center, units, out);
    }

    /// Appends to `out` candidates for the agents within `units` of
    /// `center` that block `a`: a superset of them, in no particular
    /// order, possibly with repeats; `out` is not cleared. The default
    /// body is [`candidates_within(center, units)`](DepTracker::candidates_within);
    /// a tracker that maintains edges may answer with `a`'s blocked-by
    /// list instead, which is usually far shorter.
    ///
    /// # Precondition
    ///
    /// The blocked-by list covers what the caller wants only if every
    /// agent it wants from the ball blocks `a`. Callers make sure of
    /// that: [`crate::spec::SpecScheduler`]'s retirement clearance asks
    /// it for a member `a` that stands `k ≥ 1` steps past step `s`, at most
    /// `k · max_vel` from its start `center` at step `s` (its `complete`
    /// refuses a longer move), and wants only agents at steps `t ≤ s`
    /// within `blocking_units(s − t)` of `center`. Each such agent lies
    /// within `blocking_units(s + k − t)` of `a` by the triangle
    /// inequality, so it blocks `a`.
    fn blockers_within(&self, a: AgentId, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        let _ = a;
        self.candidates_within(center, units, out);
    }

    /// First agent (in `(step, id)` order) currently blocking `a`.
    fn first_blocker(&self, a: AgentId) -> Option<AgentId>;

    /// Same-step coupling partners of `a`, ascending by id.
    fn coupled_of(&self, a: AgentId) -> &[AgentId];

    /// Compacts per-step history below the deepest legal rollback (no-op
    /// without history recording).
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    fn evict_history(&mut self) -> Result<u64, StoreError>;

    /// Checks the §3.2 validity condition over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    fn validate(&self) -> Result<(), String>;

    /// Attaches a telemetry sink so the tracker can record its internal
    /// work (relink batches, shard migrations) as spans. Default: ignore
    /// — the single-shard [`DepGraph`]'s per-commit edge repair is folded
    /// into the controller span, so only partitioned trackers override.
    fn set_telemetry(&mut self, telemetry: std::sync::Arc<crate::telemetry::Telemetry>) {
        let _ = telemetry;
    }

    /// Drains any telemetry buffered outside the attached sink into it
    /// (end-of-run and on-demand hook; both executors call it once when
    /// the run is over). Default: no-op — only a tracker with workers
    /// ([`crate::dist::DistTracker`]) has anything to collect: it first
    /// hands them the writes it still holds queued, then their buffered
    /// spans. Harvest is best-effort and must never fail a run.
    fn harvest_telemetry(&mut self) {}
}

/// A dump of the graph for visualization (paper Fig. 3) and debugging.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSnapshot {
    /// `(agent, step, position label)` per node.
    pub nodes: Vec<(AgentId, Step, String)>,
    /// `(blocker, blocked)` pairs — the single arrows of Fig. 3.
    pub blocked: Vec<(AgentId, AgentId)>,
    /// Coupled pairs (`a < b`) — the double arrows of Fig. 3.
    pub coupled: Vec<(AgentId, AgentId)>,
}

/// Whether a [`DepGraph`] maintains the derived blocked/coupled edges.
///
/// Edge maintenance costs a little work on every commit; policies that
/// never ask edge questions (global-sync, no-dependency, oracle — they
/// schedule without consulting the spatiotemporal rules) run with
/// [`EdgeMode::Off`] so the ablation arms do not pay for machinery only
/// the metropolis policy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMode {
    /// Keep blocked/coupled adjacency up to date incrementally on every
    /// advance/rollback. Edge queries are O(degree).
    Maintained,
    /// Skip edge maintenance entirely (and the spatial index it needs).
    /// Edge queries ([`DepGraph::first_blocker`], [`DepGraph::coupled_of`],
    /// [`DepGraph::blockers_of`], [`DepGraph::snapshot`]) panic.
    Off,
}

/// Construction options of a [`DepGraph`]: edge maintenance plus
/// per-step history recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphOptions {
    /// Whether derived blocked/coupled edges are maintained (see
    /// [`EdgeMode`]).
    pub edges: EdgeMode,
    /// Whether every committed `(agent, step)` record is also written as
    /// an immutable history record `dhst ‖ step ‖ agent` in the same
    /// write batch. History is what long-horizon checkpoint/resume and
    /// rollback auditing read; it grows O(agents × horizon) unless the
    /// run periodically calls [`DepGraph::evict_history`], which compacts
    /// it to O(agents × window). Off by default — the conservative
    /// replay paths never read it.
    pub history: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: false,
        }
    }
}

/// Store-backed node table plus incrementally maintained rule edges: the
/// one tracker writing through the shard worker's store core, behind, on
/// its own store.
///
/// The store holds only *nodes* (database writes per cluster advancement
/// stay O(cluster size), as in the paper's worker transactions), and a
/// window of advances and rollbacks is one write batch; the in-process
/// mirror additionally maintains the derived blocked/coupled adjacency so
/// controller queries are O(degree) — see the [module docs](self) for the
/// maintenance invariant.
pub type DepGraph<S> = Tracker<S, Records<S>>;

impl<S: Space> DepGraph<S> {
    /// Creates the graph with every agent at [`Step::ZERO`] and writes the
    /// initial records to `db`.
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population transaction.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
    ) -> Result<Self, StoreError> {
        Self::new_with_options(space, params, db, initial, GraphOptions::default())
    }

    /// [`DepGraph::new`] with full construction options (edge maintenance
    /// and per-step history recording — see [`GraphOptions`]).
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population transaction.
    pub fn new_with_options(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        Self::partitioned(space, params, db, initial, Arc::new(Whole), options)
    }

    /// [`DepGraph::new_with_options`] over the shards of `map`.
    pub(crate) fn partitioned(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let mut records = Records::new(Arc::clone(&space), db, options.history);
        records.open(initial)?;
        let step = Step::ZERO;
        let nodes = initial.iter().map(|&pos| Node { pos, step }).collect();
        Ok(Self::assemble(params, records, nodes, map, options))
    }

    /// The graph over `records`, its mirror (partition, spatial indexes,
    /// adjacency) built around an already-decided node table.
    fn assemble(
        params: RuleParams,
        records: Records<S>,
        nodes: Vec<Node<S::Pos>>,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Self {
        let space = Arc::clone(&records.space);
        let maintained = options.edges == EdgeMode::Maintained;
        Tracker::from_parts(Mirror::new(space, params, map, nodes, maintained), records)
    }

    /// Rebuilds the in-memory mirror from the database — demonstrates that
    /// the store, like the paper's Redis, holds the authoritative state.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or malformed.
    pub fn recover(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
    ) -> Result<Self, StoreError> {
        Self::recover_with_options(space, params, db, num_agents, GraphOptions::default())
    }

    /// [`DepGraph::recover`] with explicit [`GraphOptions`] — how a
    /// restored snapshot resumes: the records (including history and the
    /// eviction watermark) are already in `db`, so recovery just rebuilds
    /// the in-process mirror around them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or malformed.
    pub fn recover_with_options(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        Self::recover_partitioned(space, params, db, num_agents, Arc::new(Whole), options)
    }

    /// [`DepGraph::recover_with_options`] over the shards of `map`, each
    /// agent owned by the shard its recorded position lies in.
    pub(crate) fn recover_partitioned(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let records = Records::new(space, db, options.history);
        let nodes = (0..num_agents as u32)
            .map(|a| records.load(a).map(|(step, pos)| Node { pos, step }))
            .collect::<Result<_, _>>()?;
        Ok(Self::assemble(params, records, nodes, map, options))
    }

    /// Overrides the worker-task count for parallel relink (`0` = decide
    /// from [`std::thread::available_parallelism`]). Only a multi-shard
    /// graph relinks in parallel. Mostly for tests and benches; the
    /// default is right for production.
    pub fn set_relink_threads(&mut self, threads: usize) {
        self.mirror.set_relink_threads(threads);
    }

    /// The backing store holding the authoritative node records, once
    /// every queued write has landed: a quiesce point (see
    /// [`DepTracker::advance`]). A queue that cannot land — its
    /// `dep:commits` is not an integer — stays queued, and the store is
    /// returned without it.
    pub fn db(&self) -> &Arc<Db> {
        let _ = self.sink.settle();
        &self.sink.db
    }

    /// Rebuilds every derived edge from the current node states —
    /// initialisation and recovery; steady-state maintenance is
    /// incremental. Parallel across shards on multi-core machines; a
    /// no-op in [`EdgeMode::Off`].
    pub fn refresh_edges(&mut self) {
        self.mirror.rebuild();
    }

    /// Decodes the historical `(step, position)` record of `a` at `step`,
    /// if it is still resident (recorded and not evicted or squashed),
    /// once every queued write has landed (a quiesce point).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the record exists but is
    /// malformed, and the failure of a queue that cannot land.
    pub fn history_at(&self, a: AgentId, step: Step) -> Result<Option<(Step, S::Pos)>, StoreError> {
        self.sink.settle()?;
        self.sink.history_at(step.0, a.0)
    }

    /// Allocating convenience form of [`DepTracker::coupled_of`].
    pub fn coupled_neighbors(&self, a: AgentId) -> Vec<AgentId> {
        self.mirror.coupled_of(a).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};

    fn graph(points: &[(i32, i32)]) -> DepGraph<GridSpace> {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        DepGraph::new(space, RuleParams::genagent(), db, &initial).unwrap()
    }

    #[test]
    fn initial_state_is_step_zero_everywhere() {
        let g = graph(&[(0, 0), (10, 10), (20, 20)]);
        assert_eq!(g.len(), 3);
        for i in 0..3 {
            assert_eq!(g.step(AgentId(i)), Step::ZERO);
        }
        assert_eq!(g.min_step(), Step::ZERO);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn advance_moves_step_and_position() {
        let mut g = graph(&[(0, 0), (50, 50)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(1, 0));
        assert_eq!(g.step(AgentId(1)), Step(0));
        assert_eq!(g.min_step(), Step(0));
        assert_eq!(g.commits(), 1);
    }

    #[test]
    fn blockers_follow_gap_radius() {
        let mut g = graph(&[(0, 0), (8, 0), (50, 50)]);
        // Move agent 1 three steps ahead (staying at x=8).
        for _ in 0..3 {
            g.advance(&[(AgentId(1), Point::new(8, 0))]).unwrap();
        }
        // Gap 3: blocking radius (3+1)*1+4 = 8 → agent 0 at dist 8 blocks 1.
        assert_eq!(g.first_blocker(AgentId(1)), Some(AgentId(0)));
        assert_eq!(g.blockers_of(AgentId(1)), vec![AgentId(0)]);
        // Agent 0 is at the min step: nothing can block it.
        assert_eq!(g.first_blocker(AgentId(0)), None);
        // Agent 2 is far away: unblocked despite lagging agents.
        for _ in 0..3 {
            g.advance(&[(AgentId(2), Point::new(50, 50))]).unwrap();
        }
        assert_eq!(g.first_blocker(AgentId(2)), None);
    }

    #[test]
    fn coupled_neighbors_same_step_only() {
        let mut g = graph(&[(0, 0), (5, 0), (6, 0)]);
        assert_eq!(g.coupled_neighbors(AgentId(0)), vec![AgentId(1)]);
        assert_eq!(
            g.coupled_neighbors(AgentId(1)),
            vec![AgentId(0), AgentId(2)]
        );
        // Advance agent 1: no longer same step, couples with nobody.
        g.advance(&[(AgentId(1), Point::new(5, 0))]).unwrap();
        assert!(g.coupled_neighbors(AgentId(1)).is_empty());
        assert!(g.coupled_neighbors(AgentId(0)).is_empty());
    }

    #[test]
    fn snapshot_contains_expected_edges() {
        let mut g = graph(&[(0, 0), (4, 0), (30, 30)]);
        // Advance the far agent so a blocked edge exists… it is too far to
        // be blocked; instead advance the near pair's neighbor.
        g.advance(&[(AgentId(2), Point::new(30, 30))]).unwrap();
        let snap = g.snapshot();
        assert_eq!(snap.nodes.len(), 3);
        assert!(snap.coupled.contains(&(AgentId(0), AgentId(1))));
        assert!(snap.blocked.is_empty());
    }

    #[test]
    fn recover_matches_live_state() {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial = vec![Point::new(0, 0), Point::new(20, 20)];
        let mut g = DepGraph::new(
            Arc::clone(&space),
            RuleParams::genagent(),
            Arc::clone(&db),
            &initial,
        )
        .unwrap();
        g.advance(&[(AgentId(0), Point::new(1, 1))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 2))]).unwrap();
        let r = DepGraph::recover(space, RuleParams::genagent(), Arc::clone(g.db()), 2).unwrap();
        assert_eq!(r.step(AgentId(0)), Step(2));
        assert_eq!(r.pos(AgentId(0)), Point::new(2, 2));
        assert_eq!(r.step(AgentId(1)), Step(0));
        assert_eq!(r.min_step(), Step(0));
    }

    #[test]
    fn recovery_refuses_a_node_outside_the_social_space() {
        use crate::space::{NodeId, SocialSpace};
        let ring = |n: u32| {
            SocialSpace::new(
                n as usize,
                &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
            )
        };
        let g = DepGraph::new(
            Arc::new(ring(10)),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &[NodeId(1), NodeId(7)],
        )
        .unwrap();
        // The same records read against a three-node graph: agent 1's
        // node 7 lies past the end of its hop table.
        match DepGraph::recover(
            Arc::new(ring(3)),
            RuleParams::genagent(),
            Arc::clone(g.db()),
            2,
        ) {
            Err(StoreError::Codec(msg)) => assert!(msg.contains("node 7"), "{msg}"),
            other => panic!("expected a codec error, got {other:?}"),
        }
        DepGraph::recover(
            Arc::new(ring(10)),
            RuleParams::genagent(),
            Arc::clone(g.db()),
            2,
        )
        .unwrap();
    }

    #[test]
    fn rollback_rewinds_step_and_position() {
        let mut g = graph(&[(0, 0), (50, 50)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 0))]).unwrap();
        assert_eq!(g.step(AgentId(0)), Step(2));
        g.rollback(&[(AgentId(0), Step(1), Point::new(1, 0))])
            .unwrap();
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(1, 0));
        assert_eq!(g.min_step(), Step(0));
        // The store reflects the rollback: recovery sees the rewound state.
        let r = DepGraph::recover(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            Arc::clone(g.db()),
            2,
        )
        .unwrap();
        assert_eq!(r.step(AgentId(0)), Step(1));
        assert_eq!(r.pos(AgentId(0)), Point::new(1, 0));
    }

    #[test]
    fn rollback_to_current_step_is_identity_on_step() {
        let mut g = graph(&[(0, 0)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.rollback(&[(AgentId(0), Step(1), Point::new(0, 1))])
            .unwrap();
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(0, 1));
    }

    #[test]
    fn rollback_ahead_of_current_step_is_refused() {
        let mut g = graph(&[(0, 0)]);
        g.advance(&[(AgentId(0), Point::new(0, 1))]).unwrap();
        assert!(g
            .rollback(&[(AgentId(0), Step(3), Point::new(5, 5))])
            .is_err());
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(0, 1));
    }

    fn history_graph(points: &[(i32, i32)]) -> DepGraph<GridSpace> {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        DepGraph::new_with_options(
            space,
            RuleParams::genagent(),
            db,
            &initial,
            GraphOptions {
                edges: EdgeMode::Maintained,
                history: true,
            },
        )
        .unwrap()
    }

    #[test]
    fn history_records_every_committed_step() {
        let mut g = history_graph(&[(0, 0), (50, 50)]);
        assert!(g.history_enabled());
        assert_eq!(g.history_records(), 2, "step-0 records written at init");
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 0))]).unwrap();
        g.advance(&[(AgentId(1), Point::new(50, 51))]).unwrap();
        assert_eq!(g.history_records(), 5);
        let (s, p) = g.history_at(AgentId(0), Step(1)).unwrap().unwrap();
        assert_eq!((s, p), (Step(1), Point::new(1, 0)));
        assert!(g.history_at(AgentId(1), Step(2)).unwrap().is_none());
        // Default-built graphs record nothing.
        let plain = graph(&[(0, 0)]);
        assert!(!plain.history_enabled());
        assert_eq!(plain.history_records(), 0);
    }

    #[test]
    fn rollback_rewrites_history() {
        let mut g = history_graph(&[(0, 0)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(3, 0))]).unwrap();
        assert_eq!(g.history_records(), 4);
        // Squash back to step 1 with a different position: future records
        // vanish, the target record is replaced.
        g.rollback(&[(AgentId(0), Step(1), Point::new(0, 1))])
            .unwrap();
        assert_eq!(g.history_records(), 2);
        let (_, p) = g.history_at(AgentId(0), Step(1)).unwrap().unwrap();
        assert_eq!(p, Point::new(0, 1));
        assert!(g.history_at(AgentId(0), Step(2)).unwrap().is_none());
        assert!(g.history_at(AgentId(0), Step(3)).unwrap().is_none());
    }

    #[test]
    fn eviction_compacts_below_min_step_only() {
        let mut g = history_graph(&[(0, 0), (50, 50)]);
        // Advance both agents 3 steps, then agent 1 two more.
        for i in 1..=3 {
            g.advance(&[(AgentId(0), Point::new(i, 0))]).unwrap();
            g.advance(&[(AgentId(1), Point::new(50, 50 + i))]).unwrap();
        }
        g.advance(&[(AgentId(1), Point::new(50, 54))]).unwrap();
        g.advance(&[(AgentId(1), Point::new(50, 55))]).unwrap();
        // History: agent 0 at steps 0..=3, agent 1 at steps 0..=5.
        assert_eq!(g.history_records(), 10);
        assert_eq!(g.history_floor(), Step(0));
        // min_step = 3: steps 0..=2 are below any legal rollback.
        let evicted = g.evict_history().unwrap();
        assert_eq!(evicted, 6);
        assert_eq!(g.history_floor(), Step(3));
        assert_eq!(g.history_records(), 4); // agent0@3, agent1@{3,4,5}
        assert!(g.history_at(AgentId(0), Step(2)).unwrap().is_none());
        assert!(g.history_at(AgentId(0), Step(3)).unwrap().is_some());
        // Idempotent until min_step moves again.
        assert_eq!(g.evict_history().unwrap(), 0);
        // Resident size is O(agents × window): current skew is 2.
        let window = (g.max_step().0 - g.min_step().0 + 1) as u64;
        assert!(g.history_records() <= g.len() as u64 * window);
    }

    #[test]
    fn recover_preserves_history_and_floor() {
        let mut g = history_graph(&[(0, 0), (50, 50)]);
        for i in 1..=2 {
            g.advance(&[(AgentId(0), Point::new(i, 0))]).unwrap();
            g.advance(&[(AgentId(1), Point::new(50, 50 + i))]).unwrap();
        }
        g.evict_history().unwrap();
        let (records, floor) = (g.history_records(), g.history_floor());
        let r = DepGraph::recover_with_options(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            Arc::clone(g.db()),
            2,
            GraphOptions {
                edges: EdgeMode::Maintained,
                history: true,
            },
        )
        .unwrap();
        assert!(r.history_enabled());
        assert_eq!(r.history_records(), records);
        assert_eq!(r.history_floor(), floor);
    }

    #[test]
    fn validate_detects_violation() {
        // Force an invalid state through raw advances: two adjacent agents
        // with a step gap of 2 violates dist > radius_p + max_vel.
        let mut g = graph(&[(0, 0), (1, 0)]);
        g.advance(&[(AgentId(1), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(1), Point::new(1, 0))]).unwrap();
        assert!(g.validate().is_err());
    }
}
