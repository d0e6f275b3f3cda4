//! The spatiotemporal dependency graph (paper §3.3).
//!
//! Each node is an agent with its temporal (step) and spatial (position)
//! state; edges are *derived* from the rules of [`crate::rules`]: an edge
//! `B → A` means `A` is currently blocked by `B`, a double edge `A ↔ B`
//! means the agents are coupled. Mirroring the paper, the authoritative
//! node state lives in an in-memory database ([`aim_store::Db`], our Redis
//! substitute) and every cluster advancement is applied as one
//! transaction; an in-process mirror of the nodes answers the controller's
//! queries (is an agent blocked? who couples with whom?) without round
//! trips.
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
//! The repair is the crate's one edge engine: the agents are partitioned
//! over the shards of a map (one shard here; many in
//! [`crate::shard::ShardedDepGraph`], which *is* this graph over a
//! multi-shard map), each shard keeping its step bounds and spatial
//! index, and every candidate is re-checked against the §3.2 rules by the
//! same routine the distributed workers ([`crate::dist`]) answer relink
//! probes with.
//!
//! The node table in the store remains the authoritative state; adjacency
//! is a derived cache that [`DepGraph::recover`] rebuilds from scratch,
//! which the property tests exploit to cross-check the incremental
//! maintenance against a full rebuild after every operation.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use aim_store::{codec, Db, Key, StoreError};

use crate::edges::{Mirror, Node, Partition, Whole};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::shard::ShardMap;
use crate::space::{query_or_all, Space};
use crate::telemetry::Telemetry;

/// Namespace tag of the per-agent node records (`Key::tagged_u32`).
/// Crate-visible so the distributed shard workers ([`crate::dist`]) write
/// the identical authoritative layout into their own databases.
pub(crate) const AGENT_TAG: [u8; 4] = *b"dagt";

/// Namespace tag of the per-step history records
/// (`Key::tagged_u32_pair(HIST_TAG, step, agent)`). Step-major layout:
/// an ordered prefix walk visits history oldest-step-first, so the
/// eviction pass stops touching records at the first retained step.
pub(crate) const HIST_TAG: [u8; 4] = *b"dhst";

/// Store key of the history-eviction watermark: every history record at a
/// step `< dep:hist_floor` has been compacted away.
pub(crate) const HIST_FLOOR_KEY: &str = "dep:hist_floor";

/// The dependency-tracking surface the [`crate::scheduler::Scheduler`],
/// the [`crate::spec::SpecScheduler`] and the executors consume,
/// abstracted so the same state machine drives the single-shard
/// [`DepGraph`], the partitioned [`crate::shard::ShardedDepGraph`] and
/// the distributed [`crate::dist::DistTracker`].
///
/// Implementations must answer edge queries (`first_blocker`,
/// `coupled_of`) **exactly** per the §3.2 rules — the scheduler's
/// correctness argument assumes the tracker never misses an edge. The
/// three shipped trackers share one edge engine (shard partition and
/// prune test, rule classification, adjacency lists), so they differ only
/// in where that engine runs — one shard, many shards, or isolated
/// workers behind a message boundary — which changes cost, never a
/// scheduling decision.
///
/// # Hosting speculation
///
/// The speculative scheduler additionally rewinds agents
/// ([`DepTracker::rollback`]) and asks neighbourhood questions
/// ([`DepTracker::candidates_within`]). Both have default bodies: the
/// default `rollback` refuses with a [`StoreError`], so a tracker that
/// keeps it can run every conservative policy but fails the first squash
/// of a speculative run; the default `candidates_within` names every
/// agent, which is correct and linear. All three shipped trackers —
/// [`DepGraph`], [`crate::shard::ShardedDepGraph`] and
/// [`crate::dist::DistTracker`] — implement both from their spatially
/// indexed partition and host speculation.
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

    /// Advances every `(agent, new_position)` one step as a single store
    /// transaction and repairs the derived edges.
    ///
    /// # Errors
    ///
    /// Propagates store transaction failures.
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError>;

    /// Rewinds every `(agent, step, position)` to that earlier state as a
    /// single store transaction and repairs the derived edges — the
    /// squash of a speculative run. A target step may lie several steps
    /// back but never ahead of the agent's current step; on error no
    /// agent has moved.
    ///
    /// # Errors
    ///
    /// Propagates store transaction failures. The default body refuses
    /// every call: such a tracker cannot host speculation.
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
    /// transaction. History is what long-horizon checkpoint/resume and
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

/// Store-backed node table plus incrementally maintained rule edges.
///
/// The store holds only *nodes* (database writes per cluster advancement
/// stay O(cluster size), as in the paper's worker transactions); the
/// in-process mirror additionally maintains the derived blocked/coupled
/// adjacency so controller queries are O(degree) — see the
/// [module docs](self) for the maintenance invariant.
pub struct DepGraph<S: Space> {
    mirror: Mirror<S>,
    db: Arc<Db>,
    /// Interned store key per agent record (allocation-free write path).
    keys: Vec<Key>,
    commits_key: Key,
    /// Whether per-step history records are written (see [`GraphOptions`]).
    history: bool,
    /// Reused `(agent, step, position)` targets of an advance.
    targets: Vec<(AgentId, Step, S::Pos)>,
    /// Reused scratch the records are encoded in before being copied out.
    encode_buf: BytesMut,
    /// Where migration passes and relink batches are recorded. Only the
    /// sharded tracker sets it: a single shard's repair is folded into
    /// the controller span.
    telemetry: Option<Arc<Telemetry>>,
}

impl<S: Space> std::fmt::Debug for DepGraph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepGraph")
            .field("agents", &self.mirror.len())
            .field("shards", &self.mirror.partition().num_shards())
            .field("min_step", &self.mirror.min_step())
            .field("params", &self.mirror.params())
            .finish()
    }
}

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
        let step = Step::ZERO;
        let nodes = initial.iter().map(|&pos| Node { pos, step }).collect();
        let graph = Self::assemble(space, params, db, nodes, map, options);
        let mut buf = BytesMut::new();
        graph.db.transaction(|txn| {
            for (i, &pos) in initial.iter().enumerate() {
                let value = encode_record(&**graph.space(), &mut buf, step, pos);
                if graph.history {
                    txn.set_key(&Key::tagged_u32_pair(HIST_TAG, 0, i as u32), value.clone());
                }
                txn.set_key(&graph.keys[i], value);
            }
            txn.set_i64("dep:commits", 0);
            if graph.history {
                txn.set_i64(HIST_FLOOR_KEY, 0);
            }
            Ok(())
        })?;
        Ok(graph)
    }

    /// Builds the in-process mirror (partition, spatial indexes,
    /// adjacency) around an already-decided node table.
    fn assemble(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        nodes: Vec<Node<S::Pos>>,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Self {
        let maintained = options.edges == EdgeMode::Maintained;
        DepGraph {
            keys: (0..nodes.len() as u32)
                .map(|a| Key::tagged_u32(AGENT_TAG, a))
                .collect(),
            mirror: Mirror::new(space, params, map, nodes, maintained),
            db,
            commits_key: Key::new("dep:commits"),
            history: options.history,
            targets: Vec::new(),
            encode_buf: BytesMut::new(),
            telemetry: None,
        }
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
        let nodes = (0..num_agents as u32)
            .map(|a| load_record(&*space, &db, a).map(|(step, pos)| Node { pos, step }))
            .collect::<Result<_, _>>()?;
        Ok(Self::assemble(space, params, db, nodes, map, options))
    }

    /// The agents' shard partition (one shard unless this graph backs a
    /// [`crate::shard::ShardedDepGraph`]).
    pub(crate) fn partition(&self) -> &Partition<S::Pos> {
        self.mirror.partition()
    }

    /// Records migration passes and relink batches into `telemetry` (what
    /// the sharded tracker's `set_telemetry` attaches).
    pub(crate) fn record_repairs(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Overrides the worker-task count for parallel relink (`0` = decide
    /// from [`std::thread::available_parallelism`]). Only a multi-shard
    /// graph relinks in parallel. Mostly for tests and benches; the
    /// default is right for production.
    pub fn set_relink_threads(&mut self, threads: usize) {
        self.mirror.set_relink_threads(threads);
    }

    /// The rule parameters in force.
    pub fn params(&self) -> RuleParams {
        self.mirror.params()
    }

    /// The space agents live in.
    pub fn space(&self) -> &Arc<S> {
        self.mirror.space()
    }

    /// The backing store holding the authoritative node records.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Writes every `(agent, step, position)` of `targets` as one store
    /// transaction — counted in `dep:commits` when `commit` — then moves
    /// the mirror there and repairs the edges.
    fn write(
        &mut self,
        targets: &[(AgentId, Step, S::Pos)],
        commit: bool,
    ) -> Result<(), StoreError> {
        // The mirror stays untouched until the batch commits. The encode
        // scratch, the keys and the batch's own buffer are all reused or
        // refcounted — the commit allocates once per record for the
        // stored value, once for the counter's new value, and nothing
        // else.
        let (space, buf, nodes) = (
            &**self.mirror.space(),
            &mut self.encode_buf,
            self.mirror.nodes(),
        );
        let (keys, commits_key, history) = (&self.keys, &self.commits_key, self.history);
        self.db.transaction(|txn| {
            for &(a, step, pos) in targets {
                let value = encode_record(space, buf, step, pos);
                if history {
                    // A step's record and its immutable history entry
                    // commit together. A squash rewrites history: the
                    // target step's record is replaced (its position may
                    // differ from the first visit) and every discarded
                    // future step's record is deleted, so history only
                    // ever describes committed, non-squashed state.
                    txn.set_key(&Key::tagged_u32_pair(HIST_TAG, step.0, a.0), value.clone());
                    for squashed in (step.0 + 1)..=nodes[a.index()].step.0 {
                        txn.del(Key::tagged_u32_pair(HIST_TAG, squashed, a.0));
                    }
                }
                txn.set_key(&keys[a.index()], value);
            }
            if commit {
                txn.incr_key(commits_key, 1)?;
            }
            Ok(())
        })?;
        self.mirror.apply(targets, self.telemetry.as_deref());
        Ok(())
    }

    /// Rebuilds every derived edge from the current node states —
    /// initialisation and recovery; steady-state maintenance is
    /// incremental. Parallel across shards on multi-core machines; a
    /// no-op in [`EdgeMode::Off`].
    pub fn refresh_edges(&mut self) {
        self.mirror.rebuild();
    }

    /// Cluster advancements committed so far (read from the store).
    pub fn commits(&self) -> i64 {
        self.db
            .get("dep:commits")
            .map(|v| i64::from_be_bytes(v.as_ref().try_into().unwrap_or([0; 8])))
            .unwrap_or(0)
    }

    /// Whether per-step history records are being written (see
    /// [`GraphOptions`]).
    pub fn history_enabled(&self) -> bool {
        self.history
    }

    /// The eviction watermark: every history record at a step below this
    /// has been compacted away. Read from the store (`dep:hist_floor`),
    /// so it survives snapshot/restore.
    pub fn history_floor(&self) -> Step {
        Step(self.db.get_i64(HIST_FLOOR_KEY).unwrap_or(0).max(0) as u32)
    }

    /// Number of resident history records (an O(history) scan —
    /// diagnostics and tests, not a hot path).
    pub fn history_records(&self) -> u64 {
        let mut n = 0u64;
        self.db.for_each_prefix(HIST_TAG, |_, _| {
            n += 1;
            std::ops::ControlFlow::Continue(())
        });
        n
    }

    /// Decodes the historical `(step, position)` record of `a` at `step`,
    /// if it is still resident (recorded and not evicted or squashed).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the record exists but is
    /// malformed.
    pub fn history_at(&self, a: AgentId, step: Step) -> Result<Option<(Step, S::Pos)>, StoreError> {
        let key = Key::tagged_u32_pair(HIST_TAG, step.0, a.0);
        self.db
            .get(key)
            .map(|raw| decode_record(&**self.space(), raw))
            .transpose()
    }

    /// All agents that block `a`, in `(step, id)` order (diagnostics; the
    /// scheduler uses [`DepTracker::first_blocker`]).
    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        self.mirror.blockers_of(a)
    }

    /// Allocating convenience form of [`DepTracker::coupled_of`].
    pub fn coupled_neighbors(&self, a: AgentId) -> Vec<AgentId> {
        self.mirror.coupled_of(a).to_vec()
    }

    /// Agents whose step equals `step` (sorted by id).
    pub fn agents_at_step(&self, step: Step) -> Vec<AgentId> {
        (0..self.mirror.len() as u32)
            .map(AgentId)
            .filter(|&a| self.mirror.step(a) == step)
            .collect()
    }

    /// Dumps nodes and the maintained edges (O(n + edges)) for
    /// visualization and for cross-checking incremental maintenance
    /// against a from-scratch rebuild.
    pub fn snapshot(&self) -> GraphSnapshot {
        self.mirror.snapshot()
    }

    /// Debug cross-check of the shard partition against first
    /// principles: ownership matches the shard map, step bounds match the
    /// node table. Used by the property tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.mirror.check_invariants();
    }
}

/// Edge queries ([`DepTracker::first_blocker`], [`DepTracker::coupled_of`])
/// are served from the maintained adjacency in O(degree) without
/// allocating, and panic in [`EdgeMode::Off`]; `max_step() - min_step()`
/// is the current step skew, O(shards · log n) from the step bounds.
impl<S: Space> DepTracker<S> for DepGraph<S> {
    #[inline]
    fn len(&self) -> usize {
        self.mirror.len()
    }

    #[inline]
    fn step(&self, a: AgentId) -> Step {
        self.mirror.step(a)
    }

    #[inline]
    fn pos(&self, a: AgentId) -> S::Pos {
        self.mirror.pos(a)
    }

    #[inline]
    fn min_step(&self) -> Step {
        self.mirror.min_step()
    }

    #[inline]
    fn max_step(&self) -> Step {
        self.mirror.max_step()
    }

    /// One store transaction — the paper's worker-side graph update; the
    /// mirror only moves once it commits.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        targets.extend(
            updates
                .iter()
                .map(|&(a, pos)| (a, self.mirror.step(a).next(), pos)),
        );
        let result = self.write(&targets, true);
        self.targets = targets;
        result
    }

    /// The squash path of speculative execution (paper §6, implemented
    /// in [`crate::spec`]), as one store transaction; the mirror only
    /// moves once it commits.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range or a target step is *ahead*
    /// of the agent's current step (rollback must rewind, not advance).
    fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        for &(a, step, _) in updates {
            let current = self.mirror.step(a);
            assert!(
                step <= current,
                "rollback of {a} to {step} is ahead of current {current}"
            );
        }
        self.write(updates, false)
    }

    /// Answered by the position indexes edge maintenance keeps current,
    /// or by the members themselves when the space has no index or edges
    /// are [`EdgeMode::Off`].
    #[inline]
    fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        self.mirror.candidates_within(center, units, out);
    }

    #[inline]
    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.mirror.first_blocker(a)
    }

    #[inline]
    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.mirror.coupled_of(a)
    }

    /// Compacts history records older than the deepest rollback any legal
    /// schedule could still perform, returning the number evicted.
    ///
    /// # Eviction invariant
    ///
    /// **Never evict a record a legal rollback could read.** Rollbacks
    /// (speculative squashes, [`crate::spec`]) always target a step at or
    /// above the step of the lagging cluster whose commit raced them, and
    /// that committing cluster is at or above the global minimum step —
    /// so no rollback can ever rewind an agent below `min_step()`, and
    /// `min_step` itself is monotone non-decreasing. Records at steps
    /// `< min_step` are therefore dead for scheduling purposes (the
    /// authoritative current record `dagt ‖ agent` is separate and never
    /// evicted) and the pass deletes exactly those, advancing the
    /// `dep:hist_floor` watermark. Resident history is then
    /// O(agents × window) where the window is the step skew plus the
    /// eviction cadence, instead of O(agents × horizon). Sharding and
    /// distribution leave it untouched: only the global `min_step` is
    /// consulted.
    ///
    /// Call from a quiesced writer (e.g. the threaded executor's
    /// checkpoint barrier): the key walk and the deletes are not one
    /// transaction.
    fn evict_history(&mut self) -> Result<u64, StoreError> {
        if !self.history {
            return Ok(0);
        }
        let floor = self.mirror.min_step().0;
        let prev = self.db.get_i64(HIST_FLOOR_KEY)?.max(0) as u32;
        if floor <= prev {
            return Ok(0); // nothing new below the watermark
        }
        Ok(evict_below(&self.db, floor))
    }

    #[inline]
    fn validate(&self) -> Result<(), String> {
        self.mirror.validate()
    }
}

/// Encodes one `(step, pos)` state in the authoritative record layout
/// (shared with the [`crate::dist`] shard workers, which keep the same
/// records in their own databases). `buf` is scratch: the record is built
/// in it and copied out once, so a caller that keeps `buf` around pays
/// exactly one allocation per record — the stored value.
pub(crate) fn encode_record<S: Space>(
    space: &S,
    buf: &mut BytesMut,
    step: Step,
    pos: S::Pos,
) -> Bytes {
    buf.clear();
    codec::put_u32(buf, step.0);
    space.encode_pos(pos, buf);
    Bytes::copy_from_slice(buf)
}

/// Decodes a record written by [`encode_record`].
pub(crate) fn decode_record<S: Space>(
    space: &S,
    mut raw: Bytes,
) -> Result<(Step, S::Pos), StoreError> {
    let step = Step(codec::get_u32(&mut raw)?);
    Ok((step, space.decode_pos(&mut raw)?))
}

/// Reads agent `a`'s authoritative record from `db`.
pub(crate) fn load_record<S: Space>(
    space: &S,
    db: &Db,
    a: u32,
) -> Result<(Step, S::Pos), StoreError> {
    let raw = db
        .get(Key::tagged_u32(AGENT_TAG, a))
        .ok_or_else(|| StoreError::Codec(format!("missing record for agent {a}")))?;
    decode_record(space, raw)
}

/// Deletes every history record in `db` below step `floor` and raises the
/// watermark to it, returning how many went (see
/// [`DepGraph::evict_history`] for when that is safe). Keys sort
/// step-major, so value visits stop at the first retained step — the
/// per-record work is O(evicted + 1). (The walk's key gather still scans
/// the store's keys once; see `Db::for_each_prefix`.)
pub(crate) fn evict_below(db: &Db, floor: u32) -> u64 {
    let mut doomed: Vec<Bytes> = Vec::new();
    db.for_each_prefix(HIST_TAG, |k, _| {
        let step = u32::from_be_bytes(k[4..8].try_into().expect("12-byte history key"));
        if step >= floor {
            return std::ops::ControlFlow::Break(());
        }
        doomed.push(k.clone());
        std::ops::ControlFlow::Continue(())
    });
    for k in &doomed {
        db.del(k);
    }
    db.set_i64(HIST_FLOOR_KEY, i64::from(floor));
    doomed.len() as u64
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
    fn agents_at_step_buckets() {
        let mut g = graph(&[(0, 0), (50, 0), (99, 0)]);
        g.advance(&[(AgentId(2), Point::new(99, 1))]).unwrap();
        assert_eq!(g.agents_at_step(Step(0)), vec![AgentId(0), AgentId(1)]);
        assert_eq!(g.agents_at_step(Step(1)), vec![AgentId(2)]);
        assert!(g.agents_at_step(Step(2)).is_empty());
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
        let r = DepGraph::recover(space, RuleParams::genagent(), db, 2).unwrap();
        assert_eq!(r.step(AgentId(0)), Step(2));
        assert_eq!(r.pos(AgentId(0)), Point::new(2, 2));
        assert_eq!(r.step(AgentId(1)), Step(0));
        assert_eq!(r.min_step(), Step(0));
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
    fn rollback_ahead_of_current_step_panics() {
        let mut g = graph(&[(0, 0)]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.rollback(&[(AgentId(0), Step(3), Point::new(0, 0))])
                .unwrap();
        }));
        assert!(result.is_err());
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
