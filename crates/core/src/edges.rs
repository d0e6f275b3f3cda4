//! The one dependency tracker and its edge engine (paper §3.3).
//!
//! Derived edges are a function of the node states and the §3.2 rules.
//! There is one tracker, [`Tracker`]: a [`Mirror`] of the committed world
//! — each agent's [`Node`], their [`Partition`] over shards and the
//! [`Adjacency`] — which answers every scheduling query and is repaired
//! after each write by [`Mirror::apply`], plus a [`Sink`] its writes go
//! to. It implements [`DepTracker`] once, refuses an advance or rollback
//! that names an agent twice or rolls one ahead, applies one
//! history-eviction watermark rule, and reads the stores through one set
//! of readers. Its two sinks:
//!
//! * the shard worker's store core, on the graph's own store: `DepGraph`,
//!   over one shard or — as `ShardedDepGraph` — over many, queues each
//!   advance or rollback and writes the queue as one batch;
//! * the lanes of `DistTracker`, which queue each write for the shard
//!   worker owning the agent (whose store core writes it there), its
//!   partition mirroring the workers' membership.
//!
//! Both write behind by one rule: a queue is written once it holds
//! [`crate::dist::WINDOW`] calls, or at a quiesce point (a store read, a
//! history eviction, `Drop`), so a write is durable at the next quiesce
//! point.
//!
//! The mirror's parts are each written once here:
//!
//! * a [`Partition`]: which shard owns each agent, every shard's
//!   histogram of members per step (its step bounds) and optional
//!   spatial index, and the one step-bound prune test
//!   ([`Partition::reach`]) deciding which shards can hold a rule
//!   neighbour of an agent at all;
//! * [`edges_of`]: the pair classification — every candidate re-checked
//!   with [`Space::within_units`], each edge emitted as a [`WireEdge`] —
//!   which each `ShardWorker` also answers the invariant check's relink
//!   probes with;
//! * an [`Adjacency`]: the id-sorted coupled / blockers / blockees lists
//!   the scheduler's queries read.
//!
//! A rule, a prune test, the relink (serial, or parallel for large
//! batches over several shards), the adjacency layout or a tracker query
//! therefore changes in one place, and the three trackers are
//! edge-for-edge identical by construction.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{DepTracker, GraphSnapshot};
use crate::dist::worker::{commits_of, history_records_of};
use crate::dist::WireEdge;
use crate::ids::{AgentId, Step};
use crate::rules::{self, RuleParams};
use crate::shard::ShardMap;
use crate::space::{Space, SpatialIndex};
use crate::step_counts::StepCounts;
use crate::telemetry::{Counter, SpanKind, Telemetry};

/// One agent's committed state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node<P> {
    pub(crate) pos: P,
    pub(crate) step: Step,
}

/// The map of a one-shard partition: its shard owns every position.
#[derive(Debug)]
pub(crate) struct Whole;

impl<P> ShardMap<P> for Whole {
    fn num_shards(&self) -> usize {
        1
    }

    fn shard_of(&self, _: P) -> usize {
        0
    }

    fn min_distance(&self, _: P, _: usize) -> u64 {
        0
    }
}

/// One shard's members: how many stand at each step, which its step
/// bounds come from, and a spatial index over them when the partition
/// keeps one.
struct Part<P> {
    steps: StepCounts,
    index: Option<Box<dyn SpatialIndex<P>>>,
}

/// Agents partitioned over the shards of a [`ShardMap`]: ownership
/// follows each member's committed position, and every shard counts its
/// members per step and — when built with one — indexes them in space.
pub(crate) struct Partition<P> {
    map: Arc<dyn ShardMap<P>>,
    /// Owning shard per agent id; `u32::MAX` for an id that is not a
    /// member.
    owner: Vec<u32>,
    parts: Vec<Part<P>>,
}

impl<P: Copy> Partition<P> {
    /// An empty partition over `map`, each shard indexed by whatever
    /// `index` builds (`None`: its members are scanned instead).
    pub(crate) fn new(
        map: Arc<dyn ShardMap<P>>,
        index: impl Fn() -> Option<Box<dyn SpatialIndex<P>>>,
    ) -> Self {
        let parts = (0..map.num_shards())
            .map(|_| Part {
                steps: StepCounts::default(),
                index: index(),
            })
            .collect();
        Partition {
            map,
            owner: Vec::new(),
            parts,
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.parts.len()
    }

    /// The shard owning member `a`.
    pub(crate) fn owner(&self, a: u32) -> usize {
        self.owner[a as usize] as usize
    }

    /// The shard the map places `pos` in: where a member standing there
    /// belongs.
    pub(crate) fn home(&self, pos: P) -> usize {
        self.map.shard_of(pos)
    }

    /// Member ids of shard `j`, ascending.
    pub(crate) fn members(&self, j: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.members_into(j, &mut out);
        out
    }

    /// Appends the member ids of shard `j`, ascending.
    fn members_into(&self, j: usize, out: &mut Vec<u32>) {
        let owned = (self.owner.iter().enumerate()).filter(|&(_, &o)| o as usize == j);
        out.extend(owned.map(|(a, _)| a as u32));
    }

    /// Adds `a` at `(step, pos)` to the shard the map places `pos` in.
    pub(crate) fn insert(&mut self, a: u32, step: u32, pos: P) {
        let j = self.map.shard_of(pos);
        if a as usize >= self.owner.len() {
            self.owner.resize(a as usize + 1, u32::MAX);
        }
        self.owner[a as usize] = j as u32;
        let part = &mut self.parts[j];
        part.steps.add(step);
        if let Some(idx) = part.index.as_mut() {
            idx.insert(a, pos);
        }
    }

    /// Removes member `a`, which stands at `(step, pos)`.
    pub(crate) fn remove(&mut self, a: u32, step: u32, pos: P) {
        let part = &mut self.parts[self.owner[a as usize] as usize];
        part.steps.remove(step);
        if let Some(idx) = part.index.as_mut() {
            idx.remove(a, pos);
        }
        self.owner[a as usize] = u32::MAX;
    }

    /// Moves member `a` from `(step, position)` `from` to `to`, re-homing
    /// it when the map places its new position in another shard. Returns
    /// whether it crossed.
    pub(crate) fn migrate(&mut self, a: u32, from: (u32, P), to: (u32, P)) -> bool {
        let j = self.owner(a);
        if self.map.shard_of(to.1) != j {
            self.remove(a, from.0, from.1);
            self.insert(a, to.0, to.1);
            return true;
        }
        let part = &mut self.parts[j];
        part.steps.remove(from.0);
        part.steps.add(to.0);
        if let Some(idx) = part.index.as_mut() {
            idx.update(a, from.1, to.1);
        }
        false
    }

    /// The lowest step of any member ([`Step::ZERO`] without members).
    pub(crate) fn min_step(&self) -> Step {
        let lows = self.parts.iter().filter_map(|p| p.steps.bounds());
        Step(lows.map(|(lo, _)| lo).min().unwrap_or(0))
    }

    /// The highest step of any member ([`Step::ZERO`] without members).
    pub(crate) fn max_step(&self) -> Step {
        let highs = self.parts.iter().filter_map(|p| p.steps.bounds());
        Step(highs.map(|(_, hi)| hi).max().unwrap_or(0))
    }

    /// The prune test: the radius at which shard `j` must be asked for
    /// rule neighbours of an agent at `(step, pos)`, or `None` when none
    /// of its members can be one.
    ///
    /// The largest step gap between the agent and any member of `j` —
    /// from the shard's step bounds — bounds every pair rule radius for
    /// candidates in `j` from above; [`ShardMap::min_distance`] bounds
    /// the distance to anything `j` can own from below. A lower bound
    /// above an upper bound proves that no rule edge exists. With one
    /// shard the bounds are global and nothing is pruned.
    pub(crate) fn reach(&self, j: usize, step: u32, pos: P, params: RuleParams) -> Option<u64> {
        let (lo, hi) = self.parts[j].steps.bounds()?;
        let units = params.blocking_units(step.abs_diff(lo).max(step.abs_diff(hi)));
        (self.map.min_distance(pos, j) <= units).then_some(units)
    }

    /// Appends every agent that may have a rule edge with an agent at
    /// `(step, pos)`: each shard [`Partition::reach`] cannot prune, asked
    /// at its radius. A superset, possibly naming that agent itself.
    pub(crate) fn candidates(&self, step: u32, pos: P, params: RuleParams, out: &mut Vec<u32>) {
        for j in 0..self.parts.len() {
            if let Some(units) = self.reach(j, step, pos, params) {
                self.query(j, pos, units, out);
            }
        }
    }

    /// Appends every agent that may stand within `units` of `center`:
    /// each non-empty shard [`ShardMap::min_distance`] cannot rule out.
    pub(crate) fn within(&self, center: P, units: u64, out: &mut Vec<u32>) {
        for j in 0..self.parts.len() {
            if !self.parts[j].steps.is_empty() && self.map.min_distance(center, j) <= units {
                self.query(j, center, units, out);
            }
        }
    }

    /// Shard `j`'s members within `units` of `center`, plus possibly
    /// some farther: its index's answer, or all of them.
    fn query(&self, j: usize, center: P, units: u64, out: &mut Vec<u32>) {
        match self.parts[j].index.as_ref() {
            Some(idx) => idx.query(center, units, out),
            None => self.members_into(j, out),
        }
    }

    /// Checks `recorded` ownership — read from per-shard member lists —
    /// against the partition the map derived from the agents' positions.
    /// Enforced in release builds too: membership that disagrees with the
    /// map's geometry would make the prune test unsound for the misplaced
    /// agents, silently dropping edges, so a hard error (e.g. resuming a
    /// snapshot under another map than it was written with) is the only
    /// safe outcome.
    pub(crate) fn check_owners(&self, recorded: &[u32]) -> Result<(), StoreError> {
        match (0..recorded.len()).find(|&a| self.owner[a] != recorded[a]) {
            None => Ok(()),
            Some(a) => Err(StoreError::Codec(format!(
                "recorded shard membership disagrees with the shard map: agent {a} \
                 is recorded in shard {} but the map places it in shard {} — was \
                 the snapshot written under a different ShardMap?",
                recorded[a], self.owner[a]
            ))),
        }
    }

    /// Panics unless the partition matches `nodes`: every agent a member
    /// of exactly one shard, the one the map places it in, and every
    /// shard's step histogram the one its members' steps rebuild.
    pub(crate) fn check(&self, nodes: &[Node<P>]) {
        let shards = self.parts.len();
        let mut rebuilt = vec![StepCounts::default(); shards];
        for (a, node) in nodes.iter().enumerate() {
            let j = self.owner.get(a).map_or(shards, |&j| j as usize);
            assert!(j < shards, "agent {a} is no shard's member");
            assert_eq!(
                self.map.shard_of(node.pos),
                j,
                "agent {a} owned by the wrong shard"
            );
            rebuilt[j].add(node.step.0);
        }
        let strays = self.owner.get(nodes.len()..).unwrap_or_default();
        assert!(
            strays.iter().all(|&j| j == u32::MAX),
            "shard membership must partition agents"
        );
        for (j, (part, want)) in self.parts.iter().zip(&rebuilt).enumerate() {
            assert_eq!(&part.steps, want, "stale step histogram in shard {j}");
        }
    }
}

/// Appends every §3.2 rule edge between `agent` (in state `at`) and the
/// `candidates` (`node` gives each one's state): candidates in step with
/// `agent` couple within the coupling radius, and across a step gap the
/// lower-step agent blocks the higher-step one within the gap-widened
/// radius. Every candidate is re-checked exactly, so a superset is fine;
/// `agent` itself is skipped.
pub(crate) fn edges_of<S: Space>(
    space: &S,
    params: RuleParams,
    agent: u32,
    at: Node<S::Pos>,
    candidates: &[u32],
    node: impl Fn(u32) -> Node<S::Pos>,
    out: &mut Vec<WireEdge>,
) {
    for &c in candidates {
        if c == agent {
            continue;
        }
        let other = node(c);
        // At gap 0 the blocking radius is the coupling radius.
        let gap = at.step.abs_diff(other.step);
        if !space.within_units(at.pos, other.pos, params.blocking_units(gap)) {
            continue;
        }
        let (coupled, a, b) = match at.step.cmp(&other.step) {
            Ordering::Equal => (true, agent, c),
            Ordering::Less => (false, agent, c),
            Ordering::Greater => (false, c, agent),
        };
        out.push(WireEdge { coupled, a, b });
    }
}

/// Batch size at or above which a multi-shard mirror relinks in parallel
/// across shards (when the machine has more than one CPU).
const PARALLEL_RELINK_THRESHOLD: usize = 64;

/// A tracker's mirror of the committed world: every agent's [`Node`],
/// their [`Partition`] over the shards of a map and — when edges are
/// maintained — the [`Adjacency`], which [`Mirror::apply`] repairs after
/// each write. It answers every scheduling query without touching the
/// store or a worker.
pub struct Mirror<S: Space> {
    space: Arc<S>,
    params: RuleParams,
    nodes: Vec<Node<S::Pos>>,
    /// Shard ownership and step bounds, plus the spatial indexes edge
    /// maintenance queries (none without maintained edges).
    part: Partition<S::Pos>,
    /// Maintained edges; `None` when the tracker keeps none.
    adj: Option<Adjacency>,
    /// Reused candidate and edge buffers of a serial relink.
    scratch: Vec<u32>,
    edges_out: Vec<WireEdge>,
    /// Worker tasks for parallel relink (0 = decide from the machine).
    relink_threads: usize,
}

impl<S: Space> fmt::Debug for Mirror<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mirror")
            .field("agents", &self.nodes.len())
            .field("shards", &self.part.num_shards())
            .finish()
    }
}

impl<S: Space> Mirror<S> {
    /// The mirror of `nodes` over the shards of `map`, with its edges
    /// (and the spatial indexes they need) built from scratch when
    /// `maintained`.
    pub(crate) fn new(
        space: Arc<S>,
        params: RuleParams,
        map: Arc<dyn ShardMap<S::Pos>>,
        nodes: Vec<Node<S::Pos>>,
        maintained: bool,
    ) -> Self {
        let units = params.coupling_units();
        let mut part = Partition::new(map, || {
            maintained.then(|| space.make_index(units)).flatten()
        });
        for (a, node) in nodes.iter().enumerate() {
            part.insert(a as u32, node.step.0, node.pos);
        }
        let mut mirror = Mirror {
            adj: maintained.then(|| Adjacency::new(nodes.len())),
            space,
            params,
            nodes,
            part,
            scratch: Vec::new(),
            edges_out: Vec::new(),
            relink_threads: 0,
        };
        mirror.rebuild();
        mirror
    }

    pub(crate) fn space(&self) -> &Arc<S> {
        &self.space
    }

    pub(crate) fn params(&self) -> RuleParams {
        self.params
    }

    pub(crate) fn nodes(&self) -> &[Node<S::Pos>] {
        &self.nodes
    }

    pub(crate) fn partition(&self) -> &Partition<S::Pos> {
        &self.part
    }

    /// Overrides the task count of a parallel relink (`0` = decide from
    /// [`std::thread::available_parallelism`]).
    pub(crate) fn set_relink_threads(&mut self, threads: usize) {
        self.relink_threads = threads;
    }

    /// Moves the mirror to the just-committed `(agent, step, position)`
    /// `targets`: every agent's node and shard membership first (so no
    /// relink query misses an agent mid-migration), then one relink
    /// batch. With `telemetry`, each half is recorded as a span.
    pub(crate) fn apply(
        &mut self,
        targets: &[(AgentId, Step, S::Pos)],
        telemetry: Option<&Telemetry>,
    ) {
        let t0 = telemetry.and_then(|t| t.start());
        let mut crossings = 0u32;
        for &(a, step, pos) in targets {
            let node = &mut self.nodes[a.index()];
            let crossed = self
                .part
                .migrate(a.0, (node.step.0, node.pos), (step.0, pos));
            crossings += u32::from(crossed);
            *node = Node { pos, step };
            if let Some(adj) = self.adj.as_mut() {
                adj.detach(a);
            }
        }
        let agents = targets.len() as u32;
        if let (Some(t), Some(t0)) = (telemetry, t0) {
            t.counter_add(Counter::ShardMigrations, u64::from(crossings));
            t.record(t0, SpanKind::Migrate { agents, crossings });
        }
        let t0 = telemetry.and_then(|t| t.start());
        let workers = self.relink(targets.iter().map(|&(a, _, _)| a), false) as u32;
        if let (Some(t), Some(t0)) = (telemetry, t0) {
            t.counter_add(Counter::RelinkBatches, 1);
            t.record(t0, SpanKind::Relink { agents, workers });
        }
    }

    /// Rebuilds every derived edge from the current node states (a no-op
    /// without maintained edges).
    pub(crate) fn rebuild(&mut self) {
        if let Some(adj) = self.adj.as_mut() {
            adj.clear();
        }
        let n = self.nodes.len() as u32;
        self.relink((0..n).map(AgentId), true);
    }

    /// Links the rule edges incident to `agents`, whose node states are
    /// in place and whose old edges are gone. With `forward`, only
    /// neighbors with a larger id are linked — a full rebuild visits
    /// every agent, and must link each pair once. Large batches on a
    /// multi-shard partition compute their edges in parallel, one task
    /// per chunk of the batch; linking is serial. Returns the tasks used
    /// (1 = serial).
    fn relink(&mut self, agents: impl ExactSizeIterator<Item = AgentId>, forward: bool) -> usize {
        let Some(mut adj) = self.adj.take() else {
            return 1;
        };
        let mut out = std::mem::take(&mut self.edges_out);
        let threads = self.relink_tasks(agents.len());
        if threads <= 1 {
            let mut scratch = std::mem::take(&mut self.scratch);
            for a in agents {
                self.edges_into(a, forward, &mut scratch, &mut out);
            }
            self.scratch = scratch;
        } else {
            // Deal the batch out in contiguous chunks: a straggler
            // pocket makes one shard's relinks far dearer than another's,
            // so chunks of the (spatially mixed) batch order balance the
            // tasks where whole shards would not. Tasks only read.
            let batch: Vec<AgentId> = agents.collect();
            let this = &*self;
            std::thread::scope(|scope| {
                let running: Vec<_> = (batch.chunks(batch.len().div_ceil(threads)))
                    .map(|task| {
                        scope.spawn(move || {
                            let (mut scratch, mut out) = (Vec::new(), Vec::new());
                            for &a in task {
                                this.edges_into(a, forward, &mut scratch, &mut out);
                            }
                            out
                        })
                    })
                    .collect();
                for task in running {
                    out.extend(task.join().expect("relink task panicked"));
                }
            });
        }
        for &e in &out {
            adj.link(e);
        }
        out.clear();
        self.edges_out = out;
        self.adj = Some(adj);
        threads
    }

    /// Appends the rule edges incident to `a` (with `forward`, only those
    /// to larger ids): the candidates the prune test keeps, classified by
    /// [`edges_of`]. `scratch` is the reused candidate buffer.
    fn edges_into(
        &self,
        a: AgentId,
        forward: bool,
        scratch: &mut Vec<u32>,
        out: &mut Vec<WireEdge>,
    ) {
        let at = self.nodes[a.index()];
        scratch.clear();
        (self.part).candidates(at.step.0, at.pos, self.params, scratch);
        if forward {
            scratch.retain(|&c| c > a.0);
        }
        let node = |c: u32| self.nodes[c as usize];
        edges_of(&*self.space, self.params, a.0, at, scratch, node, out);
    }

    /// How many parallel relink tasks a batch of `batch_len` agents
    /// warrants.
    fn relink_tasks(&self, batch_len: usize) -> usize {
        let shards = self.part.num_shards();
        if batch_len < PARALLEL_RELINK_THRESHOLD || shards < 2 {
            return 1;
        }
        let hw = if self.relink_threads > 0 {
            self.relink_threads
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        };
        hw.min(shards)
    }

    fn adj(&self) -> &Adjacency {
        self.adj
            .as_ref()
            .expect("edge queries require EdgeMode::Maintained")
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn pos(&self, a: AgentId) -> S::Pos {
        self.nodes[a.index()].pos
    }

    pub(crate) fn step(&self, a: AgentId) -> Step {
        self.nodes[a.index()].step
    }

    pub(crate) fn min_step(&self) -> Step {
        self.part.min_step()
    }

    pub(crate) fn max_step(&self) -> Step {
        self.part.max_step()
    }

    /// First agent (in `(step, id)` order) blocking `a`, in O(blockers)
    /// without allocating.
    pub(crate) fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.adj().first_blocker(a, &self.nodes)
    }

    /// Every agent blocking `a`, in `(step, id)` order.
    pub(crate) fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        self.adj().blockers_of(a, &self.nodes)
    }

    /// `a`'s maintained blocked-by list, ascending by id, without
    /// allocating.
    pub(crate) fn blocked_by(&self, a: AgentId) -> &[AgentId] {
        self.adj().blocked_by(a)
    }

    /// Coupling partners of `a`, ascending by id.
    pub(crate) fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.adj().coupled_of(a)
    }

    /// Appends every agent that may stand within `units` of `center`:
    /// the members of each shard [`ShardMap::min_distance`] cannot rule
    /// out, through its spatial index when it keeps one.
    pub(crate) fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        self.part.within(center, units, out);
    }

    /// Checks the §3.2 validity condition over the mirrored world.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let nodes = &self.nodes;
        let states: Vec<(S::Pos, Step)> = nodes.iter().map(|n| (n.pos, n.step)).collect();
        match rules::find_violation(&*self.space, self.params, &states) {
            None => Ok(()),
            Some((i, j)) => Err(format!(
                "validity violated: agent{} at {:?}/{} vs agent{} at {:?}/{}",
                i, nodes[i].pos, nodes[i].step, j, nodes[j].pos, nodes[j].step
            )),
        }
    }

    /// Dumps the nodes and every maintained edge (O(n + edges)).
    pub(crate) fn snapshot(&self) -> GraphSnapshot {
        self.adj().snapshot(&self.nodes)
    }

    /// Panics unless the partition matches the nodes: every agent a
    /// member of exactly one shard, the one the map places it in, at its
    /// step.
    pub(crate) fn check_invariants(&self) {
        self.part.check(&self.nodes);
    }
}

/// Where a [`Tracker`]'s writes go: the store records behind its mirror.
///
/// Two sinks ship, and both write behind. The shard worker's store core
/// ([`crate::dist::worker::Records`]) queues each call for the in-process
/// graph's own store; the lanes of [`crate::dist`] queue each write for
/// the shard worker owning the agent. Either writes a queue once it holds
/// [`crate::dist::WINDOW`] calls, or at a quiesce point.
pub trait Sink<S: Space>: Send {
    /// Whether per-step history records are written.
    fn history(&self) -> bool;

    /// Accepts the `(agent, step, position)` `targets` — an advance when
    /// `commit`, else a rollback — given `mirror` as it stands before the
    /// move. The write may be queued; it is durable at the next quiesce
    /// point, and it lands after every write accepted before it. On `Err`
    /// this call's writes are withdrawn and nothing is written that
    /// `mirror` does not already describe; the queued writes of earlier
    /// calls are kept.
    fn write(
        &mut self,
        mirror: &Mirror<S>,
        targets: &[(AgentId, Step, S::Pos)],
        commit: bool,
    ) -> Result<(), StoreError>;

    /// The history-eviction watermark.
    fn floor(&self) -> Result<u32, StoreError>;

    /// Deletes every history record below step `floor`, which lies above
    /// the watermark, and raises the watermark to it; the records deleted.
    fn evict(&mut self, floor: u32) -> Result<u64, StoreError>;

    /// The stores holding the records, each holding every write a call
    /// has returned `Ok` for: a quiesce point, so the queue is written
    /// first. A queue that cannot be written stays queued, and the stores
    /// are returned without it.
    fn stores(&self) -> &[Arc<Db>];

    /// See [`DepTracker::set_telemetry`]. Default: ignore.
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        let _ = telemetry;
    }

    /// See [`DepTracker::harvest_telemetry`]. Default: nothing to drain.
    fn harvest_telemetry(&mut self) {}
}

/// The one dependency tracker: a committed-state mirror every query
/// reads, plus the sink `K` its writes go to. It is used through its
/// aliases, which fix the sink: [`crate::depgraph::DepGraph`] (also
/// behind [`crate::shard::ShardedDepGraph`]) writes through the shard
/// worker's store core inline, and [`crate::dist::DistTracker`] through
/// its workers' lanes. Neither the sinks nor the tracker can be built
/// outside this crate.
///
/// An advance or rollback is refused — `Err`, with nothing moved and
/// nothing written — when it names one agent twice, or when a rollback
/// target lies ahead of its agent's current step. Otherwise the sink
/// accepts it first, and the mirror only moves once the sink has: the
/// mirror may be ahead of the stores until the next quiesce point, never
/// behind the writes queued for them.
pub struct Tracker<S: Space, K> {
    pub(crate) mirror: Mirror<S>,
    pub(crate) sink: K,
    /// Reused `(agent, step, position)` targets of an advance.
    targets: Vec<(AgentId, Step, S::Pos)>,
    /// Reused ids of the named-twice check.
    ids: Vec<u32>,
    /// Where migration passes and relink batches are recorded. Only the
    /// sharded tracker sets it: a single shard's repair is folded into
    /// the controller span, and a distributed tracker records its
    /// boundary instead.
    pub(crate) repairs: Option<Arc<Telemetry>>,
}

impl<S: Space, K> fmt::Debug for Tracker<S, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracker")
            .field("agents", &self.mirror.len())
            .field("shards", &self.mirror.partition().num_shards())
            .field("min_step", &self.mirror.min_step())
            .field("params", &self.mirror.params())
            .finish()
    }
}

impl<S: Space, K: Sink<S>> Tracker<S, K> {
    pub(crate) fn from_parts(mirror: Mirror<S>, sink: K) -> Self {
        Tracker {
            mirror,
            sink,
            targets: Vec::new(),
            ids: Vec::new(),
            repairs: None,
        }
    }

    /// Refuses `targets` unless each names a distinct agent and, for a
    /// rollback, a step at or below the agent's current one; then the
    /// sink writes them, and the mirror moves there and repairs its
    /// edges.
    fn write(
        &mut self,
        targets: &[(AgentId, Step, S::Pos)],
        commit: bool,
    ) -> Result<(), StoreError> {
        if !commit {
            let mirror = &self.mirror;
            if let Some(&(a, step, _)) = targets.iter().find(|t| t.1 > mirror.step(t.0)) {
                let current = mirror.step(a);
                let e = format!("rollback of {a} to {step} is ahead of current {current}");
                return Err(StoreError::TxnAborted(e));
            }
        }
        if targets.len() > 1 {
            let ids = &mut self.ids;
            ids.clear();
            ids.extend(targets.iter().map(|t| t.0 .0));
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                let a = AgentId(w[0]);
                return Err(StoreError::TxnAborted(format!("{a} is named twice")));
            }
        }
        self.sink.write(&self.mirror, targets, commit)?;
        self.mirror.apply(targets, self.repairs.as_deref());
        Ok(())
    }

    /// The rule parameters in force.
    pub fn params(&self) -> RuleParams {
        self.mirror.params()
    }

    /// The space agents live in.
    pub fn space(&self) -> &Arc<S> {
        self.mirror.space()
    }

    /// Number of shards the agents are partitioned over (one for a
    /// [`crate::depgraph::DepGraph`]; a distributed tracker's workers).
    pub fn num_shards(&self) -> usize {
        self.mirror.partition().num_shards()
    }

    /// The shard currently owning `a`.
    pub fn shard_of_agent(&self, a: AgentId) -> usize {
        self.mirror.partition().owner(a.0)
    }

    /// Member agents of `shard`, ascending by id.
    pub fn members(&self, shard: usize) -> Vec<u32> {
        self.mirror.partition().members(shard)
    }

    /// Cluster advancements committed so far, read from the stores once
    /// the queued writes have landed (a distributed tracker sums its
    /// workers' commit batches).
    pub fn commits(&self) -> i64 {
        self.sink.stores().iter().map(|db| commits_of(db)).sum()
    }

    /// Whether per-step history records are written (see
    /// [`crate::depgraph::GraphOptions`]).
    pub fn history_enabled(&self) -> bool {
        self.sink.history()
    }

    /// The eviction watermark: every history record at a step below this
    /// has been compacted away.
    pub fn history_floor(&self) -> Step {
        Step(self.sink.floor().unwrap_or(0))
    }

    /// Number of resident history records, once the queued writes have
    /// landed (an O(history) scan — diagnostics and tests, not a hot
    /// path).
    pub fn history_records(&self) -> u64 {
        (self.sink.stores().iter())
            .map(|db| history_records_of(db))
            .sum()
    }

    /// All agents that block `a`, in `(step, id)` order (diagnostics; the
    /// scheduler uses [`DepTracker::first_blocker`]).
    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        self.mirror.blockers_of(a)
    }

    /// Dumps nodes and the maintained edges (O(n + edges)) for
    /// visualization and for cross-checking incremental maintenance
    /// against a from-scratch rebuild.
    pub fn snapshot(&self) -> GraphSnapshot {
        self.mirror.snapshot()
    }
}

/// Queries are served by the mirror without touching a store: edge
/// queries from the maintained adjacency in O(degree) without allocating
/// (they panic in [`crate::depgraph::EdgeMode::Off`]), and
/// `max_step() - min_step()`, the current step skew, from the step
/// bounds in O(shards).
impl<S: Space, K: Sink<S>> DepTracker<S> for Tracker<S, K> {
    fn len(&self) -> usize {
        self.mirror.len()
    }

    fn step(&self, a: AgentId) -> Step {
        self.mirror.step(a)
    }

    fn pos(&self, a: AgentId) -> S::Pos {
        self.mirror.pos(a)
    }

    fn min_step(&self) -> Step {
        self.mirror.min_step()
    }

    fn max_step(&self) -> Step {
        self.mirror.max_step()
    }

    /// Refused, with nothing moved, if it names an agent twice. Panics if
    /// an agent id is out of range.
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        let mirror = &self.mirror;
        targets.extend(
            updates
                .iter()
                .map(|&(a, pos)| (a, mirror.step(a).next(), pos)),
        );
        let result = self.write(&targets, true);
        self.targets = targets;
        result
    }

    /// Refused, with nothing moved, if it names an agent twice or a
    /// target step lies ahead of its agent's current step. Panics if an
    /// agent id is out of range.
    fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        self.write(updates, false)
    }

    /// Answered by the mirror's position indexes, or by the members
    /// themselves without an index.
    fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        self.mirror.candidates_within(center, units, out);
    }

    /// Answered by `a`'s maintained blocked-by list, whatever `center`
    /// and `units` say (see the trait's precondition).
    fn blockers_within(&self, a: AgentId, _center: S::Pos, _units: u64, out: &mut Vec<u32>) {
        out.extend(self.mirror.blocked_by(a).iter().map(|b| b.0));
    }

    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.mirror.first_blocker(a)
    }

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
    /// transaction. Before it walks the history either sink writes its
    /// queue (a quiesce point), and a distributed tracker harvests its
    /// workers' telemetry after.
    fn evict_history(&mut self) -> Result<u64, StoreError> {
        if !self.sink.history() {
            return Ok(0);
        }
        let floor = self.mirror.min_step().0;
        if floor <= self.sink.floor()? {
            return Ok(0); // nothing new below the watermark
        }
        self.sink.evict(floor)
    }

    fn validate(&self) -> Result<(), String> {
        self.mirror.validate()
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.sink.set_telemetry(telemetry);
    }

    fn harvest_telemetry(&mut self) {
        self.sink.harvest_telemetry();
    }
}

/// The maintained rule edges: per agent, id-sorted lists of its coupling
/// partners, of the agents blocking it, and of the agents it blocks.
#[derive(Debug)]
pub(crate) struct Adjacency {
    coupled: Vec<Vec<AgentId>>,
    blockers: Vec<Vec<AgentId>>,
    blockees: Vec<Vec<AgentId>>,
}

impl Adjacency {
    /// No edges among `n` agents.
    pub(crate) fn new(n: usize) -> Self {
        Adjacency {
            coupled: vec![Vec::new(); n],
            blockers: vec![Vec::new(); n],
            blockees: vec![Vec::new(); n],
        }
    }

    /// Drops every edge, keeping the lists' buffers.
    pub(crate) fn clear(&mut self) {
        let lists = self.coupled.iter_mut().chain(&mut self.blockers);
        for list in lists.chain(&mut self.blockees) {
            list.clear();
        }
    }

    /// Detaches every edge incident to `a`, in both directions. `a`'s
    /// own lists are emptied in place: the relink that always follows
    /// refills them, and must find their buffers still there.
    pub(crate) fn detach(&mut self, a: AgentId) {
        // Coupling partners live in the table being walked: lift `a`'s
        // list out for the walk and put it (and its capacity) back.
        let mut partners = std::mem::take(&mut self.coupled[a.index()]);
        for b in partners.drain(..) {
            remove_sorted(&mut self.coupled[b.index()], a);
        }
        self.coupled[a.index()] = partners;
        for b in self.blockers[a.index()].drain(..) {
            remove_sorted(&mut self.blockees[b.index()], a);
        }
        for b in self.blockees[a.index()].drain(..) {
            remove_sorted(&mut self.blockers[b.index()], a);
        }
    }

    /// Adds one edge; idempotent, so both endpoints of an intra-batch
    /// edge may report it.
    pub(crate) fn link(&mut self, e: WireEdge) {
        let (a, b) = (AgentId(e.a), AgentId(e.b));
        if e.coupled {
            insert_sorted(&mut self.coupled[a.index()], b);
            insert_sorted(&mut self.coupled[b.index()], a);
        } else {
            insert_sorted(&mut self.blockers[b.index()], a);
            insert_sorted(&mut self.blockees[a.index()], b);
        }
    }

    /// First agent (in `(step, id)` order) blocking `a`, in O(blockers)
    /// without allocating.
    pub(crate) fn first_blocker<P>(&self, a: AgentId, nodes: &[Node<P>]) -> Option<AgentId> {
        self.blockers[a.index()]
            .iter()
            .copied()
            .min_by_key(|b| (nodes[b.index()].step.0, b.0))
    }

    /// The agents blocking `a`, ascending by id.
    pub(crate) fn blocked_by(&self, a: AgentId) -> &[AgentId] {
        &self.blockers[a.index()]
    }

    /// Every agent blocking `a`, in `(step, id)` order.
    pub(crate) fn blockers_of<P>(&self, a: AgentId, nodes: &[Node<P>]) -> Vec<AgentId> {
        let mut out = self.blockers[a.index()].clone();
        out.sort_unstable_by_key(|b| (nodes[b.index()].step.0, b.0));
        out
    }

    /// Coupling partners of `a`, ascending by id.
    pub(crate) fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        &self.coupled[a.index()]
    }

    /// Dumps `nodes` and every edge (O(n + edges)).
    pub(crate) fn snapshot<P: fmt::Debug>(&self, nodes: &[Node<P>]) -> GraphSnapshot {
        let mut blocked = Vec::new();
        let mut coupled = Vec::new();
        for i in 0..nodes.len() {
            let a = AgentId(i as u32);
            blocked.extend(self.blockers_of(a, nodes).into_iter().map(|b| (b, a)));
            coupled.extend(
                self.coupled_of(a)
                    .iter()
                    .filter(|b| a < **b)
                    .map(|&b| (a, b)),
            );
        }
        GraphSnapshot {
            nodes: (nodes.iter().enumerate())
                .map(|(i, n)| (AgentId(i as u32), n.step, format!("{:?}", n.pos)))
                .collect(),
            blocked,
            coupled,
        }
    }
}

/// Inserts `x` into an id-sorted list, keeping it sorted; a no-op when
/// it is already there.
fn insert_sorted(list: &mut Vec<AgentId>, x: AgentId) {
    if let Err(at) = list.binary_search(&x) {
        list.insert(at, x);
    }
}

/// Removes `x` from an id-sorted list if present.
fn remove_sorted(list: &mut Vec<AgentId>, x: AgentId) {
    if let Ok(at) = list.binary_search(&x) {
        list.remove(at);
    }
}
