//! Sharded dependency tracking for massive-agent worlds (10k+ agents).
//!
//! The single-shard [`DepGraph`] keeps one spatial index and derives every
//! relink query radius from the **global** step skew
//! (`DepGraph`'s `query_units`): one spatially-local straggler cluster
//! lagging `K` steps behind inflates *every* agent's candidate query to
//! the `blocking_units(K)` radius, even on the far side of the map. At
//! OpenCity scale that is the dominant cost of edge maintenance — the
//! stragglers of paper Fig. 1 are spatially local, but the unsharded
//! tracker pays for them globally.
//!
//! [`ShardedDepGraph`] partitions agents across N spatial shards (a
//! [`ShardMap`] — grid-region ownership, rebalanced when an agent
//! migrates across a boundary). Each shard owns:
//!
//! * a spatial index over exactly the agents it owns, and
//! * a `(step, agent)` ordered set of its members, giving per-shard
//!   `min`/`max` step bounds.
//!
//! A relink query for agent `a` then visits shard `j` only if `j`'s
//! region is within `blocking_units(gap_j)` of `a`, where `gap_j` is the
//! **largest step gap between `a` and any member of `j`** (from the
//! shard's step bounds). Shards in step with `a` are queried at the tight
//! coupling radius; distant lagging shards are pruned entirely. With one
//! shard the bounds are global and the behavior (and cost) degenerates to
//! exactly the unsharded algorithm — which is what the `shard/*` benches
//! compare against.
//!
//! # Boundary-edge protocol (why exactness holds)
//!
//! Derived edges are stored symmetrically: an edge `{a, b}` appears in
//! both endpoints' adjacency lists, and each endpoint's list is owned by
//! the endpoint's current shard. A *boundary edge* (endpoints in
//! different shards) is therefore materialized twice — once per owning
//! shard — and both copies are repaired by whichever endpoint relinks.
//! Exactness rests on three invariants:
//!
//! 1. **Ownership is total and current**: every agent belongs to exactly
//!    one shard, decided by [`ShardMap::shard_of`] on its *committed*
//!    position; [`ShardedDepGraph::advance`]/[`ShardedDepGraph::rollback`]
//!    migrate ownership (index + step bounds) *before* relinking, so a
//!    query never misses an agent because it is mid-migration.
//! 2. **Pruning is conservative**: shard `j` is skipped only when
//!    [`ShardMap::min_distance`] (a *lower bound* on the distance from
//!    the query position to any position `j` can own) exceeds the
//!    pair-gap radius `blocking_units(gap_j)` (an *upper bound*, from the
//!    shard's step extremes, on any `a`–`b` rule radius with `b ∈ j`).
//!    A lower bound above an upper bound proves no rule edge can exist,
//!    so nothing exact is lost.
//! 3. **Candidates are re-checked**: every candidate an index returns
//!    goes through the exact [`Space::within_units`] rule predicates,
//!    identical to [`DepGraph`] — sharding changes which index answers
//!    the candidate query, never the decision.
//!
//! Together 1–3 give: the sharded adjacency equals the single-shard
//! adjacency equals the pairwise §3.2 rules — pinned down by the
//! `prop_shard` property tests, which drive both trackers through random
//! advance/rollback/evict/migration churn (including agents crossing
//! shard boundaries mid-cluster) and compare edge-for-edge.
//!
//! # Parallel relink
//!
//! Because relink candidate generation is read-only (node table, shard
//! indexes, step bounds), large batches — cluster commits, recovery
//! rebuilds — compute their edge sets in parallel, one task per shard,
//! and apply the mutations serially.
//! On single-core machines (or with one shard) the path stays serial;
//! the speedups quoted in `BENCH_shard.json` on such machines come from
//! the step-bound pruning alone.
//!
//! The authoritative node records in the store are **identical** to the
//! unsharded layout (`dagt ‖ agent`), so snapshots interoperate: shard
//! membership is derived state, serialized as per-shard sections by
//! [`crate::checkpoint::snapshot_sharded_run`] purely so recovery can
//! rebuild ownership without a global rescan.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{
    detach_edges, insert_sorted, DepGraph, DepTracker, EdgeMode, GraphOptions, GraphSnapshot,
};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::space::{Point, Space, SpatialIndex};

/// Batch size at or above which [`ShardedDepGraph`] relinks in parallel
/// across shards (when more than one shard and more than one CPU exist).
const PARALLEL_RELINK_THRESHOLD: usize = 64;

/// Assigns positions to spatial shards and bounds distances to shard
/// regions — the geometry half of [`ShardedDepGraph`].
///
/// Implementations must keep [`ShardMap::min_distance`] a **lower bound**
/// on the true distance from a position to anything the shard can own;
/// the sharded tracker prunes a shard only when that lower bound exceeds
/// the pair-rule radius, so an over-estimate would silently drop edges
/// (see the [module docs](self) for the full exactness argument).
pub trait ShardMap<P>: Send + Sync + fmt::Debug {
    /// Number of shards (≥ 1).
    fn num_shards(&self) -> usize;

    /// The shard owning `pos`. Must be `< num_shards()` for every
    /// representable position.
    fn shard_of(&self, pos: P) -> usize;

    /// A lower bound on `dist(pos, q)` over every position `q` with
    /// `shard_of(q) == shard`; `0` when `pos` lies in (or the bound
    /// cannot exclude) the shard's region.
    fn min_distance(&self, pos: P, shard: usize) -> u64;
}

/// Vertical-strip sharding of the 2-D grid: shard `j` owns the
/// half-open x-band `[j·strip, (j+1)·strip)` (the last strip extends to
/// +∞, the first to −∞, so every `i32` position is owned).
///
/// Strips suit street-grid cities whose extent grows east (concatenated
/// villes, district columns); the x-distance to a strip is an exact lower
/// bound on the Euclidean distance to anything inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripShardMap {
    /// Strip width in grid units (≥ 1).
    strip: i64,
    /// Number of strips (≥ 1).
    shards: usize,
}

impl StripShardMap {
    /// Divides a world `width` columns wide into `shards` equal strips
    /// (the last strip absorbs the remainder and everything beyond the
    /// advisory width).
    ///
    /// The effective shard count is clamped to `max(width, 1)`: with
    /// more shards than columns, strips would degenerate to width 1 and
    /// every shard at index `>= width` would own an empty half-open
    /// band that [`StripShardMap::shard_of`]'s clamp can never assign —
    /// yet [`StripShardMap::min_distance`] would keep bounding distances
    /// to those phantom regions as if they were real, and every consumer
    /// sizing per-shard state off [`ShardMap::num_shards`] (the sharded
    /// tracker, checkpoint member sections, the distributed workers)
    /// would carry permanently empty shards. Clamping keeps
    /// `num_shards()` the single source of truth: every reported shard
    /// owns a non-empty strip of at least one column.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(width: u32, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let shards = shards.min(width.max(1) as usize);
        let strip = (width as i64 / shards as i64).max(1);
        StripShardMap { strip, shards }
    }

    /// Strip width in grid units.
    pub fn strip_width(&self) -> u32 {
        self.strip as u32
    }
}

impl ShardMap<Point> for StripShardMap {
    fn num_shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, pos: Point) -> usize {
        ((pos.x as i64).div_euclid(self.strip)).clamp(0, self.shards as i64 - 1) as usize
    }

    fn min_distance(&self, pos: Point, shard: usize) -> u64 {
        let x = pos.x as i64;
        // Strip j owns [lo, hi) — except that the first strip extends to
        // −∞ and the last to +∞ (every position is owned), so only the
        // boundaries facing *other* strips bound the distance. A 1-shard
        // map therefore owns everything and the bound is always 0.
        let lo = shard as i64 * self.strip;
        let hi = lo + self.strip;
        let below = if shard == 0 { 0 } else { (lo - x).max(0) };
        let above = if shard == self.shards - 1 {
            0
        } else {
            (x - hi + 1).max(0)
        };
        below.max(above) as u64
    }
}

/// Per-shard derived state: the agents a shard owns, indexed spatially
/// and ordered by step.
struct Shard<S: Space> {
    /// Spatial index over owned agents (`None` for spaces without one —
    /// the tracker then falls back to scanning the shard's members).
    index: Option<Box<dyn SpatialIndex<S::Pos>>>,
    /// `(step, agent)` of every owned agent — the shard's step bounds.
    steps: BTreeSet<(u32, u32)>,
}

impl<S: Space> Shard<S> {
    fn min_step(&self) -> Option<u32> {
        self.steps.iter().next().map(|&(s, _)| s)
    }

    fn max_step(&self) -> Option<u32> {
        self.steps.iter().next_back().map(|&(s, _)| s)
    }
}

/// One computed edge, produced by the (possibly parallel) relink phase
/// and applied serially: `Coupled(a, b)` or `Blocked(lo, hi)` (`lo`
/// blocks `hi`).
#[derive(Debug, Clone, Copy)]
enum Edge {
    Coupled(AgentId, AgentId),
    Blocked(AgentId, AgentId),
}

/// The sharded dependency tracker (see the [module docs](self)).
///
/// Wraps an edge-off [`DepGraph`] for everything sharding does not
/// change — the authoritative store records, the transactional
/// advance/rollback write path, per-step history and eviction — and adds
/// the partitioned derived state: shard ownership, per-shard spatial
/// indexes and step bounds, and the global adjacency lists the scheduler
/// queries.
pub struct ShardedDepGraph<S: Space> {
    /// Node table, store transactions, history — everything but edges.
    base: DepGraph<S>,
    map: Arc<dyn ShardMap<S::Pos>>,
    shards: Vec<Shard<S>>,
    /// Current owning shard per agent.
    owner: Vec<u32>,
    /// Same-step coupling partners per agent, ascending by id.
    coupled: Vec<Vec<AgentId>>,
    /// Agents currently blocking each agent, ascending by id.
    blockers: Vec<Vec<AgentId>>,
    /// Reverse of `blockers`.
    blockees: Vec<Vec<AgentId>>,
    /// Worker tasks for parallel relink (0 = auto from the machine).
    relink_threads: usize,
    /// Reused `(agent, pre-commit position, pre-commit step)` buffer for
    /// migrations.
    moved: Vec<(AgentId, S::Pos, u32)>,
    /// Reused candidate buffer for serial relinks.
    scratch: Vec<u32>,
    /// Reused edge buffer for serial relinks.
    edges_out: Vec<Edge>,
    /// Telemetry sink; when set, migration passes and relink batches are
    /// recorded as spans (the "controller/relink overhead" the paper's
    /// decomposition charges to the tracker).
    telemetry: Option<Arc<crate::telemetry::Telemetry>>,
}

impl<S: Space> fmt::Debug for ShardedDepGraph<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedDepGraph")
            .field("agents", &self.base.len())
            .field("shards", &self.shards.len())
            .field("min_step", &self.base.min_step())
            .finish()
    }
}

impl<S: Space> ShardedDepGraph<S> {
    /// Creates the sharded graph with every agent at [`Step::ZERO`],
    /// writing the same initial store records as [`DepGraph::new`].
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population
    /// transaction.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
    ) -> Result<Self, StoreError> {
        Self::new_with_options(space, params, db, initial, map, GraphOptions::default())
    }

    /// [`ShardedDepGraph::new`] with history recording control. The
    /// `edges` field of `options` is ignored — the sharded tracker always
    /// maintains its partitioned adjacency (that is its entire point).
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population
    /// transaction.
    pub fn new_with_options(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let base = DepGraph::new_with_options(
            space,
            params,
            db,
            initial,
            GraphOptions {
                edges: EdgeMode::Off,
                history: options.history,
            },
        )?;
        Ok(Self::around_base(base, map))
    }

    /// Rebuilds the sharded tracker from the authoritative records
    /// already in `db` — ownership recomputed from positions, adjacency
    /// relinked (in parallel across shards where the machine allows).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or
    /// malformed.
    pub fn recover(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let base = DepGraph::recover_with_options(
            space,
            params,
            db,
            num_agents,
            GraphOptions {
                edges: EdgeMode::Off,
                history: options.history,
            },
        )?;
        Ok(Self::around_base(base, map))
    }

    /// [`ShardedDepGraph::recover`] seeded with per-shard member lists
    /// (as serialized in a sharded checkpoint's `shard/<i>` sections),
    /// skipping the ownership rescan. Membership is verified against the
    /// shard map's geometry (a mismatch — e.g. resuming under a
    /// different [`ShardMap`] than the snapshot was written with — is a
    /// codec error, not silent pruning unsoundness).
    ///
    /// # Errors
    ///
    /// As [`ShardedDepGraph::recover`], plus [`StoreError::Codec`] if the
    /// member lists do not cover every agent exactly once or name a shard
    /// out of range.
    pub fn recover_with_members(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
        members: &[Vec<u32>],
    ) -> Result<Self, StoreError> {
        if members.len() != map.num_shards() {
            return Err(StoreError::Codec(format!(
                "{} member sections for a {}-shard map",
                members.len(),
                map.num_shards()
            )));
        }
        let mut owner = vec![u32::MAX; num_agents];
        for (j, list) in members.iter().enumerate() {
            for &a in list {
                let slot = owner.get_mut(a as usize).ok_or_else(|| {
                    StoreError::Codec(format!("shard {j} names out-of-range agent {a}"))
                })?;
                if *slot != u32::MAX {
                    return Err(StoreError::Codec(format!(
                        "agent {a} owned by shards {} and {j}",
                        *slot
                    )));
                }
                *slot = j as u32;
            }
        }
        if let Some(a) = owner.iter().position(|&o| o == u32::MAX) {
            return Err(StoreError::Codec(format!("agent {a} owned by no shard")));
        }
        let base = DepGraph::recover_with_options(
            space,
            params,
            db,
            num_agents,
            GraphOptions {
                edges: EdgeMode::Off,
                history: options.history,
            },
        )?;
        // Checked in release builds too: membership that disagrees with
        // the shard map's geometry would make the distance lower bound
        // unsound for the misplaced agents, silently dropping edges — a
        // hard error (e.g. resuming a snapshot under a different
        // ShardMap than it was written with) is the only safe outcome.
        if let Some(a) = (0..num_agents)
            .find(|&a| map.shard_of(base.pos(AgentId(a as u32))) != owner[a] as usize)
        {
            return Err(StoreError::Codec(format!(
                "recorded shard membership disagrees with the shard map: \
                 agent {a} at {:?} is owned by shard {} but the map places \
                 it in shard {} — was the snapshot written under a \
                 different ShardMap?",
                base.pos(AgentId(a as u32)),
                owner[a],
                map.shard_of(base.pos(AgentId(a as u32)))
            )));
        }
        Ok(Self::assemble(base, map, owner))
    }

    /// Derives ownership from positions and assembles the mirror.
    fn around_base(base: DepGraph<S>, map: Arc<dyn ShardMap<S::Pos>>) -> Self {
        let owner: Vec<u32> = (0..base.len() as u32)
            .map(|a| map.shard_of(base.pos(AgentId(a))) as u32)
            .collect();
        Self::assemble(base, map, owner)
    }

    /// Builds shard indexes, step bounds, and adjacency around decided
    /// ownership.
    fn assemble(base: DepGraph<S>, map: Arc<dyn ShardMap<S::Pos>>, owner: Vec<u32>) -> Self {
        let n = base.len();
        let units = base.params().coupling_units();
        let mut shards: Vec<Shard<S>> = (0..map.num_shards())
            .map(|_| Shard {
                index: base.space().make_index(units),
                steps: BTreeSet::new(),
            })
            .collect();
        for a in 0..n as u32 {
            let shard = &mut shards[owner[a as usize] as usize];
            if let Some(idx) = shard.index.as_mut() {
                idx.insert(a, base.pos(AgentId(a)));
            }
            shard.steps.insert((base.step(AgentId(a)).0, a));
        }
        let mut graph = ShardedDepGraph {
            base,
            map,
            shards,
            owner,
            coupled: vec![Vec::new(); n],
            blockers: vec![Vec::new(); n],
            blockees: vec![Vec::new(); n],
            relink_threads: 0,
            moved: Vec::new(),
            scratch: Vec::new(),
            edges_out: Vec::new(),
            telemetry: None,
        };
        graph.refresh_edges();
        graph
    }

    /// Overrides the worker-task count for parallel relink (`0` = decide
    /// from [`std::thread::available_parallelism`]). Mostly for tests and
    /// benches; the default is right for production.
    pub fn set_relink_threads(&mut self, threads: usize) {
        self.relink_threads = threads;
    }

    /// Attaches a telemetry sink: every migration pass and relink batch
    /// on the advance/rollback path is recorded as a span (with agent and
    /// shard-crossing counts attached) plus the matching counters.
    pub fn set_telemetry(&mut self, telemetry: Arc<crate::telemetry::Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard currently owning `a`.
    pub fn shard_of_agent(&self, a: AgentId) -> usize {
        self.owner[a.index()] as usize
    }

    /// Member agents of `shard`, ascending by id.
    pub fn members(&self, shard: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self.shards[shard].steps.iter().map(|&(_, a)| a).collect();
        out.sort_unstable();
        out
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the graph tracks no agents.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// The rule parameters in force.
    pub fn params(&self) -> RuleParams {
        self.base.params()
    }

    /// The space agents live in.
    pub fn space(&self) -> &Arc<S> {
        self.base.space()
    }

    /// The backing store holding the authoritative node records.
    pub fn db(&self) -> &Arc<Db> {
        self.base.db()
    }

    /// Current position of `a`.
    pub fn pos(&self, a: AgentId) -> S::Pos {
        self.base.pos(a)
    }

    /// Current (next-to-execute) step of `a`.
    pub fn step(&self, a: AgentId) -> Step {
        self.base.step(a)
    }

    /// The lowest step any agent is at.
    pub fn min_step(&self) -> Step {
        self.base.min_step()
    }

    /// The highest step any agent is at.
    pub fn max_step(&self) -> Step {
        self.base.max_step()
    }

    /// Cluster advancements committed so far (read from the store).
    pub fn commits(&self) -> i64 {
        self.base.commits()
    }

    /// Whether per-step history records are written.
    pub fn history_enabled(&self) -> bool {
        self.base.history_enabled()
    }

    /// Number of resident history records (diagnostics).
    pub fn history_records(&self) -> u64 {
        self.base.history_records()
    }

    /// The history-eviction watermark (see [`DepGraph::history_floor`]).
    pub fn history_floor(&self) -> Step {
        self.base.history_floor()
    }

    /// Compacts history below the deepest legal rollback (see
    /// [`DepGraph::evict_history`] — the invariant is untouched by
    /// sharding, since eviction only consults the global `min_step`).
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn evict_history(&mut self) -> Result<u64, StoreError> {
        self.base.evict_history()
    }

    /// First agent (in `(step, id)` order) that blocks `a`, if any.
    pub fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.blockers[a.index()]
            .iter()
            .copied()
            .min_by_key(|b| (self.base.step(*b).0, b.0))
    }

    /// All agents that block `a`, in `(step, id)` order.
    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        let mut out = self.blockers[a.index()].clone();
        out.sort_unstable_by_key(|b| (self.base.step(*b).0, b.0));
        out
    }

    /// Same-step coupling partners of `a`, ascending by id.
    pub fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        &self.coupled[a.index()]
    }

    /// Appends to `out` every agent that may currently stand within
    /// `units` of `center` (a superset, unordered, possibly repeated; see
    /// [`DepGraph::candidates_within`]): each shard that
    /// [`ShardMap::min_distance`] cannot rule out answers from its own
    /// index, or names its members when the space has none.
    pub fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        for (j, shard) in self.shards.iter().enumerate() {
            if shard.steps.is_empty() || self.map.min_distance(center, j) > units {
                continue;
            }
            match shard.index.as_ref() {
                Some(idx) => idx.query(center, units, out),
                None => out.extend(shard.steps.iter().map(|&(_, a)| a)),
            }
        }
    }

    /// Verifies the §3.2 validity condition over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()
    }

    /// Dumps nodes and edges in the same shape as
    /// [`DepGraph::snapshot`], so the two trackers compare directly.
    pub fn snapshot(&self) -> GraphSnapshot {
        let mut blocked = Vec::new();
        let mut coupled = Vec::new();
        for i in 0..self.len() {
            let a = AgentId(i as u32);
            for b in self.blockers_of(a) {
                blocked.push((b, a));
            }
            for &b in self.coupled_of(a) {
                if a.0 < b.0 {
                    coupled.push((a, b));
                }
            }
        }
        GraphSnapshot {
            nodes: (0..self.len() as u32)
                .map(|a| {
                    let a = AgentId(a);
                    (a, self.step(a), format!("{:?}", self.pos(a)))
                })
                .collect(),
            blocked,
            coupled,
        }
    }

    /// Advances every `(agent, new_position)` one step as a single store
    /// transaction, then migrates ownership and repairs the affected
    /// edges (in parallel across shards for large batches).
    ///
    /// # Errors
    ///
    /// Propagates transaction failures; the mirror is only updated after
    /// the transaction commits.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    pub fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        let mut moved = std::mem::take(&mut self.moved);
        moved.clear();
        moved.extend(
            updates
                .iter()
                .map(|&(a, _)| (a, self.base.pos(a), self.base.step(a).0)),
        );
        self.base.advance(updates)?;
        let migrate_t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let mut crossings = 0u32;
        for &(a, old, old_step) in &moved {
            crossings += u32::from(self.migrate(a, old, old_step));
        }
        self.record_migrate(migrate_t0, moved.len() as u32, crossings);
        moved.clear();
        self.moved = moved;
        let relink_t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let workers = self.relink_batch(updates.iter().map(|&(a, _)| a));
        self.record_relink(relink_t0, updates.len() as u32, workers);
        Ok(())
    }

    /// Rolls every `(agent, step, position)` back — the speculative
    /// squash path — with the same migration + relink repair as
    /// [`ShardedDepGraph::advance`].
    ///
    /// # Errors
    ///
    /// Propagates transaction failures.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range or a target step is ahead of
    /// the agent's current step.
    pub fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        let mut moved = std::mem::take(&mut self.moved);
        moved.clear();
        moved.extend(
            updates
                .iter()
                .map(|&(a, _, _)| (a, self.base.pos(a), self.base.step(a).0)),
        );
        self.base.rollback(updates)?;
        let migrate_t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let mut crossings = 0u32;
        for &(a, old, old_step) in &moved {
            crossings += u32::from(self.migrate(a, old, old_step));
        }
        self.record_migrate(migrate_t0, moved.len() as u32, crossings);
        moved.clear();
        self.moved = moved;
        let relink_t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let workers = self.relink_batch(updates.iter().map(|&(a, _, _)| a));
        self.record_relink(relink_t0, updates.len() as u32, workers);
        Ok(())
    }

    fn record_migrate(&self, t0: Option<u64>, agents: u32, crossings: u32) {
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            t.counter_add(
                crate::telemetry::Counter::ShardMigrations,
                u64::from(crossings),
            );
            t.record(
                t0,
                crate::telemetry::SpanKind::Migrate { agents, crossings },
            );
        }
    }

    fn record_relink(&self, t0: Option<u64>, agents: u32, workers: usize) {
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            t.counter_add(crate::telemetry::Counter::RelinkBatches, 1);
            t.record(
                t0,
                crate::telemetry::SpanKind::Relink {
                    agents,
                    workers: workers as u32,
                },
            );
        }
    }

    /// Moves `a`'s derived shard state (ownership, index entry, step
    /// bound) to match its just-committed node state; `old`/`old_step`
    /// are its pre-commit position and step. Returns whether the agent
    /// crossed into a different shard.
    fn migrate(&mut self, a: AgentId, old: S::Pos, old_step: u32) -> bool {
        let new_pos = self.base.pos(a);
        let from = self.owner[a.index()] as usize;
        let to = self.map.shard_of(new_pos);
        // The step-bound entry always moves (the step changed).
        let removed = self.shards[from].steps.remove(&(old_step, a.0));
        debug_assert!(removed, "agent {a} missing from shard {from} step set");
        self.shards[to].steps.insert((self.base.step(a).0, a.0));
        if from == to {
            if let Some(idx) = self.shards[from].index.as_mut() {
                idx.update(a.0, old, new_pos);
            }
            false
        } else {
            if let Some(idx) = self.shards[from].index.as_mut() {
                idx.remove(a.0, old);
            }
            if let Some(idx) = self.shards[to].index.as_mut() {
                idx.insert(a.0, new_pos);
            }
            self.owner[a.index()] = to as u32;
            true
        }
    }

    /// Detaches every edge incident to `a` (both directions).
    fn detach(&mut self, a: AgentId) {
        detach_edges(&mut self.coupled, &mut self.blockers, &mut self.blockees, a);
    }

    /// Computes the edges incident to `a` into `out`, consulting only the
    /// shards the step-bound/distance test cannot prune. With
    /// `forward_only`, only neighbors with a larger id are emitted (full
    /// rebuilds visit every agent, so each unordered pair must be emitted
    /// exactly once).
    fn collect_edges(
        &self,
        a: AgentId,
        forward_only: bool,
        scratch: &mut Vec<u32>,
        out: &mut Vec<Edge>,
    ) {
        let pos = self.base.pos(a);
        let step = self.base.step(a);
        let params = self.base.params();
        let space = self.base.space();
        for (j, shard) in self.shards.iter().enumerate() {
            let (Some(lo), Some(hi)) = (shard.min_step(), shard.max_step()) else {
                continue; // empty shard
            };
            // Largest step gap between `a` and any member of shard `j`
            // bounds every pair rule radius for candidates in `j`.
            let gap = (step.0.abs_diff(lo)).max(step.0.abs_diff(hi));
            let units = params.blocking_units(gap);
            if self.map.min_distance(pos, j) > units {
                continue; // provably out of range of every member
            }
            scratch.clear();
            let candidates: &[u32] = match shard.index.as_ref() {
                Some(idx) => {
                    idx.query(pos, units, scratch);
                    scratch
                }
                None => {
                    scratch.extend(shard.steps.iter().map(|&(_, a)| a));
                    scratch
                }
            };
            for &c in candidates {
                if c == a.0 || (forward_only && c < a.0) {
                    continue;
                }
                let b = AgentId(c);
                let (bpos, bstep) = (self.base.pos(b), self.base.step(b));
                if bstep == step {
                    if space.within_units(pos, bpos, params.coupling_units()) {
                        out.push(Edge::Coupled(a, b));
                    }
                } else {
                    let (lo_a, hi_a) = if step < bstep { (a, b) } else { (b, a) };
                    let gap = step.abs_diff(bstep);
                    if space.within_units(pos, bpos, params.blocking_units(gap)) {
                        out.push(Edge::Blocked(lo_a, hi_a));
                    }
                }
            }
        }
    }

    /// Applies a computed edge to the adjacency lists (idempotent, so
    /// both endpoints of an intra-batch edge may emit it).
    fn apply_edge(&mut self, e: Edge) {
        match e {
            Edge::Coupled(a, b) => {
                insert_sorted(&mut self.coupled[a.index()], b);
                insert_sorted(&mut self.coupled[b.index()], a);
            }
            Edge::Blocked(lo, hi) => {
                insert_sorted(&mut self.blockers[hi.index()], lo);
                insert_sorted(&mut self.blockees[lo.index()], hi);
            }
        }
    }

    /// Detaches and relinks a batch of agents whose node states already
    /// moved. Large batches compute their edge sets in parallel, one task
    /// per shard-partition of the batch; mutations apply serially.
    /// Returns the worker-task count used (1 = serial path).
    fn relink_batch(&mut self, agents: impl Iterator<Item = AgentId> + Clone) -> usize {
        for a in agents.clone() {
            self.detach(a);
        }
        let batch: Vec<AgentId> = agents.collect();
        let threads = self.worker_count(batch.len());
        if threads <= 1 {
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut out = std::mem::take(&mut self.edges_out);
            out.clear();
            for &a in &batch {
                self.collect_edges(a, false, &mut scratch, &mut out);
            }
            for i in 0..out.len() {
                self.apply_edge(out[i]);
            }
            out.clear();
            self.scratch = scratch;
            self.edges_out = out;
            return 1;
        }
        // Parallel phase A: partition the batch by owning shard so each
        // task reads a coherent slice of the world, then chunk the
        // partitions across `threads` scoped workers. Phase A only reads
        // (`collect_edges` takes `&self`); phase B applies serially.
        let mut by_shard: Vec<Vec<AgentId>> = vec![Vec::new(); self.shards.len()];
        for &a in &batch {
            by_shard[self.owner[a.index()] as usize].push(a);
        }
        let mut buckets: Vec<Vec<AgentId>> = vec![Vec::new(); threads];
        let mut load: Vec<usize> = vec![0; threads];
        for part in by_shard {
            if part.is_empty() {
                continue;
            }
            let t = (0..threads).min_by_key(|&t| load[t]).expect("threads > 0");
            load[t] += part.len();
            buckets[t].extend(part);
        }
        let this = &*self;
        let produced: Vec<Vec<Edge>> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .iter()
                .filter(|b| !b.is_empty())
                .map(|bucket| {
                    scope.spawn(move || {
                        let mut scratch = Vec::new();
                        let mut out = Vec::new();
                        for &a in bucket {
                            this.collect_edges(a, false, &mut scratch, &mut out);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("relink worker panicked"))
                .collect()
        });
        for out in produced {
            for e in out {
                self.apply_edge(e);
            }
        }
        threads
    }

    /// Rebuilds every derived edge from the current node states —
    /// initialisation and recovery (steady-state maintenance is
    /// incremental). Parallel across shards on multi-core machines.
    pub fn refresh_edges(&mut self) {
        for list in self
            .coupled
            .iter_mut()
            .chain(self.blockers.iter_mut())
            .chain(self.blockees.iter_mut())
        {
            list.clear();
        }
        let n = self.len();
        let threads = self.worker_count(n);
        if threads <= 1 {
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut out = std::mem::take(&mut self.edges_out);
            out.clear();
            for a in 0..n as u32 {
                self.collect_edges(AgentId(a), true, &mut scratch, &mut out);
            }
            for i in 0..out.len() {
                self.apply_edge(out[i]);
            }
            out.clear();
            self.scratch = scratch;
            self.edges_out = out;
            return;
        }
        let this = &*self;
        let chunk = n.div_ceil(threads);
        let produced: Vec<Vec<Edge>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut scratch = Vec::new();
                        let mut out = Vec::new();
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(n);
                        for a in lo..hi {
                            this.collect_edges(AgentId(a as u32), true, &mut scratch, &mut out);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("relink worker panicked"))
                .collect()
        });
        for out in produced {
            for e in out {
                self.apply_edge(e);
            }
        }
    }

    /// How many parallel relink workers a batch of `batch_len` agents
    /// warrants.
    fn worker_count(&self, batch_len: usize) -> usize {
        if batch_len < PARALLEL_RELINK_THRESHOLD || self.shards.len() < 2 {
            return 1;
        }
        let hw = if self.relink_threads > 0 {
            self.relink_threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        };
        hw.min(self.shards.len())
    }

    /// Debug cross-check of the derived shard state against first
    /// principles: ownership matches the shard map, step bounds match the
    /// node table. Used by the property tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut total = 0;
        for (j, shard) in self.shards.iter().enumerate() {
            total += shard.steps.len();
            for &(s, a) in &shard.steps {
                assert_eq!(self.owner[a as usize] as usize, j, "ownership drift");
                assert_eq!(self.base.step(AgentId(a)).0, s, "stale shard step bound");
                assert_eq!(
                    self.map.shard_of(self.base.pos(AgentId(a))),
                    j,
                    "agent {a} owned by the wrong shard"
                );
            }
        }
        assert_eq!(total, self.len(), "shard membership must partition agents");
    }
}

impl<S: Space> DepTracker<S> for ShardedDepGraph<S> {
    #[inline]
    fn len(&self) -> usize {
        ShardedDepGraph::len(self)
    }

    #[inline]
    fn step(&self, a: AgentId) -> Step {
        ShardedDepGraph::step(self, a)
    }

    #[inline]
    fn pos(&self, a: AgentId) -> S::Pos {
        ShardedDepGraph::pos(self, a)
    }

    #[inline]
    fn min_step(&self) -> Step {
        ShardedDepGraph::min_step(self)
    }

    #[inline]
    fn max_step(&self) -> Step {
        ShardedDepGraph::max_step(self)
    }

    #[inline]
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        ShardedDepGraph::advance(self, updates)
    }

    #[inline]
    fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        ShardedDepGraph::rollback(self, updates)
    }

    #[inline]
    fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        ShardedDepGraph::candidates_within(self, center, units, out)
    }

    #[inline]
    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        ShardedDepGraph::first_blocker(self, a)
    }

    #[inline]
    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        ShardedDepGraph::coupled_of(self, a)
    }

    #[inline]
    fn evict_history(&mut self) -> Result<u64, StoreError> {
        ShardedDepGraph::evict_history(self)
    }

    #[inline]
    fn validate(&self) -> Result<(), String> {
        ShardedDepGraph::validate(self)
    }

    #[inline]
    fn set_telemetry(&mut self, telemetry: Arc<crate::telemetry::Telemetry>) {
        ShardedDepGraph::set_telemetry(self, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GridSpace;

    fn strip_graph(points: &[(i32, i32)], shards: usize) -> ShardedDepGraph<GridSpace> {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        ShardedDepGraph::new(
            space,
            RuleParams::genagent(),
            db,
            &initial,
            Arc::new(StripShardMap::new(100, shards)),
        )
        .unwrap()
    }

    #[test]
    fn strip_map_assigns_and_bounds_distance() {
        let m = StripShardMap::new(100, 4);
        assert_eq!(m.num_shards(), 4);
        assert_eq!(m.strip_width(), 25);
        assert_eq!(m.shard_of(Point::new(0, 0)), 0);
        assert_eq!(m.shard_of(Point::new(24, 50)), 0);
        assert_eq!(m.shard_of(Point::new(25, 0)), 1);
        assert_eq!(m.shard_of(Point::new(99, 0)), 3);
        // Out-of-bound positions clamp to the edge strips.
        assert_eq!(m.shard_of(Point::new(-10, 0)), 0);
        assert_eq!(m.shard_of(Point::new(500, 0)), 3);
        // Distance lower bounds: exact along x, zero inside.
        assert_eq!(m.min_distance(Point::new(10, 0), 0), 0);
        assert_eq!(m.min_distance(Point::new(10, 0), 1), 15);
        assert_eq!(m.min_distance(Point::new(10, 0), 3), 65);
        assert_eq!(m.min_distance(Point::new(30, 0), 0), 6);
        // Edge strips own the half-planes beyond the advisory width.
        assert_eq!(m.min_distance(Point::new(500, 0), 3), 0);
        assert_eq!(m.min_distance(Point::new(-50, 0), 0), 0);
        // A 1-shard map owns the whole plane: the bound is 0 everywhere,
        // even far outside the advisory width (the unsharded-degeneracy
        // contract).
        let one = StripShardMap::new(100, 1);
        for x in [-500, 0, 50, 99, 150, 100_000] {
            assert_eq!(one.shard_of(Point::new(x, 0)), 0);
            assert_eq!(one.min_distance(Point::new(x, 0), 0), 0, "x={x}");
        }
    }

    #[test]
    fn candidates_within_covers_every_strip_in_range_and_skips_the_rest() {
        let points: Vec<(i32, i32)> = (0..40).map(|i| ((i * 37) % 100, (i * 11) % 140)).collect();
        let g = strip_graph(&points, 4);
        for (center, units) in [(Point::new(24, 70), 3), (Point::new(50, 10), 30)] {
            let mut got = Vec::new();
            g.candidates_within(center, units, &mut got);
            for (a, &(x, y)) in points.iter().enumerate() {
                if g.space().within_units(Point::new(x, y), center, units) {
                    assert!(got.contains(&(a as u32)), "agent {a} missed");
                }
            }
            // Strips `min_distance` rules out are not asked at all.
            let far = |a: &u32| g.map.min_distance(center, g.shard_of_agent(AgentId(*a))) > units;
            assert!(!got.iter().any(far), "a pruned strip answered");
        }
    }

    #[test]
    fn oversharded_map_clamps_to_width_and_owns_no_phantom_regions() {
        // Regression: `shards > width` used to leave high-index shards
        // owning empty regions that `shard_of` could never assign while
        // `min_distance` still treated them as real, so per-shard state
        // sized off `num_shards()` carried phantom shards forever.
        let m = StripShardMap::new(4, 16);
        assert_eq!(m.num_shards(), 4, "effective shard count clamps to width");
        assert_eq!(m.strip_width(), 1);
        // Every reported shard is reachable through shard_of.
        let mut seen = vec![false; m.num_shards()];
        for x in -5i32..10 {
            seen[m.shard_of(Point::new(x, 0))] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards own real positions");
        // The lower bound stays sound for every (position, shard) pair.
        for x in -5i32..10 {
            let p = Point::new(x, 3);
            for j in 0..m.num_shards() {
                for q in -5i32..10 {
                    let qp = Point::new(q, -2);
                    if m.shard_of(qp) == j {
                        assert!(m.min_distance(p, j) as f64 <= p.dist(qp) + 1e-9);
                    }
                }
            }
        }
        // A zero-width world still yields a usable single-shard map.
        let degenerate = StripShardMap::new(0, 8);
        assert_eq!(degenerate.num_shards(), 1);
        assert_eq!(degenerate.shard_of(Point::new(-100, 0)), 0);
        assert_eq!(degenerate.min_distance(Point::new(7, 7), 0), 0);
        // And the sharded tracker built over an oversharded map stays
        // exact against the unsharded graph.
        let pts = [(0, 0), (1, 0), (3, 2), (2, 1)];
        let mut sharded = {
            let space = Arc::new(GridSpace::new(4, 140));
            let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            ShardedDepGraph::new(
                space,
                RuleParams::genagent(),
                Arc::new(Db::new()),
                &initial,
                Arc::new(StripShardMap::new(4, 16)),
            )
            .unwrap()
        };
        let mut single = {
            let space = Arc::new(GridSpace::new(4, 140));
            let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            DepGraph::new(space, RuleParams::genagent(), Arc::new(Db::new()), &initial).unwrap()
        };
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.snapshot(), single.snapshot());
        for (a, x, y) in [(0u32, 1, 0), (2, 3, 1), (1, 0, 0)] {
            let to = Point::new(x, y);
            sharded.advance(&[(AgentId(a), to)]).unwrap();
            single.advance(&[(AgentId(a), to)]).unwrap();
            sharded.check_invariants();
            assert_eq!(sharded.snapshot(), single.snapshot());
        }
    }

    #[test]
    fn min_distance_is_a_true_lower_bound() {
        let m = StripShardMap::new(100, 5);
        for x in -150i32..250 {
            let p = Point::new(x, 7);
            for q in -150i32..250 {
                let qp = Point::new(q, -3);
                let j = m.shard_of(qp);
                assert!(
                    m.min_distance(p, j) as f64 <= p.dist(qp) + 1e-9,
                    "bound violated: p={p} q={qp} shard={j}"
                );
            }
        }
    }

    #[test]
    fn sharded_edges_match_single_shard() {
        // Agents straddling strip boundaries: coupling and blocking edges
        // must be identical to the unsharded graph.
        let pts = [(24, 0), (26, 0), (50, 50), (74, 10), (76, 10), (0, 0)];
        let mut sharded = strip_graph(&pts, 4);
        let mut single = {
            let space = Arc::new(GridSpace::new(100, 140));
            let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            DepGraph::new(space, RuleParams::genagent(), Arc::new(Db::new()), &initial).unwrap()
        };
        assert_eq!(sharded.snapshot(), single.snapshot());
        // Drive a few commits (including a boundary crossing) in both.
        let moves: [(u32, i32, i32); 4] = [(0, 26, 0), (1, 27, 1), (3, 75, 10), (5, 1, 0)];
        for (a, x, y) in moves {
            let to = Point::new(x, y);
            sharded.advance(&[(AgentId(a), to)]).unwrap();
            single.advance(&[(AgentId(a), to)]).unwrap();
            sharded.check_invariants();
            assert_eq!(sharded.snapshot(), single.snapshot());
        }
        assert_eq!(sharded.shard_of_agent(AgentId(0)), 1, "agent 0 migrated");
    }

    #[test]
    fn migration_moves_ownership_and_index() {
        let mut g = strip_graph(&[(10, 10), (90, 90)], 4);
        assert_eq!(g.shard_of_agent(AgentId(0)), 0);
        assert_eq!(g.members(0), vec![0]);
        g.advance(&[(AgentId(0), Point::new(60, 10))]).unwrap();
        assert_eq!(g.shard_of_agent(AgentId(0)), 2);
        assert!(g.members(0).is_empty());
        assert_eq!(g.members(2), vec![0]);
        g.check_invariants();
    }

    #[test]
    fn rollback_repairs_sharded_edges() {
        let mut g = strip_graph(&[(24, 0), (26, 0)], 2);
        assert_eq!(g.coupled_of(AgentId(0)), &[AgentId(1)]);
        g.advance(&[(AgentId(1), Point::new(27, 0))]).unwrap();
        assert!(g.coupled_of(AgentId(0)).is_empty());
        assert_eq!(g.first_blocker(AgentId(1)), Some(AgentId(0)));
        g.rollback(&[(AgentId(1), Step(0), Point::new(26, 0))])
            .unwrap();
        assert_eq!(g.coupled_of(AgentId(0)), &[AgentId(1)]);
        assert_eq!(g.first_blocker(AgentId(1)), None);
        g.check_invariants();
    }

    #[test]
    fn parallel_relink_matches_serial() {
        // A batch big enough to cross the parallel threshold, forced onto
        // several workers even on a single-core machine; the result must
        // equal both the serial sharded path and the unsharded graph.
        let pts: Vec<(i32, i32)> = (0..200).map(|i| ((i * 7) % 100, (i * 13) % 140)).collect();
        let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let space = Arc::new(GridSpace::new(100, 140));
        let mut par = ShardedDepGraph::new(
            Arc::clone(&space),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &initial,
            Arc::new(StripShardMap::new(100, 8)),
        )
        .unwrap();
        par.set_relink_threads(4);
        let mut ser = strip_graph(&pts, 8);
        ser.set_relink_threads(1);
        let mut single =
            DepGraph::new(space, RuleParams::genagent(), Arc::new(Db::new()), &initial).unwrap();
        let batch: Vec<(AgentId, Point)> = (0..200u32)
            .map(|a| {
                let p = single.pos(AgentId(a));
                (AgentId(a), Point::new((p.x + 1).min(99), p.y))
            })
            .collect();
        par.advance(&batch).unwrap();
        ser.advance(&batch).unwrap();
        single.advance(&batch).unwrap();
        par.check_invariants();
        assert_eq!(par.snapshot(), ser.snapshot());
        assert_eq!(par.snapshot(), single.snapshot());
    }

    #[test]
    fn recover_rebuilds_from_store() {
        let mut g = strip_graph(&[(10, 0), (14, 0), (80, 0)], 4);
        g.advance(&[(AgentId(2), Point::new(81, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(11, 0))]).unwrap();
        let r = ShardedDepGraph::recover(
            Arc::clone(g.space()),
            g.params(),
            Arc::clone(g.db()),
            3,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
        )
        .unwrap();
        assert_eq!(r.snapshot(), g.snapshot());
        r.check_invariants();
    }

    #[test]
    fn recover_with_members_skips_rescan_and_validates() {
        let g = strip_graph(&[(10, 0), (40, 0), (90, 0)], 4);
        let members: Vec<Vec<u32>> = (0..4).map(|j| g.members(j)).collect();
        let r = ShardedDepGraph::recover_with_members(
            Arc::clone(g.space()),
            g.params(),
            Arc::clone(g.db()),
            3,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
            &members,
        )
        .unwrap();
        assert_eq!(r.snapshot(), g.snapshot());
        // Malformed member lists are rejected.
        let missing: Vec<Vec<u32>> = vec![vec![0], vec![], vec![], vec![]];
        assert!(ShardedDepGraph::recover_with_members(
            Arc::clone(g.space()),
            g.params(),
            Arc::clone(g.db()),
            3,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
            &missing,
        )
        .is_err());
    }

    #[test]
    fn step_bound_pruning_skips_far_lagging_shards() {
        // A straggler far west lags; an eastern agent's relink must not
        // pay the straggler-widened radius for its own in-step shard.
        // (Correctness is what we assert here; the cost claim is the
        // shard bench's job.)
        let mut g = strip_graph(&[(5, 0), (95, 0), (90, 5)], 4);
        for _ in 0..10 {
            g.advance(&[
                (AgentId(1), Point::new(95, 0)),
                (AgentId(2), Point::new(90, 5)),
            ])
            .unwrap();
        }
        // Gap 10 blocking radius is 15 — agent 0 at x=5 is 90 away from
        // agent 1: no edge, and validity holds.
        assert_eq!(g.first_blocker(AgentId(1)), None);
        assert!(g.validate().is_ok());
        g.check_invariants();
    }
}
