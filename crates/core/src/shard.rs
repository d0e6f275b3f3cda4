//! Sharded dependency tracking for massive-agent worlds (10k+ agents).
//!
//! A tracker with one spatial index derives every relink query radius
//! from the **global** step skew: one spatially-local straggler cluster
//! lagging `K` steps behind inflates *every* agent's candidate query to
//! the `blocking_units(K)` radius, even on the far side of the map. At
//! OpenCity scale that is the dominant cost of edge maintenance — the
//! stragglers of paper Fig. 1 are spatially local, but an unsharded
//! tracker pays for them globally.
//!
//! [`ShardedDepGraph`] partitions agents across N spatial shards (a
//! [`ShardMap`] — grid-region ownership, rebalanced when an agent
//! migrates across a boundary). Each shard owns:
//!
//! * a spatial index over exactly the agents it owns, and
//! * a histogram of its members per step, giving per-shard `min`/`max`
//!   step bounds in O(1).
//!
//! A relink query for agent `a` then visits shard `j` only if `j`'s
//! region is within `blocking_units(gap_j)` of `a`, where `gap_j` is the
//! **largest step gap between `a` and any member of `j`** (from the
//! shard's step bounds). Shards in step with `a` are queried at the tight
//! coupling radius; distant lagging shards are pruned entirely.
//!
//! The sharded tracker *is* a [`DepGraph`] — the crate's one tracker,
//! writing behind through the shard worker's store core — whose
//! committed-state mirror (nodes, partition, prune test, adjacency and
//! edge repair) spans the map's shards; [`DepGraph`] itself keeps that
//! mirror over a single shard that owns everything, and
//! [`crate::dist::DistTracker`] over its workers' membership. With one
//! shard the bounds are global and the behavior (and cost) is exactly the
//! unsharded algorithm by construction — which is what the `shard/*`
//! benches compare against.
//!
//! # Boundary-edge protocol (why exactness holds)
//!
//! Derived edges are stored symmetrically: an edge `{a, b}` appears in
//! both endpoints' adjacency lists, whichever shards own them, and both
//! copies are repaired by whichever endpoint relinks. Exactness rests on
//! three invariants:
//!
//! 1. **Ownership is total and current**: every agent belongs to exactly
//!    one shard, decided by [`ShardMap::shard_of`] on its *committed*
//!    position; an advance or rollback migrates ownership (index + step
//!    bounds) *before* relinking, so a query never misses an agent
//!    because it is mid-migration.
//! 2. **Pruning is conservative**: shard `j` is skipped only when
//!    [`ShardMap::min_distance`] (a *lower bound* on the distance from
//!    the query position to any position `j` can own) exceeds the
//!    pair-gap radius `blocking_units(gap_j)` (an *upper bound*, from the
//!    shard's step extremes, on any `a`–`b` rule radius with `b ∈ j`).
//!    A lower bound above an upper bound proves no rule edge can exist,
//!    so nothing exact is lost.
//! 3. **Candidates are re-checked**: every candidate an index returns
//!    goes through the exact [`Space::within_units`] rule predicates —
//!    sharding changes which index answers the candidate query, never
//!    the decision.
//!
//! Together 1–3 give: the sharded adjacency equals the single-shard
//! adjacency equals the pairwise §3.2 rules — pinned down by the
//! `prop_shard` property tests, which drive both trackers through random
//! advance/rollback/evict/migration churn (including agents crossing
//! shard boundaries mid-cluster) and compare edge-for-edge, and by the
//! brute-force oracle of `prop_depgraph`.
//!
//! # Parallel relink
//!
//! Because relink candidate generation is read-only (node table, shard
//! indexes, step bounds), large batches — cluster commits, recovery
//! rebuilds — compute their edge sets in parallel, one task per
//! contiguous chunk of the batch, and apply the mutations serially —
//! the mirror's relink, so a [`crate::dist::DistTracker`] takes the same
//! path. On single-core machines (or with one shard) it stays serial;
//! the speedups quoted in `BENCH_shard.json` on such machines come from
//! the step-bound pruning alone.
//!
//! The authoritative node records in the store are **identical** to the
//! unsharded layout (`dagt ‖ agent`), written by the same store core, so
//! snapshots interoperate: shard
//! membership is derived state, serialized as per-shard sections by
//! [`crate::checkpoint::snapshot_sharded_run`] and checked against the
//! map's geometry on recovery.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{DepGraph, DepTracker, EdgeMode, GraphOptions};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::space::{Point, Space};
use crate::telemetry::Telemetry;

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

/// The sharded dependency tracker (see the [module docs](self)): a
/// [`DepGraph`] over the shards of a [`ShardMap`], always maintaining its
/// edges. It dereferences to that graph for everything sharding does not
/// name — queries, commits, history, snapshots — and adds the
/// constructors and shard introspection.
#[derive(Debug)]
pub struct ShardedDepGraph<S: Space>(DepGraph<S>);

impl<S: Space> Deref for ShardedDepGraph<S> {
    type Target = DepGraph<S>;

    fn deref(&self) -> &DepGraph<S> {
        &self.0
    }
}

impl<S: Space> DerefMut for ShardedDepGraph<S> {
    fn deref_mut(&mut self) -> &mut DepGraph<S> {
        &mut self.0
    }
}

/// `options` with edges maintained: the sharded trackers ignore the
/// `edges` field, the partitioned adjacency being their entire point.
fn maintained(options: GraphOptions) -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        ..options
    }
}

/// The owning shard per agent that per-shard member lists (a sharded
/// checkpoint's `shard/<i>` sections, a distributed run's worker lists)
/// describe.
///
/// # Errors
///
/// [`StoreError::Codec`] unless the lists name each of `num_agents`
/// agents exactly once.
pub(crate) fn owners_of(members: &[Vec<u32>], num_agents: usize) -> Result<Vec<u32>, StoreError> {
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
    match owner.iter().position(|&o| o == u32::MAX) {
        Some(a) => Err(StoreError::Codec(format!("agent {a} owned by no shard"))),
        None => Ok(owner),
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
        DepGraph::partitioned(space, params, db, initial, map, maintained(options)).map(Self)
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
        let options = maintained(options);
        DepGraph::recover_partitioned(space, params, db, num_agents, map, options).map(Self)
    }

    /// [`ShardedDepGraph::recover`] given per-shard member lists (as
    /// serialized in a sharded checkpoint's `shard/<i>` sections), which
    /// must agree with the ownership the shard map derives from the
    /// recorded positions (a mismatch — e.g. resuming under a different
    /// [`ShardMap`] than the snapshot was written with — is a codec
    /// error, not silent pruning unsoundness).
    ///
    /// # Errors
    ///
    /// As [`ShardedDepGraph::recover`], plus [`StoreError::Codec`] if the
    /// member lists do not cover every agent exactly once, name a shard
    /// out of range, or disagree with the map.
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
        let owner = owners_of(members, num_agents)?;
        let graph = Self::recover(space, params, db, num_agents, map, options)?;
        graph.mirror.partition().check_owners(&owner)?;
        Ok(graph)
    }
}

impl<S: Space> DepTracker<S> for ShardedDepGraph<S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn step(&self, a: AgentId) -> Step {
        self.0.step(a)
    }

    fn pos(&self, a: AgentId) -> S::Pos {
        self.0.pos(a)
    }

    fn min_step(&self) -> Step {
        self.0.min_step()
    }

    fn max_step(&self) -> Step {
        self.0.max_step()
    }

    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        self.0.advance(updates)
    }

    fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        self.0.rollback(updates)
    }

    fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        self.0.candidates_within(center, units, out)
    }

    fn blockers_within(&self, a: AgentId, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        self.0.blockers_within(a, center, units, out)
    }

    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.0.first_blocker(a)
    }

    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.0.coupled_of(a)
    }

    fn evict_history(&mut self) -> Result<u64, StoreError> {
        self.0.evict_history()
    }

    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }

    /// Records every migration pass and relink batch on the
    /// advance/rollback path as a span (with agent and shard-crossing
    /// counts attached), plus the matching counters.
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.0.repairs = Some(telemetry);
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
        let map = StripShardMap::new(100, 4);
        for (center, units) in [(Point::new(24, 70), 3), (Point::new(50, 10), 30)] {
            let mut got = Vec::new();
            g.candidates_within(center, units, &mut got);
            for (a, &(x, y)) in points.iter().enumerate() {
                if g.space().within_units(Point::new(x, y), center, units) {
                    assert!(got.contains(&(a as u32)), "agent {a} missed");
                }
            }
            // Strips `min_distance` rules out are not asked at all.
            let far = |a: &u32| map.min_distance(center, g.shard_of_agent(AgentId(*a))) > units;
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
