//! Spaces: where agents live and how distance is measured.
//!
//! The dependency rules of §3.2 only consume distances, so the engine is
//! generic over a [`Space`]. The paper's evaluation world is a 2-D grid
//! ([`GridSpace`]); §6 points out the same rules apply to non-Euclidean
//! settings such as social networks, which [`SocialSpace`] demonstrates
//! (distance = hops in a relationship graph).
//!
//! # Spatial indexing
//!
//! Dependency tracking asks one neighborhood question constantly: "which
//! tracked agents are within `units` of this position?"
//! ([`SpatialIndex::query`], driving incremental edge maintenance in
//! [`crate::depgraph`], cluster growth in the scheduler, and the race,
//! observation and rollback-floor checks of [`crate::spec`]). For
//! [`GridSpace`] it is served by a uniform grid, so any two points within
//! `units` land in the same or adjacent cells and only a small cell
//! neighborhood is examined — O(1) per query for bounded-density crowds
//! instead of a scan of the population. The [`UniformGrid`] is asked for radii that grow
//! with the step gap and keeps three resolutions so that every one of them
//! is a 9–25 cell question. Candidate filtering always goes through
//! [`Space::within_units`], which is **exact** (integer / 128-bit
//! arithmetic, no floating point), so indexing changes *cost*, never a
//! scheduling decision.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use aim_store::{codec, StoreError};

/// A position on a 2-D integer grid.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Point {
    /// Column (grows east).
    pub x: i32,
    /// Row (grows south).
    pub y: i32,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance, saturating at `u64::MAX`.
    ///
    /// Coordinate *differences* are taken in 64-bit arithmetic, so the
    /// full `i32` range is safe (no subtraction overflow); only the final
    /// square can exceed `u64` for spans beyond ±2³² and saturates. Exact
    /// threshold comparisons should use [`Point::dist2_u128`].
    pub fn dist2(self, other: Point) -> u64 {
        u64::try_from(self.dist2_u128(other)).unwrap_or(u64::MAX)
    }

    /// Squared Euclidean distance in 128-bit arithmetic — exact for every
    /// pair of `i32` points (the maximum is `2 · (2³² − 1)² < 2¹²⁸`).
    pub fn dist2_u128(self, other: Point) -> u128 {
        let dx = (self.x as i64 - other.x as i64).unsigned_abs() as u128;
        let dy = (self.y as i64 - other.y as i64).unsigned_abs() as u128;
        dx * dx + dy * dy
    }

    /// Euclidean distance.
    pub fn dist(self, other: Point) -> f64 {
        (self.dist2(other) as f64).sqrt()
    }

    /// Manhattan (L1) distance, used by the A* heuristic.
    pub fn manhattan(self, other: Point) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A metric space the dependency rules can reason about.
///
/// The engine compares distances against integer *rule thresholds* of the
/// form `radius_p + k·max_vel` (§3.2), delivered here as `units`.
/// Implementations should make [`Space::within_units`] exact — the grid
/// space compares squared integers so no floating-point edge cases can flip
/// a scheduling decision.
///
/// Positions are encoded into the dependency-graph database, hence the
/// codec methods.
pub trait Space: Send + Sync + 'static {
    /// An agent position.
    type Pos: Copy + fmt::Debug + Send + Sync + PartialEq + 'static;

    /// Distance between two positions (diagnostics and reporting).
    fn dist(&self, a: Self::Pos, b: Self::Pos) -> f64;

    /// Is `dist(a, b) <= units`? Must be exact.
    fn within_units(&self, a: Self::Pos, b: Self::Pos, units: u64) -> bool;

    /// Serializes a position for the dependency-graph store.
    fn encode_pos(&self, pos: Self::Pos, buf: &mut BytesMut);

    /// Deserializes a position written by [`Space::encode_pos`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] on malformed input.
    fn decode_pos(&self, buf: &mut Bytes) -> Result<Self::Pos, StoreError>;

    /// Builds a dynamic neighborhood index over this space with query
    /// granularity `cell_units` (typically the coupling radius), or `None`
    /// if the space has no better answer than scanning every tracked
    /// point. [`crate::depgraph::DepGraph`] uses this to maintain edges
    /// incrementally; correctness never depends on an index existing.
    fn make_index(&self, cell_units: u64) -> Option<Box<dyn SpatialIndex<Self::Pos>>> {
        let _ = cell_units;
        None
    }
}

/// The 2-D integer grid with Euclidean distance — SmallVille's space
/// (a 100×140 grid in the paper, §4.2).
///
/// # Example
///
/// ```
/// use aim_core::space::{GridSpace, Point, Space};
///
/// let g = GridSpace::new(100, 140);
/// let a = Point::new(0, 0);
/// let b = Point::new(3, 4);
/// assert_eq!(g.dist(a, b), 5.0);
/// assert!(g.within_units(a, b, 5));
/// assert!(!g.within_units(a, b, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpace {
    width: u32,
    height: u32,
}

impl GridSpace {
    /// Creates a grid of `width × height` cells.
    ///
    /// The bounds are advisory (used by world generators and validation);
    /// distance math works for any coordinates.
    pub fn new(width: u32, height: u32) -> Self {
        GridSpace { width, height }
    }

    /// Grid width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether `p` lies inside the grid bounds.
    pub fn in_bounds(&self, p: Point) -> bool {
        p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width && (p.y as u32) < self.height
    }
}

impl Space for GridSpace {
    type Pos = Point;

    fn dist(&self, a: Point, b: Point) -> f64 {
        a.dist(b)
    }

    fn within_units(&self, a: Point, b: Point, units: u64) -> bool {
        // Exact: compare squared integers in 128 bits, so neither extreme
        // coordinates nor huge thresholds can overflow and flip a
        // scheduling decision.
        a.dist2_u128(b) <= (units as u128) * (units as u128)
    }

    fn encode_pos(&self, pos: Point, buf: &mut BytesMut) {
        codec::put_i32(buf, pos.x);
        codec::put_i32(buf, pos.y);
    }

    fn decode_pos(&self, buf: &mut Bytes) -> Result<Point, StoreError> {
        Ok(Point::new(codec::get_i32(buf)?, codec::get_i32(buf)?))
    }

    fn make_index(&self, cell_units: u64) -> Option<Box<dyn SpatialIndex<Point>>> {
        Some(Box::new(UniformGrid::new(cell_units)))
    }
}

/// Cell-coordinate math of the [`UniformGrid`]: positions are bucketed by
/// `div_euclid(cell)` and the two cell coordinates are packed into one
/// `u64` key.
mod cells {
    use super::Point;

    /// Cell coordinates derived from `i32` positions always fit
    /// `[-2³¹, 2³¹-1]`; packing offsets them into `u32` range.
    pub(super) const COORD_MIN: i64 = -(1 << 31);
    pub(super) const COORD_MAX: i64 = (1 << 31) - 1;
    const OFFSET: i64 = 1 << 31;

    /// Radii at or beyond 2³¹ cover the whole plane; indexes fall back to
    /// exhaustive scans there rather than reasoning about cells.
    pub(super) const MAX_UNITS: u64 = 1 << 31;

    pub(super) fn pack(cx: i64, cy: i64) -> u64 {
        debug_assert!((COORD_MIN..=COORD_MAX).contains(&cx));
        debug_assert!((COORD_MIN..=COORD_MAX).contains(&cy));
        (((cx + OFFSET) as u64) << 32) | ((cy + OFFSET) as u64)
    }

    pub(super) fn coords_of(p: Point, cell: i64) -> (i64, i64) {
        ((p.x as i64).div_euclid(cell), (p.y as i64).div_euclid(cell))
    }

    pub(super) fn key_of(p: Point, cell: i64) -> u64 {
        let (cx, cy) = coords_of(p, cell);
        pack(cx, cy)
    }
}

/// A dynamic neighborhood index over tracked points, obtained from
/// [`Space::make_index`].
///
/// Implementations answer [`SpatialIndex::query`] with a **superset** of
/// the tracked ids within `units` of the center (they may over-approximate
/// by whole cells, never under-approximate); callers re-check candidates
/// with the exact dependency rules. This split keeps the index free to
/// trade precision for speed while [`Space::within_units`] alone decides
/// scheduling.
///
/// # Duplicate ids
///
/// An index is a *multiset* of `(id, position)` occurrences, not a map:
/// the same id may be inserted at several positions (or several times at
/// one), each `remove` drops exactly one occurrence at the position it
/// names, and a query reports an id once per matching occurrence. The
/// speculative scheduler relies on this — its live-entry index files an
/// agent under the start position of *every* unretired step it ran, so
/// one agent is typically present at up to run-ahead-many places — and
/// callers that need each id once sort and deduplicate the result.
pub trait SpatialIndex<P>: Send + Sync + fmt::Debug {
    /// Starts tracking one occurrence of `id` at `pos`.
    fn insert(&mut self, id: u32, pos: P);

    /// Moves one tracked occurrence of `id` from `old` to `new`.
    fn update(&mut self, id: u32, old: P, new: P);

    /// Stops tracking one occurrence of `id` at `pos` — retirement or
    /// squash of a speculative entry, completion of an in-flight cluster,
    /// and the migration half of shard rebalancing ([`crate::shard`]): an
    /// agent crossing a shard boundary is removed from its old shard's
    /// index and inserted into the new one's.
    fn remove(&mut self, id: u32, pos: P);

    /// Appends to `out` every tracked id within `units` of `center`
    /// (plus, possibly, nearby extras — see the trait docs), in no
    /// particular order and once per occurrence. `out` is not cleared;
    /// the id at `center` itself may or may not be included.
    fn query(&self, center: P, units: u64, out: &mut Vec<u32>);
}

/// Candidates within `units` of `center` from an *optional* index: the
/// index's answer, or — for spaces without one ([`SocialSpace`]) — every
/// id in `0..population`. The one no-index fallback shared by everything
/// that asks "who might be near this position": callers re-check each
/// candidate exactly, so the fallback is the linear reference the indexed
/// path must agree with.
pub(crate) fn query_or_all<P>(
    index: Option<&dyn SpatialIndex<P>>,
    population: usize,
    center: P,
    units: u64,
    out: &mut Vec<u32>,
) {
    match index {
        Some(idx) => idx.query(center, units, out),
        None => out.extend(0..population as u32),
    }
}

/// FxHash-style mixer for the `u64` cell keys of [`UniformGrid`] and the
/// crate's id-keyed maps ([`IdMap`]): one multiply by a 64-bit
/// golden-ratio constant plus a finishing xor-shift, ~5 ns per lookup
/// versus ~25 ns for the default SipHash.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellKeyHasher(u64);

impl Hasher for CellKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type CellMap = IdMap<u64, Vec<u32>>;

/// A hash map keyed by small integer ids (agent, cluster, request and
/// instance ids, cell keys) through [`CellKeyHasher`]. Its iteration order
/// is arbitrary like any `HashMap`'s: callers never iterate one unsorted
/// where the order could reach a schedule.
pub(crate) type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<CellKeyHasher>>;

/// Resolution levels of a [`UniformGrid`]; each is [`LEVEL_SCALE`] times
/// coarser than the one before.
const LEVELS: usize = 3;
const LEVEL_SCALE: i64 = 4;

/// A query is answered from the finest level that covers its radius
/// within this many rings of cells around the center cell (≤ 5 × 5
/// probes).
const MAX_RINGS: i64 = 2;

/// One resolution of a [`UniformGrid`]: square cells of side `cell` in a
/// hash map keyed by packed cell coordinates.
#[derive(Debug)]
struct GridLevel {
    cell: i64,
    buckets: CellMap,
}

/// The dynamic uniform-grid index behind [`GridSpace::make_index`]: the
/// same occurrences bucketed at three resolutions — cells of `c`, `4c`
/// and `16c` for a grid built for radius-`c` queries — so that a grid
/// stays a grid when the radius grows.
///
/// The rule radii are not constant: the blocking radius widens with the
/// step gap, so under speculation's step skew a relink, or a retirement
/// clearance's look-up of entry holders' rollback floors, asks for 20–90
/// units from a grid of 5-unit cells. One level
/// would walk hundreds of cells (or give up and enumerate the
/// population); here a query picks the **finest level whose ring is at
/// most two cells**, i.e. 9–25 probes for any radius up to `32c`, and
/// only past that (or when the population is smaller than the probe
/// count) enumerates every tracked id.
///
/// Costs: `insert`/`remove` touch one bucket per level; `update` walks
/// the levels finest-first and **stops at the first whose cell did not
/// change** — coarse cells are unions of fine ones, so nothing above it
/// changed either, and the common one-unit move touches no bucket at
/// all. A bucket emptied by a move is parked and handed to the next cell
/// that fills, so steady-state maintenance does not allocate. Ids may
/// repeat (see [`SpatialIndex`]).
#[derive(Debug)]
pub struct UniformGrid {
    /// Finest first.
    levels: [GridLevel; LEVELS],
    /// Emptied buckets awaiting reuse (capacity kept).
    spare: Vec<Vec<u32>>,
    len: usize,
}

impl UniformGrid {
    /// Creates an empty index with cells sized for radius-`cell_units`
    /// queries (clamped to the packable range).
    pub fn new(cell_units: u64) -> Self {
        let mut cell = cell_units.clamp(1, cells::MAX_UNITS - 1) as i64;
        let levels = std::array::from_fn(|_| {
            let level = GridLevel {
                cell,
                buckets: CellMap::default(),
            };
            cell *= LEVEL_SCALE;
            level
        });
        UniformGrid {
            levels,
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Number of tracked occurrences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index tracks no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl GridLevel {
    /// Files one occurrence of `id` in the cell bucket `key`, reusing a
    /// parked bucket when the cell is new.
    fn add(&mut self, spare: &mut Vec<Vec<u32>>, id: u32, key: u64) {
        self.buckets
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(id);
    }

    /// Drops one occurrence of `id` from the cell bucket `key` (panicking
    /// if it was never indexed there — that would mean the caller's
    /// position bookkeeping and the index disagree) and parks the bucket
    /// if that emptied it.
    fn remove(&mut self, spare: &mut Vec<Vec<u32>>, id: u32, pos: Point, key: u64) {
        let bucket = self
            .buckets
            .get_mut(&key)
            .unwrap_or_else(|| panic!("id {id} not indexed at {pos:?}"));
        let at = bucket
            .iter()
            .position(|&x| x == id)
            .unwrap_or_else(|| panic!("id {id} not indexed at {pos:?}"));
        bucket.swap_remove(at);
        if bucket.is_empty() {
            spare.extend(self.buckets.remove(&key));
        }
    }
}

impl SpatialIndex<Point> for UniformGrid {
    fn insert(&mut self, id: u32, pos: Point) {
        for level in &mut self.levels {
            level.add(&mut self.spare, id, cells::key_of(pos, level.cell));
        }
        self.len += 1;
    }

    fn update(&mut self, id: u32, old: Point, new: Point) {
        for level in &mut self.levels {
            let from = cells::key_of(old, level.cell);
            let to = cells::key_of(new, level.cell);
            if from == to {
                // Cells nest: every coarser cell is unchanged too.
                return;
            }
            level.remove(&mut self.spare, id, old, from);
            level.add(&mut self.spare, id, to);
        }
    }

    fn remove(&mut self, id: u32, pos: Point) {
        for level in &mut self.levels {
            level.remove(&mut self.spare, id, pos, cells::key_of(pos, level.cell));
        }
        self.len -= 1;
    }

    fn query(&self, center: Point, units: u64, out: &mut Vec<u32>) {
        let coarsest = &self.levels[LEVELS - 1];
        let rings_at = |level: &GridLevel| {
            if units >= cells::MAX_UNITS {
                i64::MAX
            } else {
                (units as i64 + level.cell - 1) / level.cell
            }
        };
        let level = self
            .levels
            .iter()
            .find(|level| rings_at(level) <= MAX_RINGS)
            .unwrap_or(coarsest);
        let rings = rings_at(level);
        let side = rings.saturating_mul(2).saturating_add(1);
        if side.saturating_mul(side) as u128 >= self.len as u128 {
            // Probing every cell in the ring would cost more than just
            // enumerating the population (from the level with the fewest
            // buckets).
            for bucket in coarsest.buckets.values() {
                out.extend_from_slice(bucket);
            }
            return;
        }
        let (cx, cy) = cells::coords_of(center, level.cell);
        for dx in -rings..=rings {
            let x = cx + dx;
            if !(cells::COORD_MIN..=cells::COORD_MAX).contains(&x) {
                continue;
            }
            for dy in -rings..=rings {
                let y = cy + dy;
                if !(cells::COORD_MIN..=cells::COORD_MAX).contains(&y) {
                    continue;
                }
                if let Some(bucket) = level.buckets.get(&cells::pack(x, y)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }
}

/// A node in a [`SocialSpace`] graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A non-Euclidean space where distance is the hop count in an undirected
/// graph — the "social network" generalization sketched in paper §6.
///
/// Agents "perceive" their graph neighborhood (e.g. posts by friends) and
/// "move" by hopping along edges, so `radius_p` and `max_vel` translate
/// directly to hop counts. All-pairs shortest paths are precomputed at
/// construction (BFS per node, `O(V·(V+E))`), which is fine for the
/// community-graph sizes this is meant for; unreachable pairs are at
/// infinite distance and never couple or block.
///
/// # Example
///
/// ```
/// use aim_core::space::{NodeId, SocialSpace, Space};
///
/// // 0 - 1 - 2 - 3 (a path), 4 isolated
/// let s = SocialSpace::new(5, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(s.dist(NodeId(0), NodeId(3)), 3.0);
/// assert!(s.within_units(NodeId(0), NodeId(2), 2));
/// assert!(!s.within_units(NodeId(0), NodeId(4), 100)); // unreachable
/// ```
#[derive(Debug, Clone)]
pub struct SocialSpace {
    n: usize,
    /// Row-major hop distances; `u16::MAX` encodes "unreachable".
    dist: Vec<u16>,
    adjacency: Vec<Vec<u32>>,
}

const UNREACHABLE: u16 = u16::MAX;

impl SocialSpace {
    /// Builds the space from an undirected edge list over nodes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or `n` exceeds `u16`
    /// addressable distance bookkeeping (65k nodes).
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(n < u16::MAX as usize, "SocialSpace supports < 65535 nodes");
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            if a != b {
                adjacency[a as usize].push(b);
                adjacency[b as usize].push(a);
            }
        }
        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..n {
            let row = src * n;
            dist[row + src] = 0;
            queue.clear();
            queue.push_back(src as u32);
            while let Some(u) = queue.pop_front() {
                let du = dist[row + u as usize];
                for &v in &adjacency[u as usize] {
                    if dist[row + v as usize] == UNREACHABLE {
                        dist[row + v as usize] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        SocialSpace { n, dist, adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direct neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        &self.adjacency[node.0 as usize]
    }

    /// Hop distance, `None` when unreachable.
    pub fn hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let d = self.dist[a.0 as usize * self.n + b.0 as usize];
        (d != UNREACHABLE).then_some(d as u32)
    }
}

impl Space for SocialSpace {
    type Pos = NodeId;

    fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        match self.hops(a, b) {
            Some(d) => d as f64,
            None => f64::INFINITY,
        }
    }

    fn within_units(&self, a: NodeId, b: NodeId, units: u64) -> bool {
        match self.hops(a, b) {
            Some(d) => d as u64 <= units,
            None => false,
        }
    }

    fn encode_pos(&self, pos: NodeId, buf: &mut BytesMut) {
        codec::put_u32(buf, pos.0);
    }

    fn decode_pos(&self, buf: &mut Bytes) -> Result<NodeId, StoreError> {
        Ok(NodeId(codec::get_u32(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(1, 2);
        let b = Point::new(4, 6);
        assert_eq!(a.dist2(b), 25);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.manhattan(b), 7);
    }

    #[test]
    fn grid_within_is_exact_at_boundary() {
        let g = GridSpace::new(10, 10);
        // 3-4-5 triangle: distance exactly 5.
        assert!(g.within_units(Point::new(0, 0), Point::new(3, 4), 5));
        assert!(!g.within_units(Point::new(0, 0), Point::new(3, 4), 4));
        // Large coordinates must not overflow.
        assert!(!g.within_units(Point::new(-100_000, 0), Point::new(100_000, 0), 1000));
    }

    #[test]
    fn grid_bounds() {
        let g = GridSpace::new(100, 140);
        assert!(g.in_bounds(Point::new(0, 0)));
        assert!(g.in_bounds(Point::new(99, 139)));
        assert!(!g.in_bounds(Point::new(100, 0)));
        assert!(!g.in_bounds(Point::new(-1, 0)));
    }

    #[test]
    fn grid_pos_codec_roundtrip() {
        let g = GridSpace::new(10, 10);
        let mut buf = BytesMut::new();
        g.encode_pos(Point::new(-7, 42), &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(g.decode_pos(&mut rd).unwrap(), Point::new(-7, 42));
    }

    #[test]
    fn within_units_exact_at_extremes() {
        let g = GridSpace::new(10, 10);
        let a = Point::new(i32::MIN, 0);
        let b = Point::new(i32::MAX, 0);
        // dist = 2^32 - 1 exactly.
        assert!(g.within_units(a, b, u64::MAX));
        assert!(g.within_units(a, b, (1 << 32) - 1));
        assert!(!g.within_units(a, b, (1 << 32) - 2));
        assert_eq!(a.dist2_u128(b), ((1u128 << 32) - 1) * ((1u128 << 32) - 1));
        // dist2 saturates only once the square exceeds u64 (diagonal span).
        let c = Point::new(i32::MIN, i32::MIN);
        let d = Point::new(i32::MAX, i32::MAX);
        assert_eq!(c.dist2(d), u64::MAX);
        assert!(c.dist2_u128(d) > u64::MAX as u128);
    }

    #[test]
    fn uniform_grid_tracks_moves() {
        let g = GridSpace::new(100, 100);
        let mut idx = g.make_index(5).expect("grid space is indexable");
        idx.insert(0, Point::new(0, 0));
        idx.insert(1, Point::new(3, 0));
        idx.insert(2, Point::new(90, 90));
        // Enough far-away population that a tight query prefers cell
        // lookups over the enumerate-everything fallback.
        for i in 3..40u32 {
            idx.insert(i, Point::new(500 + i as i32 * 10, 500));
        }
        let mut out = Vec::new();
        idx.query(Point::new(1, 1), 5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1], "far id must not appear in a tight query");
        idx.update(2, Point::new(90, 90), Point::new(2, 2));
        out.clear();
        idx.query(Point::new(1, 1), 5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
        // Huge radius: falls back to enumerating everything, still a superset.
        out.clear();
        idx.query(Point::new(1, 1), u64::MAX, &mut out);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn uniform_grid_remove_untracks() {
        let g = GridSpace::new(100, 100);
        let mut idx = g.make_index(5).expect("grid space is indexable");
        for i in 0..20u32 {
            idx.insert(i, Point::new(i as i32 * 3, 0));
        }
        idx.remove(7, Point::new(21, 0));
        let mut out = Vec::new();
        idx.query(Point::new(21, 0), u64::MAX, &mut out);
        assert_eq!(out.len(), 19);
        assert!(!out.contains(&7), "removed id must not be reported");
        // Removing the last occupant of a cell leaves the bucket clean.
        idx.remove(0, Point::new(0, 0));
        out.clear();
        idx.query(Point::new(0, 0), 2, &mut out);
        assert!(!out.contains(&0));
    }

    #[test]
    fn uniform_grid_keeps_duplicate_ids_apart() {
        let mut idx = UniformGrid::new(5);
        for i in 1..40u32 {
            idx.insert(i, Point::new(1000 + i as i32 * 10, 1000));
        }
        // Id 0 three times: twice in one spot, once 20 units away.
        idx.insert(0, Point::new(2, 2));
        idx.insert(0, Point::new(2, 2));
        idx.insert(0, Point::new(22, 2));
        assert_eq!(idx.len(), 42);
        let hits = |idx: &UniformGrid, x: i32| {
            let mut out = Vec::new();
            idx.query(Point::new(x, 2), 3, &mut out);
            out.iter().filter(|&&i| i == 0).count()
        };
        assert_eq!((hits(&idx, 2), hits(&idx, 22)), (2, 1));
        idx.remove(0, Point::new(2, 2));
        assert_eq!((hits(&idx, 2), hits(&idx, 22)), (1, 1));
        // A hop inside the 20-unit cell [20, 40) across three 5-unit ones.
        idx.update(0, Point::new(22, 2), Point::new(38, 2));
        assert_eq!((hits(&idx, 22), hits(&idx, 38)), (0, 1));
        idx.remove(0, Point::new(38, 2));
        idx.remove(0, Point::new(2, 2));
        assert_eq!((hits(&idx, 2), hits(&idx, 38)), (0, 0));
        assert_eq!(idx.len(), 39);
    }

    #[test]
    fn skew_sized_query_stays_local() {
        // 250 points over a ten-ville map, and the radius a relink asks
        // for at a step gap of 35: far past the 5-unit cells the grid was
        // built for, and still a neighbourhood, not the population.
        let mut idx = UniformGrid::new(5);
        let mut state = 42u64;
        let mut next = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % modulus) as i32
        };
        let pts: Vec<Point> = (0..250).map(|_| Point::new(next(500), next(280))).collect();
        for (i, p) in pts.iter().enumerate() {
            idx.insert(i as u32, *p);
        }
        let g = GridSpace::new(500, 280);
        for center in [Point::new(250, 140), Point::new(3, 3), Point::new(480, 100)] {
            let mut out = Vec::new();
            idx.query(center, 40, &mut out);
            assert!(
                out.len() < 250 / 4,
                "{} candidates around {center}",
                out.len()
            );
            for (i, p) in pts.iter().enumerate() {
                assert!(!g.within_units(center, *p, 40) || out.contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn social_space_has_no_index() {
        let s = SocialSpace::new(2, &[(0, 1)]);
        assert!(s.make_index(5).is_none());
    }

    #[test]
    fn social_space_hops_and_reachability() {
        let s = SocialSpace::new(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        assert_eq!(s.hops(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(s.hops(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(s.hops(NodeId(0), NodeId(4)), None);
        assert_eq!(s.dist(NodeId(0), NodeId(4)), f64::INFINITY);
        assert!(!s.within_units(NodeId(0), NodeId(4), u64::MAX));
        assert_eq!(s.neighbors(NodeId(1)), &[0, 2]);
    }

    #[test]
    fn social_pos_codec_roundtrip() {
        let s = SocialSpace::new(3, &[(0, 1)]);
        let mut buf = BytesMut::new();
        s.encode_pos(NodeId(2), &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(s.decode_pos(&mut rd).unwrap(), NodeId(2));
    }

    #[test]
    fn self_loops_and_duplicate_edges_tolerated() {
        let s = SocialSpace::new(3, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(s.hops(NodeId(0), NodeId(1)), Some(1));
    }
}
