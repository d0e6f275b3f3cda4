//! A* pathfinding over walkable tiles (4-connected, Manhattan heuristic).
//!
//! # Tie-break contract
//!
//! Many shortest paths usually exist, and which one an agent walks
//! decides whom it passes — so the choice is part of the world's
//! observable behaviour and every recorded trace depends on it. The
//! search is therefore pinned, not merely "some shortest path":
//!
//! * the open set pops the least `(f, g, x, y)` — `f = g + manhattan`,
//!   ties to the shallower node, then the smaller `x`, then the smaller
//!   `y` ([`Point`]'s derived order);
//! * a popped tile relaxes its neighbours in the order east, west,
//!   south, north;
//! * a neighbour's parent is replaced only on a **strict** improvement
//!   of `g`, so the first parent to reach a tile at its final cost keeps
//!   it.
//!
//! No key is ever queued twice (a tile is queued once per strict
//! improvement), so the pop sequence is a function of that order alone
//! and not of the queue that realises it.
//! `crates/world/tests/golden_world.rs` pins whole world runs on it and
//! a property test compares every path against the routine this module
//! replaced — a binary heap over two map-sized tables — kept below as a
//! test-only oracle.
//!
//! # Cost model, and why nothing is cached
//!
//! A query costs what it explores. The working memory lives in a
//! [`Scratch`] that the caller keeps across queries: a table of `g` and
//! parent direction held in page-sized blocks that a search claims as
//! it first touches them (a generation stamp per block, so starting a
//! query clears nothing), and the open set's buckets. Both grow to the
//! widest search served, not to the map. That is the whole
//! optimisation, because of what the world actually asks for: setting
//! up the 1000-agent busy hour issues 1,841 queries (≈ 1.8 per agent),
//! each to a per-agent seat, each exploring ≈ 3,100 tiles inside one
//! 100×140 ville of a 4000×140 map. Filling two map-sized tables per
//! query cost several times the search, and a table kept at map size
//! would sit in the world's peak memory for as long as the world lives;
//! a per-destination distance field or a path cache would never be hit
//! twice.
//!
//! [`astar`] and [`path_len`] are the one-off forms: same routine, a
//! scratch of their own per call.

use aim_core::space::Point;

use crate::grid::TileMap;

/// Relaxation order (E, W, S, N); a tile's stored parent direction is an
/// index into this.
const DIRS: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// The table is kept in square blocks of `BLOCK × BLOCK` tiles — 4 KiB
/// of entries, one page — claimed as a search first touches them.
const BLOCK_BITS: u32 = 5;
const BLOCK: usize = 1 << BLOCK_BITS;
const BLOCK_TILES: usize = BLOCK * BLOCK;

/// Entry of a tile the current search has not reached.
const UNSEEN: u32 = u32::MAX;

/// Path costs are stored in 30 bits beside a 2-bit parent direction,
/// and every cost must stay below `UNSEEN >> 2`.
const MAX_TILES: usize = (1 << 30) - 1;

/// Reusable A* working memory (see the module docs); starts empty
/// (`Scratch::default()`) and grows as searches need it.
///
/// One scratch serves any number of queries on maps of any size, one at
/// a time. It keeps as many table blocks as the widest-ranging search so
/// far touched — not the map's worth — and the open set's buckets.
#[derive(Debug, Default)]
pub struct Scratch {
    table: Table,
    /// The open set as a monotone bucket queue: `open[level][g]` holds
    /// the queued tiles of cost `g` on the `f` level being popped and on
    /// the next one (`level` alternates), each tile packed `x << 32 | y`
    /// so that sorting a bucket orders it by `(x, y)`.
    open: [Vec<Vec<u64>>; 2],
}

/// Per-tile `g` and parent direction of the search in progress.
#[derive(Debug, Default)]
struct Table {
    /// Per block of the current map, row-major: the stamp of the search
    /// that claimed it and its slot in `pool`. A block whose stamp is
    /// not the current one is unclaimed, whatever map wrote it.
    blocks: Vec<(u32, u32)>,
    blocks_per_row: usize,
    /// `BLOCK_TILES` entries per claimed block, `g << 2 | parent
    /// direction` or [`UNSEEN`]; a block is wiped when claimed.
    pool: Vec<u32>,
    /// Slots of `pool` the current search has claimed.
    claimed: usize,
    /// Stamp of the latest search; `0` never marks a claimed block.
    stamp: u32,
}

impl Table {
    /// Forgets the previous search and sizes the block directory to `map`.
    fn begin(&mut self, map: &TileMap) {
        let tiles = map.width() as usize * map.height() as usize;
        assert!(tiles <= MAX_TILES, "map too large for 30-bit path costs");
        self.blocks_per_row = map.width().div_ceil(BLOCK as u32) as usize;
        let blocks = self.blocks_per_row * map.height().div_ceil(BLOCK as u32) as usize;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: blocks claimed 2³² searches ago would read as ours.
            self.stamp = 1;
            self.blocks.clear();
        }
        if self.blocks.len() < blocks {
            self.blocks.resize(blocks, (0, 0));
        }
        self.claimed = 0;
    }

    /// The entry of in-bounds tile `p`, its block claimed (and wiped) if
    /// this search has not touched it yet.
    fn entry(&mut self, p: Point) -> &mut u32 {
        let (x, y) = (p.x as usize, p.y as usize);
        let block = &mut self.blocks[(y >> BLOCK_BITS) * self.blocks_per_row + (x >> BLOCK_BITS)];
        if block.0 != self.stamp {
            *block = (self.stamp, self.claimed as u32);
            let start = self.claimed * BLOCK_TILES;
            self.claimed += 1;
            if self.pool.len() == start {
                self.pool.resize(start + BLOCK_TILES, UNSEEN);
            } else {
                self.pool[start..start + BLOCK_TILES].fill(UNSEEN);
            }
        }
        let within = ((y % BLOCK) << BLOCK_BITS) | (x % BLOCK);
        &mut self.pool[block.1 as usize * BLOCK_TILES + within]
    }
}

/// Queues `p` at cost `g` on `level`.
fn queue(level: &mut Vec<Vec<u64>>, g: u32, p: Point) {
    if level.len() <= g as usize {
        level.resize_with(g as usize + 1, Vec::new);
    }
    // Only in-bounds tiles are queued, so the coordinates are non-negative.
    level[g as usize].push((p.x as u64) << 32 | p.y as u64);
}

impl Scratch {
    /// A scratch three searches away from stamp wrap-around.
    #[cfg(test)]
    fn near_wrap() -> Self {
        let mut scratch = Self::default();
        scratch.table.stamp = u32::MAX - 2;
        scratch
    }

    /// [`astar`] on this scratch: once it has grown to the searches it
    /// serves, the returned path is the only allocation.
    pub fn astar(&mut self, map: &TileMap, from: Point, to: Point) -> Option<Vec<Point>> {
        let len = self.path_len(map, from, to)? as usize;
        // Walk the parent directions back from `to`, filling from the end.
        let mut path = vec![to; len + 1];
        let mut cur = to;
        for slot in path[..len].iter_mut().rev() {
            let (dx, dy) = DIRS[(*self.table.entry(cur) & 3) as usize];
            cur = Point::new(cur.x - dx, cur.y - dy);
            *slot = cur;
        }
        debug_assert_eq!(cur, from);
        Some(path)
    }

    /// [`path_len`] on this scratch: allocates nothing once it has
    /// grown. Leaves every reached tile's parent direction in the table
    /// (what [`Scratch::astar`] walks back).
    ///
    /// # Panics
    ///
    /// Panics if the map has 2³⁰ tiles or more.
    pub fn path_len(&mut self, map: &TileMap, from: Point, to: Point) -> Option<u32> {
        if !map.is_walkable(from) || !map.is_walkable(to) {
            return None;
        }
        if from == to {
            return Some(0);
        }
        let Scratch { table, open } = self;
        table.begin(map);
        for bucket in open.iter_mut().flatten() {
            bucket.clear();
        }
        *table.entry(from) = 0;
        queue(&mut open[0], 0, from);
        // The least `(f, g, x, y)` without a heap. `f` never decreases
        // along the pop sequence, and a relaxed neighbour is queued one
        // step deeper on its parent's level or on the next (`f + 2`,
        // there being no other on a 4-connected grid). So a level's
        // buckets are final by the time their `g` comes up: popping them
        // in `g` order, each sorted by `(x, y)`, is popping the minimum.
        let mut f = from.manhattan(to);
        let mut cur = 0;
        // No bucket of the current level below this `g` holds anything.
        let mut first = 0;
        loop {
            let mut lowest = None;
            let mut g = first;
            while g < open[cur].len() {
                if !open[cur][g].is_empty() {
                    lowest = lowest.or(Some(g));
                }
                open[cur][g].sort_unstable();
                let cost = g as u32;
                for i in 0..open[cur][g].len() {
                    let tile = open[cur][g][i];
                    let p = Point::new((tile >> 32) as i32, tile as u32 as i32);
                    if p == to {
                        return Some(cost);
                    }
                    if cost > *table.entry(p) >> 2 {
                        continue; // stale: queued again since, at a lower cost
                    }
                    for (dir, (dx, dy)) in DIRS.into_iter().enumerate() {
                        let n = Point::new(p.x + dx, p.y + dy);
                        if !map.is_walkable(n) {
                            continue;
                        }
                        let ncost = cost + 1;
                        let entry = table.entry(n);
                        // `UNSEEN >> 2` exceeds every cost; a seen tile
                        // only takes a strictly smaller one.
                        if ncost < *entry >> 2 {
                            *entry = ncost << 2 | dir as u32;
                            let level = if ncost + n.manhattan(to) == f {
                                cur
                            } else {
                                cur ^ 1
                            };
                            queue(&mut open[level], ncost, n);
                        }
                    }
                }
                open[cur][g].clear();
                g += 1;
            }
            // An empty level queued nothing on the next: unreachable.
            first = lowest? + 1;
            cur ^= 1;
            f += 2;
        }
    }
}

/// Finds a shortest 4-connected walkable path from `from` to `to`
/// (inclusive of both endpoints). Returns `None` when unreachable or when
/// either endpoint is not walkable.
///
/// The returned path starts at `from`; following one element per step obeys
/// the world's `max_vel = 1` movement rule. Which shortest path is
/// returned is fixed by the module's tie-break contract. Callers that
/// query repeatedly keep a [`Scratch`] and use [`Scratch::astar`].
///
/// # Example
///
/// ```
/// use aim_core::space::Point;
/// use aim_world::grid::TileMap;
/// use aim_world::pathfind::astar;
///
/// let map = TileMap::open(10, 10);
/// let path = astar(&map, Point::new(0, 0), Point::new(3, 0)).unwrap();
/// assert_eq!(path.len(), 4); // 0,0 → 1,0 → 2,0 → 3,0
/// ```
pub fn astar(map: &TileMap, from: Point, to: Point) -> Option<Vec<Point>> {
    Scratch::default().astar(map, from, to)
}

/// Shortest walkable distance in steps, if reachable (the length of
/// [`astar`]'s path − 1, without building the path).
pub fn path_len(map: &TileMap, from: Point, to: Point) -> Option<u32> {
    Scratch::default().path_len(map, from, to)
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::grid::AreaKind;

    #[test]
    fn straight_line_is_optimal() {
        let m = TileMap::open(20, 20);
        let p = astar(&m, Point::new(2, 3), Point::new(9, 3)).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(p[0], Point::new(2, 3));
        assert_eq!(p[7], Point::new(9, 3));
        // Consecutive points are 4-adjacent.
        for pair in p.windows(2) {
            assert_eq!(pair[0].manhattan(pair[1]), 1);
        }
    }

    #[test]
    fn routes_around_walls_through_door() {
        let mut m = TileMap::open(30, 30);
        m.add_building("b", AreaKind::Work, Point::new(10, 10), Point::new(20, 20));
        let inside = Point::new(15, 15);
        let outside = Point::new(0, 15);
        let path = astar(&m, outside, inside).unwrap();
        let door = m.areas()[0].door;
        assert!(path.contains(&door), "must enter through the door");
        // And the path length beats the naive manhattan (walls force a detour).
        assert!(path.len() as u32 > outside.manhattan(inside));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut sealed = TileMap::open(9, 9);
        sealed.add_building("box", AreaKind::Work, Point::new(3, 3), Point::new(6, 6));
        // A wall tile itself is not walkable → None.
        assert!(astar(&sealed, Point::new(0, 0), Point::new(3, 3)).is_none());
    }

    #[test]
    fn degenerate_cases() {
        let m = TileMap::open(5, 5);
        assert_eq!(
            astar(&m, Point::new(2, 2), Point::new(2, 2)).unwrap().len(),
            1
        );
        assert!(astar(&m, Point::new(-1, 0), Point::new(2, 2)).is_none());
        assert_eq!(path_len(&m, Point::new(0, 0), Point::new(4, 4)), Some(8));
    }

    #[test]
    fn deterministic_paths() {
        let m = TileMap::smallville(10);
        let a = m.areas()[0].door;
        let b = m.areas_of(AreaKind::Cafe)[0].door;
        assert_eq!(astar(&m, a, b), astar(&m, a, b));
    }

    #[test]
    fn all_smallville_doors_are_mutually_reachable() {
        let m = TileMap::smallville(25);
        let doors: Vec<Point> = m.areas().iter().map(|a| a.door).collect();
        let hub = doors[0];
        for d in &doors {
            assert!(
                path_len(&m, hub, *d).is_some(),
                "door {d} unreachable from {hub}"
            );
        }
    }

    /// The routine this module replaced, verbatim: two map-sized tables
    /// filled per query, parents as tile indexes. The reference every
    /// path is compared against.
    fn oracle_astar(map: &TileMap, from: Point, to: Point) -> Option<Vec<Point>> {
        if !map.is_walkable(from) || !map.is_walkable(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let w = map.width() as usize;
        let h = map.height() as usize;
        let idx = |p: Point| p.y as usize * w + p.x as usize;
        const UNSEEN: u32 = u32::MAX;
        let mut g = vec![UNSEEN; w * h];
        let mut parent = vec![u32::MAX; w * h];
        let mut heap: BinaryHeap<Reverse<(u32, u32, Point)>> = BinaryHeap::new();
        g[idx(from)] = 0;
        heap.push(Reverse((from.manhattan(to), 0, from)));
        while let Some(Reverse((_, cost, p))) = heap.pop() {
            if p == to {
                // Reconstruct.
                let mut path = vec![to];
                let mut cur = idx(to);
                while parent[cur] != u32::MAX {
                    cur = parent[cur] as usize;
                    path.push(Point::new((cur % w) as i32, (cur / w) as i32));
                }
                path.reverse();
                return Some(path);
            }
            if cost > g[idx(p)] {
                continue; // stale heap entry
            }
            // Neighbor order fixed (E, W, S, N) for determinism.
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let n = Point::new(p.x + dx, p.y + dy);
                if !map.is_walkable(n) {
                    continue;
                }
                let ncost = cost + 1;
                if ncost < g[idx(n)] {
                    g[idx(n)] = ncost;
                    parent[idx(n)] = idx(p) as u32;
                    heap.push(Reverse((ncost + n.manhattan(to), ncost, n)));
                }
            }
        }
        None
    }

    #[test]
    fn one_off_wrappers_agree_with_a_kept_scratch() {
        let m = TileMap::smallville(10);
        let a = m.areas()[0].door;
        let b = m.areas_of(AreaKind::Cafe)[0].anchor();
        let mut s = Scratch::default();
        assert_eq!(s.astar(&m, a, b), astar(&m, a, b));
        assert_eq!(s.path_len(&m, b, a), path_len(&m, b, a));
        assert_eq!(
            path_len(&m, a, b),
            astar(&m, a, b).map(|p| p.len() as u32 - 1)
        );
    }

    #[test]
    fn stamp_wrap_around_starts_a_clean_table() {
        let m = TileMap::smallville(10);
        let doors: Vec<Point> = m.areas().iter().map(|a| a.door).collect();
        let mut s = Scratch::near_wrap();
        for pair in doors.windows(2).take(6) {
            assert_eq!(
                s.astar(&m, pair[0], pair[1]),
                oracle_astar(&m, pair[0], pair[1])
            );
        }
        // u32::MAX − 2, +1, +2, wrap → 1, 2, 3, 4.
        assert_eq!(
            s.table.stamp, 4,
            "six searches from MAX − 2 cross zero once"
        );
    }

    use crate::city::{city_map, CityConfig};
    use proptest::prelude::*;

    /// Maps of every shape the world builds, at different sizes so one
    /// scratch sees its table indexed on several widths.
    fn arb_map() -> impl Strategy<Value = TileMap> {
        let rect = (0i32..36, 0i32..36, 2i32..9, 2i32..9);
        prop_oneof![
            (1u32..40, 1u32..40).prop_map(|(w, h)| TileMap::open(w, h)),
            // Overlapping buildings wall regions off: unreachable pairs.
            proptest::collection::vec(rect, 0..12).prop_map(|rects| {
                let mut m = TileMap::open(48, 44);
                for (i, (x, y, dx, dy)) in rects.into_iter().enumerate() {
                    m.add_building(
                        format!("b{i}"),
                        AreaKind::Work,
                        Point::new(x, y),
                        Point::new(x + dx, y + dy),
                    );
                }
                m
            }),
            (0u32..8, 1u32..4).prop_map(|(k, n)| TileMap::smallville(k).concatenated(n)),
            (1u32..4, 1u32..3).prop_map(|(dx, dy)| city_map(&CityConfig {
                districts_x: dx,
                districts_y: dy,
                agents: 0,
                seed: 0,
            })),
        ]
    }

    /// An endpoint on `map`: a door, an interior anchor, or a raw tile
    /// from a frame two tiles wider than the map (walls, out of bounds).
    fn endpoint(map: &TileMap, (sel, x, y): (u8, u32, u32)) -> Point {
        let areas = map.areas();
        match sel % 3 {
            0 if !areas.is_empty() => areas[x as usize % areas.len()].door,
            1 if !areas.is_empty() => areas[y as usize % areas.len()].anchor(),
            _ => Point::new(
                (x % (map.width() + 4)) as i32 - 2,
                (y % (map.height() + 4)) as i32 - 2,
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The stamped routine returns the oracle's path tile for tile —
        /// with one scratch reused across interleaved maps of different
        /// sizes, and with a second one driven through stamp wrap-around.
        #[test]
        fn stamped_scratch_equals_oracle(
            maps in proptest::collection::vec(arb_map(), 1..4),
            queries in proptest::collection::vec(
                (any::<u8>(), (any::<u8>(), any::<u32>(), any::<u32>()),
                 (any::<u8>(), any::<u32>(), any::<u32>())),
                6..24,
            ),
        ) {
            let mut kept = Scratch::default();
            let mut wrapping = Scratch::near_wrap();
            for (which, from, to) in queries {
                let map = &maps[which as usize % maps.len()];
                let (from, to) = (endpoint(map, from), endpoint(map, to));
                let want = oracle_astar(map, from, to);
                prop_assert_eq!(&kept.astar(map, from, to), &want, "{} → {}", from, to);
                prop_assert_eq!(&wrapping.astar(map, from, to), &want, "wrap {} → {}", from, to);
                prop_assert_eq!(
                    kept.path_len(map, to, from),
                    oracle_astar(map, to, from).map(|p| p.len() as u32 - 1)
                );
            }
        }
    }
}
