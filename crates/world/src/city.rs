//! An OpenCity-style **massive-agent city**: the 10k+-agent workload the
//! sharded dependency tracker ([`aim_core::shard`]) exists for.
//!
//! SmallVille scales by concatenating copies of one town east-to-west;
//! a city is built differently — a `districts_x × districts_y` grid of
//! [`DISTRICT`]-tile districts, each with its own housing rows, office,
//! cafe, store, bar, and plaza, separated by arterial roads (the open
//! margins every district leaves at its borders, which tile into a
//! connected street grid). Pathfinding over the streets reuses
//! [`crate::pathfind`]; [`RoadGraph`] condenses the street grid into a
//! district-level transit graph whose edge weights are real
//! [`crate::pathfind::path_len`] distances.
//!
//! The population comes from a seeded **template pool**
//! ([`PersonaTemplate`], [`template_pool`]): a handful of archetypes
//! (commuters, baristas, shopkeepers, students, regulars) instantiated
//! thousands of times with per-agent jitter, the standard trick for
//! generating believable massive-agent populations without authoring
//! 10k personas. Agents are dealt round-robin across districts; homes,
//! jobs, and friendships stay within the home district, so coupling is
//! local — exactly the structure strip sharding exploits.
//!
//! [`generate`] assembles everything into a plain [`Village`] (via
//! [`Village::from_substrate`]), so the whole engine stack — plan/commit
//! protocol, threaded executor, scheduler — drives a city exactly as it
//! drives SmallVille.

use aim_core::shard::StripShardMap;
use aim_core::space::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::grid::{AreaKind, TileMap};
use crate::pathfind;
use crate::persona::Persona;
use crate::village::Village;

/// Side length of one square district, in tiles.
pub const DISTRICT: u32 = 48;

/// Houses laid out per district (two rows of five).
pub const HOUSES_PER_DISTRICT: u32 = 10;

/// Configuration of a generated city.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CityConfig {
    /// Districts along x (the map is `districts_x · DISTRICT` wide).
    pub districts_x: u32,
    /// Districts along y.
    pub districts_y: u32,
    /// Total agents, dealt round-robin across districts.
    pub agents: u32,
    /// Master seed; personas, schedules, and jitter derive from it.
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            districts_x: 8,
            districts_y: 8,
            agents: 10_048,
            seed: 2_025,
        }
    }
}

impl CityConfig {
    /// Number of districts.
    pub fn num_districts(&self) -> u32 {
        self.districts_x * self.districts_y
    }

    /// Map width in tiles.
    pub fn width(&self) -> u32 {
        self.districts_x * DISTRICT
    }

    /// Map height in tiles.
    pub fn height(&self) -> u32 {
        self.districts_y * DISTRICT
    }

    /// The strip shard map matched to this city: one shard per
    /// `shards` equal x-bands of the map — the partition the
    /// 10k-agent experiments mount
    /// [`aim_core::shard::ShardedDepGraph`] on.
    pub fn shard_map(&self, shards: usize) -> StripShardMap {
        StripShardMap::new(self.width(), shards)
    }
}

/// One population archetype of the template pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonaTemplate {
    /// Archetype label (instantiated names are `"{label} {id}"`).
    pub label: &'static str,
    /// Chattiness band `[lo, hi)` sampled per instance.
    pub chattiness: (f32, f32),
    /// Where instances work (nearest area of this kind in the home
    /// district).
    pub job: AreaKind,
    /// Friend-count band `[lo, hi]` sampled per instance.
    pub friends: (u32, u32),
}

/// The seeded archetype pool cities draw personas from.
pub fn template_pool() -> &'static [PersonaTemplate] {
    const POOL: &[PersonaTemplate] = &[
        PersonaTemplate {
            label: "Commuter",
            chattiness: (0.5, 1.0),
            job: AreaKind::Work,
            friends: (2, 4),
        },
        PersonaTemplate {
            label: "Barista",
            chattiness: (1.0, 1.6),
            job: AreaKind::Cafe,
            friends: (3, 5),
        },
        PersonaTemplate {
            label: "Shopkeeper",
            chattiness: (0.8, 1.3),
            job: AreaKind::Store,
            friends: (2, 4),
        },
        PersonaTemplate {
            label: "Student",
            chattiness: (0.9, 1.5),
            job: AreaKind::Work,
            friends: (3, 6),
        },
        PersonaTemplate {
            label: "Regular",
            chattiness: (0.7, 1.4),
            job: AreaKind::Bar,
            friends: (2, 5),
        },
    ];
    POOL
}

/// Generates the city tile map: a grid of districts, each leaving a
/// 2-tile open margin on every side so the margins tile into the
/// arterial road grid.
///
/// Per district (local coordinates within its 48×48 block): two rows of
/// five 7×7 houses in the north, a 10×11 office / 9×8 cafe / 7×7 store
/// / 7×7 bar band in the middle, and an open plaza (the district's
/// park) in the south.
pub fn city_map(cfg: &CityConfig) -> TileMap {
    assert!(
        cfg.districts_x > 0 && cfg.districts_y > 0,
        "city needs at least one district"
    );
    let mut map = TileMap::open(cfg.width(), cfg.height());
    for dy in 0..cfg.districts_y {
        for dx in 0..cfg.districts_x {
            let d = dy * cfg.districts_x + dx;
            let ox = (dx * DISTRICT) as i32;
            let oy = (dy * DISTRICT) as i32;
            let at = |x: i32, y: i32| Point::new(ox + x, oy + y);
            // Housing rows: 5 lots per row at y = 2 and y = 11.
            for row in 0..2u32 {
                for col in 0..5u32 {
                    let x0 = 2 + col as i32 * 9;
                    let y0 = 2 + row as i32 * 9;
                    map.add_building(
                        format!("d{d} house {}", row * 5 + col),
                        AreaKind::House,
                        at(x0, y0),
                        at(x0 + 6, y0 + 6),
                    );
                }
            }
            // Commercial band.
            map.add_building(
                format!("d{d} office"),
                AreaKind::Work,
                at(2, 21),
                at(11, 31),
            );
            map.add_building(format!("d{d} cafe"), AreaKind::Cafe, at(14, 21), at(22, 28));
            map.add_building(
                format!("d{d} store"),
                AreaKind::Store,
                at(25, 21),
                at(31, 27),
            );
            map.add_building(format!("d{d} bar"), AreaKind::Bar, at(34, 21), at(40, 27));
            // Plaza: an open park in the south of the district.
            map.add_park(format!("d{d} plaza"), at(4, 34), at(42, 42), at(23, 42));
        }
    }
    map
}

/// Generates the city's population from the template pool: agents are
/// dealt round-robin across districts; each instance gets a home lot,
/// a job of its template's kind, chattiness and friends sampled from
/// the template bands — all within its home district.
pub fn generate_personas(map: &TileMap, cfg: &CityConfig) -> Vec<Persona> {
    let pool = template_pool();
    let districts = cfg.num_districts();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Per-district area indexes, in map creation order (districts were
    // emitted in order, so chunking the area list recovers them).
    let per_district = map.areas().len() / districts as usize;
    let district_areas = |d: u32, kind: AreaKind| -> Vec<usize> {
        let lo = d as usize * per_district;
        (lo..lo + per_district)
            .filter(|&i| map.areas()[i].kind == kind)
            .collect()
    };
    let mut personas: Vec<Persona> = (0..cfg.agents)
        .map(|id| {
            let district = id % districts;
            let t = pool[(id / districts) as usize % pool.len()];
            let houses = district_areas(district, AreaKind::House);
            let jobs = district_areas(district, t.job);
            assert!(
                !houses.is_empty() && !jobs.is_empty(),
                "district {district} lacks a {:?} or a house for template {}",
                t.job,
                t.label
            );
            let home_area = houses[(id / districts) as usize % houses.len()];
            let work_area = jobs[(id / districts) as usize % jobs.len()];
            Persona {
                id,
                name: format!("{} {id}", t.label),
                home_area,
                work_area,
                chattiness: t.chattiness.0
                    + rng.random::<f32>() * (t.chattiness.1 - t.chattiness.0),
                friends: Vec::new(),
                template: ((id / districts) as usize % pool.len()) as u32,
            }
        })
        .collect();
    // Friendships: sampled within the home district (ids congruent mod
    // `districts`), symmetric.
    for id in 0..cfg.agents {
        let district = id % districts;
        let cohort = (cfg.agents - district).div_ceil(districts); // agents in this district
        if cohort < 2 {
            continue;
        }
        let t = pool[(id / districts) as usize % pool.len()];
        let want = t.friends.0 + rng.random::<u32>() % (t.friends.1 - t.friends.0 + 1);
        let mut attempts = 0;
        while (personas[id as usize].friends.len() as u32) < want && attempts < 32 {
            attempts += 1;
            let f = district + districts * (rng.random::<u32>() % cohort);
            if f != id && f < cfg.agents && !personas[id as usize].friends.contains(&f) {
                personas[id as usize].friends.push(f);
                if !personas[f as usize].friends.contains(&id) {
                    personas[f as usize].friends.push(id);
                }
            }
        }
        personas[id as usize].friends.sort_unstable();
    }
    personas
}

/// Generates the full city world: district map + template-pool
/// population, mounted on the [`Village`] runtime.
pub fn generate(cfg: &CityConfig) -> Village {
    let map = city_map(cfg);
    let personas = generate_personas(&map, cfg);
    Village::from_substrate(cfg.seed, map, personas)
}

/// The district-level transit graph: one node per district (anchored at
/// its plaza door, which sits on the southern arterial), edges between
/// grid-adjacent districts weighted by the **actual walkable distance**
/// between their anchors ([`crate::pathfind::path_len`] over the street
/// grid) — the "road graph reusing pathfind" layer a dispatcher or a
/// travel-time heuristic queries without re-running A* per agent.
#[derive(Debug, Clone)]
pub struct RoadGraph {
    /// Anchor point per district, indexed by district id.
    pub nodes: Vec<Point>,
    /// `(district a, district b, walk distance in steps)`, `a < b`.
    pub edges: Vec<(u32, u32, u32)>,
    /// `edges` as per-node `(neighbor, weight)` lists, built once so
    /// queries allocate nothing per call.
    adjacency: Vec<Vec<(u32, u32)>>,
}

impl RoadGraph {
    /// Builds the transit graph for `map` (which must be `cfg`'s map).
    ///
    /// # Panics
    ///
    /// Panics if two adjacent district anchors are not mutually
    /// reachable — the arterial margins guarantee they are, so a panic
    /// means the map was not built by [`city_map`].
    pub fn build(map: &TileMap, cfg: &CityConfig) -> Self {
        let nodes: Vec<Point> = (0..cfg.num_districts())
            .map(|d| {
                let dx = (d % cfg.districts_x * DISTRICT) as i32;
                let dy = (d / cfg.districts_x * DISTRICT) as i32;
                // The plaza door on the southern arterial.
                Point::new(dx + 23, dy + 42)
            })
            .collect();
        let mut edges = Vec::new();
        let mut scratch = pathfind::Scratch::default();
        for d in 0..cfg.num_districts() {
            let (cx, cy) = (d % cfg.districts_x, d / cfg.districts_x);
            for (nx, ny) in [(cx + 1, cy), (cx, cy + 1)] {
                if nx >= cfg.districts_x || ny >= cfg.districts_y {
                    continue;
                }
                let n = ny * cfg.districts_x + nx;
                let w = scratch
                    .path_len(map, nodes[d as usize], nodes[n as usize])
                    .unwrap_or_else(|| panic!("districts {d} and {n} disconnected"));
                edges.push((d, n, w));
            }
        }
        let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nodes.len()];
        for &(a, b, w) in &edges {
            adjacency[a as usize].push((b, w));
            adjacency[b as usize].push((a, w));
        }
        RoadGraph {
            nodes,
            edges,
            adjacency,
        }
    }

    /// Shortest transit distance between two districts along the road
    /// graph (Dijkstra over district edges), `None` if disconnected.
    pub fn transit_len(&self, from: u32, to: u32) -> Option<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.nodes.len();
        let adj = &self.adjacency;
        let mut dist = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[from as usize] = 0;
        heap.push(Reverse((0u32, from)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if u == to {
                return Some(d);
            }
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        (from == to).then_some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock_to_step;

    fn small() -> CityConfig {
        CityConfig {
            districts_x: 3,
            districts_y: 2,
            agents: 300,
            seed: 9,
        }
    }

    #[test]
    fn map_has_all_amenities_per_district() {
        let cfg = small();
        let map = city_map(&cfg);
        assert_eq!(map.width(), 3 * DISTRICT);
        assert_eq!(map.height(), 2 * DISTRICT);
        assert_eq!(
            map.areas_of(AreaKind::House).len(),
            (HOUSES_PER_DISTRICT * cfg.num_districts()) as usize
        );
        for kind in [
            AreaKind::Work,
            AreaKind::Cafe,
            AreaKind::Store,
            AreaKind::Bar,
            AreaKind::Park,
        ] {
            assert_eq!(
                map.areas_of(kind).len(),
                cfg.num_districts() as usize,
                "{kind:?}"
            );
        }
        // Arterial margins stay walkable along every district boundary.
        for d in 1..cfg.districts_x {
            let x = (d * DISTRICT) as i32;
            for y in 0..map.height() as i32 {
                assert!(
                    map.is_walkable(Point::new(x, y)),
                    "blocked artery at x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_local() {
        let cfg = small();
        let a = generate_personas(&city_map(&cfg), &cfg);
        let b = generate_personas(&city_map(&cfg), &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        let map = city_map(&cfg);
        for p in &a {
            let district = p.id % cfg.num_districts();
            let home_door = map.areas()[p.home_area].door;
            let dcol = (home_door.x as u32) / DISTRICT;
            let drow = (home_door.y as u32) / DISTRICT;
            assert_eq!(
                drow * cfg.districts_x + dcol,
                district,
                "home in own district"
            );
            let work_door = map.areas()[p.work_area].door;
            assert_eq!((work_door.x as u32) / DISTRICT, dcol, "job in own district");
            for &f in &p.friends {
                assert_eq!(f % cfg.num_districts(), district, "friends stay local");
                assert!(a[f as usize].friends.contains(&p.id), "symmetric");
            }
        }
        // Templates actually vary the population.
        let labels: std::collections::BTreeSet<&str> = a
            .iter()
            .map(|p| p.name.split(' ').next().unwrap())
            .collect();
        assert_eq!(labels.len(), template_pool().len());
    }

    #[test]
    fn city_village_lives_a_morning() {
        let cfg = small();
        let mut v = generate(&cfg);
        assert_eq!(v.num_agents(), 300);
        assert_eq!(v.config().villes, 0, "substrate marker");
        // Cold-start a workday hour: wakes and movement must happen.
        let start = clock_to_step(7, 0);
        let mut calls = 0u64;
        let mut wakes = 0u32;
        v.run_lockstep(start, start + 40, |_, _, plan, _| {
            calls += plan.calls.len() as u64;
            if plan.wakes_up() {
                wakes += 1;
            }
        });
        assert!(wakes > 200, "most of the city wakes at 7am, got {wakes}");
        assert!(calls > 1_000, "a waking city is chatty, got {calls}");
    }

    #[test]
    fn road_graph_connects_every_district() {
        let cfg = small();
        let map = city_map(&cfg);
        let roads = RoadGraph::build(&map, &cfg);
        assert_eq!(roads.nodes.len(), 6);
        // Grid adjacency: 3×2 districts → 3 vertical + 4 horizontal edges.
        assert_eq!(roads.edges.len(), 7);
        for &(a, b, w) in &roads.edges {
            assert!(w >= DISTRICT - 10, "edge {a}-{b} suspiciously short: {w}");
        }
        for d in 0..6 {
            assert!(
                roads.transit_len(0, d).is_some(),
                "district {d} unreachable"
            );
        }
        assert_eq!(roads.transit_len(0, 0), Some(0));
        // Transit through the grid is at least the Manhattan district gap.
        let far = roads.transit_len(0, 5).unwrap();
        assert!(far >= 2 * (DISTRICT - 10), "0→5 spans two hops, got {far}");
    }

    #[test]
    fn shard_map_matches_city_width() {
        use aim_core::shard::ShardMap;
        let cfg = small();
        let m = cfg.shard_map(4);
        assert_eq!(m.num_shards(), 4);
        assert_eq!(m.strip_width(), cfg.width() / 4);
        assert_eq!(m.shard_of(Point::new(cfg.width() as i32 - 1, 0)), 3);
    }
}
