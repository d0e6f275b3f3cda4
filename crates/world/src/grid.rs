//! Tile maps: walkability, buildings, and named areas.

use aim_core::space::Point;
use serde::{Deserialize, Serialize};

/// What a named area is used for; drives schedules and conversation rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AreaKind {
    /// A private home (one per agent household).
    House,
    /// A workplace (office, shop, college…).
    Work,
    /// The cafe — lunch magnet, busy-hour epicenter (Fig. 4c's noon peak).
    Cafe,
    /// The bar — evening social venue.
    Bar,
    /// The park — open-air social venue.
    Park,
    /// The general store.
    Store,
}

impl AreaKind {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            AreaKind::House => "house",
            AreaKind::Work => "work",
            AreaKind::Cafe => "cafe",
            AreaKind::Bar => "bar",
            AreaKind::Park => "park",
            AreaKind::Store => "store",
        }
    }
}

/// A named rectangular area of the map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Area {
    /// Display name, e.g. `"house 3"` or `"Hobbs Cafe"`.
    pub name: String,
    /// Purpose of the area.
    pub kind: AreaKind,
    /// Top-left corner (inclusive).
    pub min: Point,
    /// Bottom-right corner (inclusive).
    pub max: Point,
    /// The door tile (on the perimeter, walkable).
    pub door: Point,
}

impl Area {
    /// Whether `p` lies inside the area rectangle (walls included).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// A deterministic interior anchor tile (where agents head to).
    pub fn anchor(&self) -> Point {
        Point::new((self.min.x + self.max.x) / 2, (self.min.y + self.max.y) / 2)
    }
}

/// A rectangular tile map with per-tile walkability and named areas.
///
/// Buildings are rectangles whose perimeter is wall except for one door
/// tile; interiors and all outdoor tiles are walkable. The original
/// SmallVille is 100×140 tiles; [`TileMap::smallville`] generates a
/// deterministic town of that size, and [`TileMap::concatenated`] lays `k`
/// copies side by side for the scaling experiments (paper §4.3:
/// "concatenating multiple SmallVilles into a single, large ville").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileMap {
    width: u32,
    height: u32,
    /// Row-major walkability bitmap.
    walkable: Vec<bool>,
    areas: Vec<Area>,
}

impl TileMap {
    /// An empty, fully walkable map.
    pub fn open(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "map must be non-empty");
        TileMap {
            width,
            height,
            walkable: vec![true; (width * height) as usize],
            areas: Vec::new(),
        }
    }

    /// Map width in tiles.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Map height in tiles.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Named areas, in creation order.
    pub fn areas(&self) -> &[Area] {
        &self.areas
    }

    /// Areas of a given kind.
    pub fn areas_of(&self, kind: AreaKind) -> Vec<&Area> {
        self.areas.iter().filter(|a| a.kind == kind).collect()
    }

    /// Whether `p` is inside the map and walkable.
    pub fn is_walkable(&self, p: Point) -> bool {
        self.in_bounds(p) && self.walkable[(p.y as u32 * self.width + p.x as u32) as usize]
    }

    /// Whether `p` is inside the map bounds.
    pub fn in_bounds(&self, p: Point) -> bool {
        p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width && (p.y as u32) < self.height
    }

    /// Walkability of tiles `xs` of row `y`, both in bounds.
    pub(crate) fn walkable_row(&self, y: u32, xs: std::ops::Range<u32>) -> &[bool] {
        let row = (y * self.width) as usize;
        &self.walkable[row + xs.start as usize..row + xs.end as usize]
    }

    fn set_walkable(&mut self, p: Point, w: bool) {
        if self.in_bounds(p) {
            self.walkable[(p.y as u32 * self.width + p.x as u32) as usize] = w;
        }
    }

    /// Adds a building: perimeter walls, one door, walkable interior.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is degenerate (needs ≥ 3×3 for an interior)
    /// or out of bounds.
    pub fn add_building(
        &mut self,
        name: impl Into<String>,
        kind: AreaKind,
        min: Point,
        max: Point,
    ) -> usize {
        assert!(
            max.x - min.x >= 2 && max.y - min.y >= 2,
            "building needs at least 3x3 tiles"
        );
        assert!(
            self.in_bounds(min) && self.in_bounds(max),
            "building out of bounds"
        );
        for x in min.x..=max.x {
            self.set_walkable(Point::new(x, min.y), false);
            self.set_walkable(Point::new(x, max.y), false);
        }
        for y in min.y..=max.y {
            self.set_walkable(Point::new(min.x, y), false);
            self.set_walkable(Point::new(max.x, y), false);
        }
        // Door at the middle of the south wall.
        let door = Point::new((min.x + max.x) / 2, max.y);
        self.set_walkable(door, true);
        self.areas.push(Area {
            name: name.into(),
            kind,
            min,
            max,
            door,
        });
        self.areas.len() - 1
    }

    /// Adds an open (wall-free) named area — parks, plazas — whose tiles
    /// keep their current walkability. `door` is the tile agents head to
    /// when routing to the area's entrance.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle or door is out of bounds.
    pub fn add_park(
        &mut self,
        name: impl Into<String>,
        min: Point,
        max: Point,
        door: Point,
    ) -> usize {
        assert!(
            self.in_bounds(min) && self.in_bounds(max) && self.in_bounds(door),
            "park out of bounds"
        );
        self.areas.push(Area {
            name: name.into(),
            kind: AreaKind::Park,
            min,
            max,
            door,
        });
        self.areas.len() - 1
    }

    /// Generates the deterministic SmallVille-like town: a 100×140 map with
    /// `houses` homes, a cafe, a bar, a park, a store, and two workplaces.
    ///
    /// # Panics
    ///
    /// Panics if `houses` exceeds the 40 lots the layout provides.
    pub fn smallville(houses: u32) -> Self {
        assert!(
            houses <= 40,
            "smallville supports at most 40 houses, asked for {houses}"
        );
        let mut map = TileMap::open(100, 140);
        // Residential rows: lots of 10×10 with a 7×7 house, 5 lots per row,
        // 8 rows available on the east side (x in 50..100).
        for i in 0..houses {
            let row = i / 5;
            let col = i % 5;
            let x0 = 51 + col as i32 * 10;
            let y0 = 11 + row as i32 * 16;
            map.add_building(
                format!("house {i}"),
                AreaKind::House,
                Point::new(x0, y0),
                Point::new(x0 + 6, y0 + 6),
            );
        }
        // Civic west side.
        map.add_building(
            "Hobbs Cafe",
            AreaKind::Cafe,
            Point::new(10, 10),
            Point::new(24, 22),
        );
        map.add_building(
            "The Rose Bar",
            AreaKind::Bar,
            Point::new(10, 40),
            Point::new(24, 52),
        );
        map.add_building(
            "Willow Store",
            AreaKind::Store,
            Point::new(10, 70),
            Point::new(22, 80),
        );
        map.add_building(
            "Oak Hill College",
            AreaKind::Work,
            Point::new(30, 96),
            Point::new(46, 112),
        );
        map.add_building(
            "Town Office",
            AreaKind::Work,
            Point::new(10, 96),
            Point::new(24, 112),
        );
        // The park is an open area (no walls), marked for schedules.
        map.add_park(
            "Johnson Park",
            Point::new(30, 30),
            Point::new(44, 60),
            Point::new(37, 60),
        );
        map
    }

    /// Lays `k` copies of `self` side by side along the x axis, renaming
    /// areas with a `v{i}:` prefix. Tiles, walls and doors are replicated;
    /// the copies share one connected outdoor space, so agents near a
    /// boundary *can* couple across villes — exactly the conservative
    /// false dependency the paper's scaling study exercises.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn concatenated(&self, k: u32) -> TileMap {
        assert!(k > 0, "need at least one ville");
        let mut out = TileMap::open(self.width * k, self.height);
        for v in 0..k {
            let dx = (v * self.width) as i32;
            for y in 0..self.height as i32 {
                for x in 0..self.width as i32 {
                    let p = Point::new(x, y);
                    out.set_walkable(
                        Point::new(x + dx, y),
                        self.is_walkable(p) || !self.in_bounds(p),
                    );
                }
            }
            for a in &self.areas {
                out.areas.push(Area {
                    name: format!("v{v}:{}", a.name),
                    kind: a.kind,
                    min: Point::new(a.min.x + dx, a.min.y),
                    max: Point::new(a.max.x + dx, a.max.y),
                    door: Point::new(a.door.x + dx, a.door.y),
                });
            }
        }
        out
    }

    /// The ville index (0-based) a point belongs to, given the single-ville
    /// width used for concatenation.
    pub fn ville_of(&self, p: Point, single_width: u32) -> u32 {
        (p.x.max(0) as u32) / single_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_map_is_walkable_everywhere() {
        let m = TileMap::open(10, 10);
        assert!(m.is_walkable(Point::new(0, 0)));
        assert!(m.is_walkable(Point::new(9, 9)));
        assert!(
            !m.is_walkable(Point::new(10, 9)),
            "out of bounds is not walkable"
        );
        assert!(!m.is_walkable(Point::new(-1, 0)));
    }

    #[test]
    fn building_walls_and_door() {
        let mut m = TileMap::open(20, 20);
        m.add_building("b", AreaKind::Work, Point::new(5, 5), Point::new(11, 11));
        // Corners are wall.
        assert!(!m.is_walkable(Point::new(5, 5)));
        assert!(!m.is_walkable(Point::new(11, 11)));
        // Interior is walkable.
        assert!(m.is_walkable(Point::new(8, 8)));
        // Door on the south wall.
        let door = m.areas()[0].door;
        assert_eq!(door, Point::new(8, 11));
        assert!(m.is_walkable(door));
    }

    #[test]
    fn smallville_has_expected_areas() {
        let m = TileMap::smallville(25);
        assert_eq!(m.width(), 100);
        assert_eq!(m.height(), 140);
        assert_eq!(m.areas_of(AreaKind::House).len(), 25);
        assert_eq!(m.areas_of(AreaKind::Cafe).len(), 1);
        assert_eq!(m.areas_of(AreaKind::Bar).len(), 1);
        assert_eq!(m.areas_of(AreaKind::Work).len(), 2);
        assert_eq!(m.areas_of(AreaKind::Park).len(), 1);
        // Park is open (anchor walkable, no walls).
        let park = m.areas_of(AreaKind::Park)[0];
        assert!(m.is_walkable(park.anchor()));
        assert!(m.is_walkable(park.min));
    }

    #[test]
    fn smallville_is_deterministic() {
        assert_eq!(TileMap::smallville(25), TileMap::smallville(25));
    }

    #[test]
    fn concatenation_replicates_and_offsets() {
        let one = TileMap::smallville(5);
        let four = one.concatenated(4);
        assert_eq!(four.width(), 400);
        assert_eq!(four.areas().len(), one.areas().len() * 4);
        // Walls replicate at the right offset.
        let cafe = &one.areas()[5];
        assert!(!one.is_walkable(cafe.min));
        assert!(!four.is_walkable(Point::new(cafe.min.x + 100, cafe.min.y)));
        // Names gain ville prefixes and ville_of resolves them.
        assert!(four.areas()[one.areas().len()].name.starts_with("v1:"));
        assert_eq!(four.ville_of(Point::new(250, 0), 100), 2);
    }

    #[test]
    fn area_contains_and_anchor() {
        let a = Area {
            name: "x".into(),
            kind: AreaKind::Park,
            min: Point::new(2, 2),
            max: Point::new(6, 8),
            door: Point::new(4, 8),
        };
        assert!(a.contains(Point::new(2, 2)));
        assert!(a.contains(Point::new(6, 8)));
        assert!(!a.contains(Point::new(7, 8)));
        assert_eq!(a.anchor(), Point::new(4, 5));
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn degenerate_building_rejected() {
        let mut m = TileMap::open(10, 10);
        m.add_building("bad", AreaKind::Work, Point::new(1, 1), Point::new(2, 2));
    }
}
