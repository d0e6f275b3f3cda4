//! Property tests for the uniform-grid spatial index: every tracked
//! occurrence within `units` of a probe must be in the query's answer, on
//! every resolution level, after any sequence of inserts, moves and
//! removals. `within_units` decides scheduling, so an index that misses a
//! neighbour would flip a coupled or blocked decision.

use aim_core::space::{GridSpace, Point, Space};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dynamic index's query contract, on every resolution level:
    /// after any sequence of inserts, moves and removals — the same id
    /// filed at several positions and dropped one occurrence at a time,
    /// moves that cross a fine cell but stay inside a coarse one — every
    /// tracked occurrence within `units` of the probe is in the query
    /// result (superset semantics, once per occurrence).
    #[test]
    fn uniform_grid_query_is_superset(
        initial in proptest::collection::vec((0u32..12, -300i32..300, -300i32..300), 30..80),
        ops in proptest::collection::vec(
            (
                any::<u16>(),
                0u32..12,
                prop_oneof![
                    // A hop of a few units: crosses a 5-unit cell often,
                    // a 20- or 80-unit one rarely.
                    (-7i32..8, -7i32..8).prop_map(|(dx, dy)| (true, dx, dy)),
                    (-5000i32..5000, -5000i32..5000).prop_map(|(x, y)| (false, x, y)),
                ],
                0u8..4,
            ),
            0..80,
        ),
        // One band per way a query can be answered with 5-unit cells:
        // the fine level (≤ 10), the 20-unit level (≤ 40), the 80-unit
        // level (≤ 160), the coarsest level with wider rings or an
        // enumeration, and radii past the packable cell range.
        units in proptest::collection::vec(
            prop_oneof![
                1u64..=10,
                11u64..=40,
                41u64..=160,
                161u64..=5000,
                Just(1u64 << 31),
                Just(u64::MAX),
            ],
            1..6,
        ),
        probe in (-300i32..300, -300i32..300),
    ) {
        let g = GridSpace::new(100, 140);
        let mut idx = g.make_index(5).expect("grid is indexable");
        let mut tracked: Vec<(u32, Point)> = initial
            .iter()
            .map(|&(id, x, y)| (id, Point::new(x, y)))
            .collect();
        for (id, p) in &tracked {
            idx.insert(*id, *p);
        }
        for (pick, id, (relative, x, y), kind) in ops {
            let at = pick as usize % tracked.len();
            let (moved, from) = tracked[at];
            let to = if relative { Point::new(from.x + x, from.y + y) } else { Point::new(x, y) };
            match kind {
                // Another occurrence of some id, maybe where one already is.
                0 => {
                    let pos = if relative { from } else { to };
                    idx.insert(id, pos);
                    tracked.push((id, pos));
                }
                1 if tracked.len() > 1 => {
                    idx.remove(moved, from);
                    tracked.swap_remove(at);
                }
                _ => {
                    idx.update(moved, from, to);
                    tracked[at].1 = to;
                }
            }
        }
        let center = Point::new(probe.0, probe.1);
        for units in units {
            let mut got = Vec::new();
            idx.query(center, units, &mut got);
            for id in 0..12u32 {
                let want = tracked
                    .iter()
                    .filter(|(i, p)| *i == id && g.within_units(center, *p, units))
                    .count();
                let have = got.iter().filter(|i| **i == id).count();
                prop_assert!(
                    have >= want,
                    "id {id}: {want} occurrences within {units} of {center:?}, query reported {have}"
                );
            }
        }
    }
}
