//! Property tests for the uniform-grid spatial index: exactness is
//! load-bearing. `within_units` decides scheduling (coupled/blocked), so
//! the grid-bucketed `pairs_within` must return **exactly** the brute-force
//! O(n²) oracle's pair set — on dense clouds, on points exactly on the
//! `units` boundary, and on negative/extreme coordinates where naive
//! arithmetic would overflow.

use aim_core::space::{GridSpace, Point, Space};
use proptest::prelude::*;

/// Brute-force oracle: every pair, exact check.
fn oracle_pairs(g: &GridSpace, pts: &[Point], units: u64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            if g.within_units(pts[i], pts[j], units) {
                out.push((i, j));
            }
        }
    }
    out
}

fn sorted(mut pairs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    pairs.sort_unstable();
    pairs
}

/// Point clouds over wildly different extents, including the full i32
/// range (cell coordinates at the packing limits) and tight crowds (many
/// same-cell and adjacent-cell pairs).
fn arb_cloud() -> impl Strategy<Value = Vec<Point>> {
    let coord = prop_oneof![
        (-30i32..30, -30i32..30),
        (-5000i32..5000, -5000i32..5000),
        (i32::MIN..i32::MAX, i32::MIN..i32::MAX),
        // Hug the extremes so div_euclid cells sit on the packable edge.
        (i32::MAX - 40..i32::MAX, i32::MIN..i32::MIN + 40),
    ];
    proptest::collection::vec(coord, 0..60)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The grid-bucketed pair search equals the oracle's pair set.
    #[test]
    fn grid_pairs_equal_oracle(
        pts in arb_cloud(),
        units in prop_oneof![1u64..40, 1000u64..5000, Just(u64::MAX)],
    ) {
        let g = GridSpace::new(100, 140);
        prop_assert_eq!(
            sorted(g.pairs_within(&pts, units)),
            oracle_pairs(&g, &pts, units)
        );
    }

    /// Points *exactly* on the `units` boundary: seed a crowd with scaled
    /// 3-4-5 and axis-aligned offsets whose distances hit `units`
    /// exactly, where a float comparison (or an off-by-one cell walk)
    /// would flip pairs.
    #[test]
    fn grid_pairs_exact_on_boundary(
        base in proptest::collection::vec((-200i32..200, -200i32..200), 1..12),
        k in 1i32..9,
    ) {
        let units = 5 * k as u64;
        let mut pts = Vec::new();
        for (x, y) in base {
            let p = Point::new(x, y);
            pts.push(p);
            pts.push(Point::new(x + 3 * k, y + 4 * k)); // dist = 5k exactly
            pts.push(Point::new(x + 5 * k, y));         // dist = 5k exactly
            pts.push(Point::new(x + 5 * k + 1, y));     // dist = 5k + 1: out
            pts.push(Point::new(x - 3 * k, y + 4 * k));
        }
        let g = GridSpace::new(100, 140);
        let got = sorted(g.pairs_within(&pts, units));
        let want = oracle_pairs(&g, &pts, units);
        prop_assert_eq!(&got, &want);
        // Sanity: the construction really exercises the boundary.
        prop_assert!(
            pts.iter().any(|p| p.dist2_u128(pts[0]) == (units as u128).pow(2)),
            "no boundary pair generated"
        );
    }

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
