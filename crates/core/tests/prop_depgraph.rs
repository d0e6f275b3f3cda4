//! Property tests for incremental dependency-graph maintenance: a
//! [`DepGraph`] driven by arbitrary advance/rollback sequences must look
//! **identical** — nodes, blocked edges, coupled edges — to (a) a graph
//! rebuilt from scratch out of the authoritative store records and (b) a
//! brute-force oracle that evaluates the §3.2 rules over every pair. The
//! incremental path shares no code with (b), so agreement pins down both
//! the maintenance and the spatial-index candidate generation.
//!
//! The trackers share one edge engine, so the cross-tracker equality
//! tests of `prop_shard` and `prop_dist` cannot catch a bug in it; the
//! oracle can. It reads nothing but a [`GraphSnapshot`], and the churn
//! test runs every input on [`ShardedDepGraph`] (1, 4 and 16 strips) and
//! [`DistTracker`] (four workers) too.

mod common;

use std::sync::Arc;

use aim_core::depgraph::GraphSnapshot;
use aim_core::prelude::*;
use aim_core::rules::{self, RuleParams};
use aim_core::space::{GridSpace, Point};
use common::{Entry, Spec, GRID};
use proptest::prelude::*;

/// The position a snapshot node label (`Point`'s `Debug` form) names.
fn label_pos(label: &str) -> Point {
    let xy: Vec<i32> = label
        .split(|c: char| c != '-' && !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("a coordinate"))
        .collect();
    Point::new(xy[0], xy[1])
}

/// `(a, b)` pairs: blocker and blocked, or a coupled pair.
type Edges = Vec<(AgentId, AgentId)>;

/// The edges `snap`'s nodes must have, computed pair-by-pair from the
/// rules alone.
fn oracle_edges(snap: &GraphSnapshot, params: RuleParams) -> (Edges, Edges) {
    let space = GridSpace::new(GRID, GRID);
    let states: Vec<(Point, Step)> = (snap.nodes.iter())
        .map(|(_, step, label)| (label_pos(label), *step))
        .collect();
    let n = states.len() as u32;
    let mut blocked = Vec::new();
    let mut coupled = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (sa, sb) = (states[a as usize], states[b as usize]);
            // Strictly lagging blockers only (same-step closeness is
            // coupling, resolved by clustering).
            if sb.1 < sa.1 && rules::blocked_by(&space, params, sa, sb) {
                blocked.push((AgentId(b), AgentId(a)));
            }
            if a < b && rules::coupled(&space, params, sa, sb) {
                coupled.push((AgentId(a), AgentId(b)));
            }
        }
    }
    blocked.sort_unstable();
    coupled.sort_unstable();
    (blocked, coupled)
}

/// `snap`'s edges, sorted as [`oracle_edges`] returns them.
fn sorted_edges(snap: &GraphSnapshot) -> (Edges, Edges) {
    let (mut blocked, mut coupled) = (snap.blocked.clone(), snap.coupled.clone());
    blocked.sort_unstable();
    coupled.sort_unstable();
    (blocked, coupled)
}

/// The trackers the churn test runs on, none recording history.
const TRACKERS: [&str; 5] = [
    "depgraph-nohist",
    "sharded-1-nohist",
    "sharded-4-nohist",
    "sharded-16-nohist",
    "dist-w4-nohist",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random advance/rollback sequences: after every operation the
    /// incrementally maintained graph equals a from-scratch rebuild and
    /// the pairwise rules oracle — on every tracker.
    #[test]
    fn incremental_equals_rebuild_and_oracle(
        points in proptest::collection::vec((0i32..48, 0i32..48), 2..10),
        ops in proptest::collection::vec(
            (any::<u16>(), 0u8..10, -2i32..3, -2i32..3),
            1..60
        ),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(GRID, GRID));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for name in TRACKERS {
            let mut g = Entry::new(Spec::named(name), &space, params, &initial);
            for &(pick, kind, dx, dy) in &ops {
                let a = AgentId(pick as u32 % g.len() as u32);
                let cur = g.pos(a);
                let moved = Point::new(cur.x + dx, cur.y + dy);
                if kind < 8 || g.step(a) == Step::ZERO {
                    // Advance one step with an arbitrary move (the graph API
                    // does not bound displacement; maintenance must not rely
                    // on max_vel-sized moves).
                    g.advance(&[(a, moved)]).unwrap();
                } else {
                    // Rollback to a random earlier step.
                    let target = Step(pick as u32 % g.step(a).0);
                    g.rollback(&[(a, target, moved)]).unwrap();
                }

                let live = g.snapshot();
                let rebuilt = g.recovered(false).snapshot();
                prop_assert_eq!(&live, &rebuilt, "live graph diverged from store rebuild");

                let (blocked, coupled) = sorted_edges(&live);
                let oracle = oracle_edges(&live, params);
                prop_assert_eq!(blocked, oracle.0, "blocked edges diverged from rules oracle");
                prop_assert_eq!(coupled, oracle.1, "coupled edges diverged from rules oracle");
            }
        }
    }

    /// Cluster-sized batch advances (several agents in one transaction,
    /// the worker commit shape) maintain edges exactly as a rebuild does.
    #[test]
    fn batch_advance_equals_rebuild(
        points in proptest::collection::vec((0i32..32, 0i32..32), 3..9),
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), -1i32..2, -1i32..2), 1..4),
            1..25
        ),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(GRID, GRID));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut g = Entry::new(Spec::named("depgraph-nohist"), &space, params, &initial);
        for batch in batches {
            // Distinct agents per batch (a cluster never repeats members).
            let mut updates: Vec<(AgentId, Point)> = Vec::new();
            for (pick, dx, dy) in batch {
                let a = AgentId(pick as u32 % g.len() as u32);
                if updates.iter().any(|(x, _)| *x == a) {
                    continue;
                }
                let cur = g.pos(a);
                updates.push((a, Point::new(cur.x + dx, cur.y + dy)));
            }
            g.advance(&updates).unwrap();
            prop_assert_eq!(g.snapshot(), g.recovered(false).snapshot());
        }
    }

    /// AIMSNAP roundtrip under churn: after arbitrary history-recording
    /// advance/rollback/eviction sequences, snapshotting the store,
    /// restoring it, and recovering a graph from the restored store
    /// yields a graph identical to the live one — same validated state,
    /// same adjacency (against the rules oracle), byte-for-byte the same
    /// re-snapshot, and the same resident history.
    #[test]
    fn snapshot_restore_recover_equals_live(
        points in proptest::collection::vec((0i32..48, 0i32..48), 2..8),
        ops in proptest::collection::vec(
            (any::<u16>(), 0u8..12, -2i32..3, -2i32..3),
            1..40
        ),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        use aim_store::{Snapshot, SnapshotBuilder};

        let space = Arc::new(GridSpace::new(GRID, GRID));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut g = Entry::new(Spec::named("depgraph"), &space, params, &initial);

        for (pick, kind, dx, dy) in ops {
            let a = AgentId(pick as u32 % g.len() as u32);
            let cur = g.pos(a);
            let moved = Point::new(cur.x + dx, cur.y + dy);
            if kind < 8 || g.step(a) == Step::ZERO {
                g.advance(&[(a, moved)]).unwrap();
            } else if kind == 11 {
                // Eviction is part of the churn, not just a final pass.
                g.evict_history().unwrap();
            } else {
                // A *legal* rollback: schedulers only ever squash to a
                // step at or above the global minimum (the eviction
                // invariant), so the generated target is clamped there.
                let lo = g.min_step().0;
                let target = Step(lo + pick as u32 % (g.step(a).0 - lo + 1));
                g.rollback(&[(a, target, moved)]).unwrap();
            }
        }
        g.evict_history().unwrap();

        let bytes = SnapshotBuilder::new().db(g.local().db()).to_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
        let restored = Arc::new(snap.restore_db());
        let r = Entry::from_stores(g.spec, &space, params, g.len(), vec![Arc::clone(&restored)]);

        // Node-for-node, edge-for-edge identical…
        prop_assert_eq!(g.snapshot(), r.snapshot(), "recovered graph diverged");
        prop_assert_eq!(g.validate().is_ok(), r.validate().is_ok());
        // …with identical resident history and watermark…
        prop_assert_eq!(g.history_records(), r.history_records());
        prop_assert_eq!(g.history_floor(), r.history_floor());
        // …the eviction invariant intact (all resident steps ≥ floor, and
        // every step in [min_step, agent step] resident per agent)…
        let floor = r.history_floor();
        prop_assert!(floor <= r.min_step());
        for a in 0..r.len() as u32 {
            for s in r.min_step().0..=r.step(AgentId(a)).0 {
                prop_assert!(
                    r.local().history_at(AgentId(a), Step(s)).unwrap().is_some(),
                    "agent {} missing resident history at step {}", a, s
                );
            }
        }
        // …and the recovered adjacency still matches the rules oracle.
        let live = r.snapshot();
        prop_assert_eq!(sorted_edges(&live), oracle_edges(&live, params));
        // Restoring and re-snapshotting is byte-for-byte stable.
        let again = SnapshotBuilder::new().db(&restored).to_bytes().unwrap();
        prop_assert_eq!(bytes.as_ref(), again.as_ref());
    }
}
