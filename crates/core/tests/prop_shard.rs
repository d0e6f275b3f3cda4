//! Property tests for sharded dependency tracking: a [`ShardedDepGraph`]
//! driven by arbitrary advance/rollback/evict/migration sequences must
//! look **identical** — nodes, blocked edges, coupled edges, step
//! extremes, blocker order — to a single-shard [`DepGraph`] fed the same
//! operations. The strips are kept narrow relative to the move
//! distribution, so agents constantly cross shard boundaries (including
//! while coupled, the boundary-edge protocol's hard case), and the
//! sharded tracker's internal invariants (ownership = shard map, step
//! bounds = node table) are re-checked after every operation.

mod common;

use std::sync::Arc;

use aim_core::prelude::*;
use aim_core::space::{GridSpace, Point};
use common::{apply_both, assert_equivalent, commit_both, pair, Entry, Layout, Spec, GRID};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random single-agent churn: after every advance / legal rollback /
    /// eviction the sharded tracker equals the single-shard oracle.
    /// Moves of up to ±6 against 64/shards-wide strips make boundary
    /// crossings routine.
    #[test]
    fn sharded_equals_single_shard_under_churn(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 2..10),
        shards in 1usize..7,
        ops in proptest::collection::vec(
            (any::<u16>(), 0u8..12, -6i32..7, -4i32..5),
            1..50
        ),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut sharded, mut single) = pair(Layout::Sharded(shards), GRID, &points, params);
        assert_equivalent(&mut sharded, &single);
        for op in ops {
            apply_both(&mut sharded, &mut single, op);
            assert_equivalent(&mut sharded, &single);
        }
    }

    /// Cluster-sized batch advances — coupled groups committing together,
    /// members scattered across (and crossing) shard boundaries — keep
    /// the trackers identical, through both the serial and the forced-
    /// parallel relink paths.
    #[test]
    fn batch_commits_cross_boundaries_exactly(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 4..12),
        shards in 2usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), -5i32..6, -3i32..4), 1..5),
            1..20
        ),
        parallel in any::<bool>(),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut sharded, mut single) = pair(Layout::Sharded(shards), GRID, &points, params);
        if parallel {
            // Forcing >1 worker exercises the parallel compute/apply
            // split even though these batches are below the automatic
            // threshold (the threshold only gates the *decision*, not
            // correctness).
            sharded.set_relink_threads(2);
        }
        for batch in batches {
            commit_both(&mut sharded, &mut single, &batch);
            assert_equivalent(&mut sharded, &single);
        }
    }

    /// Requesting more shards than the map width can cut clamps the
    /// effective shard count (`StripShardMap` oversharding regression)
    /// and the clamped tracker still matches the single-shard oracle
    /// exactly under churn.
    #[test]
    fn oversharded_map_equals_single_shard_oracle(
        points in proptest::collection::vec((0i32..8, 0i32..8), 2..8),
        excess in 0usize..40,
        ops in proptest::collection::vec((any::<u16>(), -3i32..4, -3i32..4), 1..25),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let narrow: u32 = 8;
        let strips = Layout::Sharded(narrow as usize + excess);
        let (mut sharded, mut single) = pair(strips, narrow, &points, params);
        prop_assert!(sharded.num_shards() <= narrow as usize, "oversharding must clamp");
        for (pick, dx, dy) in ops {
            apply_both(&mut sharded, &mut single, (pick, 0, dx, dy));
            assert_equivalent(&mut sharded, &single);
        }
    }

    /// Recovery from the store (with and without recorded membership)
    /// rebuilds a tracker identical to the live one after churn.
    #[test]
    fn recovery_preserves_sharded_state(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 2..8),
        shards in 2usize..6,
        ops in proptest::collection::vec((any::<u16>(), -5i32..6, -3i32..4), 1..30),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(GRID, GRID));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut g = Entry::new(Spec::new(Layout::Sharded(shards)), &space, params, &initial);
        for (pick, dx, dy) in ops {
            let a = AgentId(pick as u32 % g.len() as u32);
            let cur = g.pos(a);
            g.advance(&[(a, Point::new(cur.x + dx, cur.y + dy))]).unwrap();
        }
        prop_assert_eq!(g.snapshot(), g.recovered(false).snapshot());
        let seeded = g.recovered(true);
        prop_assert_eq!(g.snapshot(), seeded.snapshot());
        seeded.check_invariants();
        prop_assert_eq!(g.members(), seeded.members());
    }
}
