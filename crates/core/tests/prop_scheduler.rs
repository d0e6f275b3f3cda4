//! Property tests for the heart of the paper: under *any* schedule the
//! engine can produce, the §3.2 validity condition holds at every reachable
//! state, and the simulation always terminates.

use std::sync::Arc;

use aim_core::policy::DependencyPolicy;
use aim_core::prelude::*;
use aim_core::rules::{self, RuleParams};
use aim_core::space::{GridSpace, Point, Space};
use aim_store::Db;
use proptest::prelude::*;

fn arb_points(n: usize, extent: i32) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0..extent, 0..extent), n..=n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized out-of-order execution: pick any subset of ready clusters
    /// each round, move agents by random unit steps — validity must hold
    /// after every commit and every agent must finish.
    #[test]
    fn random_ooo_schedules_preserve_validity(
        points in arb_points(8, 30),
        target in 2u32..8,
        moves in proptest::collection::vec((0u8..5, any::<u16>()), 0..400),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(64, 64));
        let mut sched = Scheduler::new(
            Arc::clone(&space),
            params,
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &points,
            Step(target),
        ).unwrap();

        let mut pending: Vec<Cluster> = Vec::new();
        let mut move_iter = moves.into_iter();
        let mut safety = 0;
        while !sched.is_done() {
            safety += 1;
            prop_assert!(safety < 10_000, "failed to converge");
            pending.extend(sched.ready_clusters());
            prop_assert!(
                !pending.is_empty() || sched.inflight_len() > pending.len(),
                "deadlock: nothing ready, nothing in flight"
            );
            if pending.is_empty() {
                continue;
            }
            // Complete a pseudo-random pending cluster (the adversarial
            // schedule), moving each member by ≤ max_vel in a random
            // direction.
            let (dir_seed, pick) = move_iter.next().unwrap_or((0, 0));
            let idx = pick as usize % pending.len();
            let cluster = pending.swap_remove(idx);
            let new_pos: Vec<(AgentId, Point)> = cluster
                .members
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let cur = sched.graph().pos(*m);
                    let d = (dir_seed as usize + i) % 5;
                    let (dx, dy) = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][d];
                    let v = params.max_vel as i32;
                    (*m, Point::new(cur.x + dx * v, cur.y + dy * v))
                })
                .collect();
            sched.complete(&cluster.id, &new_pos).unwrap();
            // THE invariant: no pair of agents may ever be close enough to
            // observe each other across different simulation times.
            prop_assert!(
                sched.graph().validate().is_ok(),
                "validity violated: {:?}",
                sched.graph().validate()
            );
        }
        prop_assert_eq!(sched.inflight_len(), 0);
    }

    /// Coupling is symmetric and blocking respects step order.
    #[test]
    fn rule_algebra(
        ax in 0i32..50, ay in 0i32..50,
        bx in 0i32..50, by in 0i32..50,
        sa in 0u32..10, sb in 0u32..10,
        r in 1u32..6, v in 1u32..4,
    ) {
        let g = GridSpace::new(64, 64);
        let params = RuleParams::new(r, v);
        let a = (Point::new(ax, ay), Step(sa));
        let b = (Point::new(bx, by), Step(sb));
        prop_assert_eq!(
            rules::coupled(&g, params, a, b),
            rules::coupled(&g, params, b, a),
            "coupling must be symmetric"
        );
        if sa < sb {
            prop_assert!(!rules::blocked_by(&g, params, a, b), "future agents never block");
        }
        // Blocking radius is monotone in the step gap.
        if sa >= sb && rules::blocked_by(&g, params, a, b) {
            let further = (a.0, Step(sa + 1));
            prop_assert!(
                rules::blocked_by(&g, params, further, b),
                "a larger gap must keep the pair blocked at the same distance"
            );
        }
        // Validity is symmetric.
        prop_assert_eq!(
            rules::pair_valid(&g, params, a, b),
            rules::pair_valid(&g, params, b, a)
        );
    }

    /// Ground-truth interactions (within radius_p) are always a subset of
    /// the conservative coupling relation (within radius_p + max_vel):
    /// the oracle never needs an edge metropolis would not have enforced.
    #[test]
    fn oracle_interactions_subset_of_coupling(
        points in arb_points(10, 25),
        r in 1u32..6, v in 1u32..4,
    ) {
        let g = GridSpace::new(64, 64);
        let params = RuleParams::new(r, v);
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let interacting = g.within_units(points[i], points[j], params.radius_p as u64);
                if interacting {
                    prop_assert!(rules::coupled(
                        &g,
                        params,
                        (points[i], Step(0)),
                        (points[j], Step(0))
                    ));
                }
            }
        }
    }
}

mod social_space_scheduling {
    //! The scheduler is generic over the metric space (§6): drive it over
    //! a social graph end to end.

    use super::*;
    use aim_core::space::{NodeId, SocialSpace};

    fn ring(n: u32) -> SocialSpace {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        SocialSpace::new(n as usize, &edges)
    }

    #[test]
    fn scheduler_runs_on_a_social_graph() {
        // 12 agents spread around a 24-node ring; perception = 2 hops,
        // movement = 1 hop per step. Opposite sides of the ring are far
        // apart and may drift in simulation time.
        let space = Arc::new(ring(24));
        let initial: Vec<NodeId> = (0..12).map(|i| NodeId(i * 2)).collect();
        let mut sched = Scheduler::new(
            Arc::clone(&space),
            RuleParams::new(2, 1),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &initial,
            Step(4),
        )
        .unwrap();
        let mut safety = 0;
        while !sched.is_done() {
            safety += 1;
            assert!(safety < 10_000);
            let ready = sched.ready_clusters();
            assert!(!ready.is_empty() || sched.inflight_len() > 0, "deadlock");
            for c in ready {
                // Everyone shuffles one hop clockwise.
                let pos: Vec<(AgentId, NodeId)> = c
                    .members
                    .iter()
                    .map(|m| {
                        let cur = sched.graph().pos(*m);
                        (*m, NodeId((cur.0 + 1) % 24))
                    })
                    .collect();
                sched.complete(&c.id, &pos).unwrap();
                assert!(sched.graph().validate().is_ok());
            }
        }
        // Neighbors on the ring (2 hops apart at start, within coupling
        // radius 3) must have been coupled into shared clusters.
        assert!(sched.stats().max_cluster_size >= 2);
    }

    #[test]
    fn disconnected_components_never_interact() {
        // Two separate triangles: infinite hop distance between them, so
        // one component can run arbitrarily far ahead.
        let space = Arc::new(SocialSpace::new(
            6,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        ));
        let initial = vec![NodeId(0), NodeId(3)];
        let mut sched = Scheduler::new(
            space,
            RuleParams::new(1, 1),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &initial,
            Step(50),
        )
        .unwrap();
        // Run only agent 0's component to completion; agent 1 never moves.
        let first = sched.ready_clusters();
        assert_eq!(first.len(), 2);
        let mut cluster = first[0].clone();
        assert_eq!(cluster.members, vec![AgentId(0)]);
        for _ in 0..50 {
            let pos = sched.graph().pos(AgentId(0));
            sched.complete(&cluster.id, &[(AgentId(0), pos)]).unwrap();
            match sched.ready_clusters().pop() {
                Some(c) => cluster = c,
                None => break,
            }
        }
        assert_eq!(
            sched.graph().step(AgentId(0)),
            Step(50),
            "agent 0 should run 50 steps ahead across the disconnect"
        );
        assert_eq!(sched.graph().step(AgentId(1)), Step(0));
        assert!(sched.graph().validate().is_ok());
    }
}
