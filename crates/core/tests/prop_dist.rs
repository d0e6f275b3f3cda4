//! Property tests for the distributed tracker: a [`DistTracker`] — shard
//! workers isolated behind the typed message protocol, each with its own
//! database — driven by arbitrary advance/rollback/evict churn must look
//! **identical** to a single-shard [`DepGraph`] fed the same operations.
//! Strips are narrow relative to the move distribution, so migrations
//! (the depart/arrive handshake) are routine; after every operation the
//! controller mirror is cross-checked against the workers' ground truth
//! via the quiesce protocol.
//!
//! The harness taps every worker's link: the tap shows what the tracker
//! hands each worker (the hand-off count tests) and can fail a chosen
//! call on a chosen worker (the fault-schedule property test).

mod common;

use std::sync::Arc;

use aim_core::dist::WINDOW;
use aim_core::prelude::*;
use aim_core::space::{GridSpace, Point};
use aim_core::telemetry::{BoundaryOp, Counter, SpanKind, Telemetry};
use common::{
    apply_both, assert_equivalent, commit_both, pair, Call, Entry, Fault, Layout, Spec, GRID,
};
use proptest::prelude::*;

/// Seven agents on four 16-wide strips: 0 and 1 deep inside strip 0, 2
/// one stride from the strip 1 / strip 2 boundary with 6 behind it in
/// strip 1, 3–5 far to the right.
const HAND_OFF_POINTS: [(i32, i32); 7] = [
    (4, 10),
    (6, 10),
    (31, 30),
    (40, 50),
    (52, 10),
    (60, 40),
    (24, 30),
];

fn hand_off_fixture() -> Entry {
    pair(
        Layout::Dist(4),
        GRID,
        &HAND_OFF_POINTS,
        RuleParams::new(2, 1),
    )
    .0
}

/// Writes that cross no boundary queue on their owner's lane: `n` of
/// them reach the owner in ⌈n / WINDOW⌉ hand-offs — a full window each
/// time one fills, the rest at the next quiesce point — and no other
/// worker hears of them, not even one whose strip a mover stands next
/// to.
#[test]
fn writes_inside_one_strip_cross_once_per_window() {
    let mut dist = hand_off_fixture();
    let n = 2 * WINDOW + 5;
    for i in 0..n {
        // Agent 0 paces inside strip 0, far from every other strip.
        let x = 4 + (i % 2) as i32;
        dist.advance(&[(AgentId(0), Point::new(x, 10))]).unwrap();
        let seen = dist.take_hand_offs();
        if (i + 1) % WINDOW == 0 {
            assert_eq!(seen[0], vec![vec!["Commit"; WINDOW]]);
        } else {
            assert!(seen[0].is_empty(), "call {i}: {seen:?}");
        }
        assert!(seen[1..].iter().all(Vec::is_empty), "{seen:?}");
    }

    // The squash path queues the same way, and so does a write next to
    // another strip: agent 2 stays in strip 1, beside strip 2.
    dist.rollback(&[(AgentId(0), Step(1), Point::new(4, 10))])
        .unwrap();
    dist.advance(&[(AgentId(2), Point::new(31, 31))]).unwrap();
    let seen = dist.take_hand_offs();
    assert!(seen.iter().all(Vec::is_empty), "{seen:?}");

    // A quiesce point hands each lane what it holds, in call order.
    dist.remote().harvest_telemetry().unwrap();
    let seen = dist.take_hand_offs();
    let mut rest = vec!["Commit"; n % WINDOW];
    rest.push("Rollback");
    assert_eq!(seen[0], vec![rest]);
    assert_eq!(seen[1], vec![vec!["Commit"]]);
    assert!(seen[2].is_empty() && seen[3].is_empty(), "{seen:?}");
    dist.check_invariants();
}

/// A boundary-crossing write costs one blocking round, on the departing
/// lane only: its queue goes over with the `Depart` last, because the
/// controller needs the departed records. The arrival queues on the new
/// owner's lane like any write.
#[test]
fn a_migration_is_one_blocking_round_on_the_departing_lane() {
    let mut dist = hand_off_fixture();
    // Agent 6 moves inside strip 1: queued.
    dist.advance(&[(AgentId(6), Point::new(25, 30))]).unwrap();
    // Agent 2 steps from strip 1 (x < 32) into strip 2.
    dist.advance(&[(AgentId(2), Point::new(32, 30))]).unwrap();
    assert_eq!(dist.shard_of_agent(AgentId(2)), 2);
    let seen = dist.take_hand_offs();
    assert_eq!(seen[1], vec![vec!["Commit", "Commit", "Depart"]]);
    assert!(
        seen[0].is_empty() && seen[2].is_empty() && seen[3].is_empty(),
        "{seen:?}"
    );
    dist.remote().harvest_telemetry().unwrap();
    let seen = dist.take_hand_offs();
    assert_eq!(seen[2], vec![vec!["Arrive"]]);
    assert!(seen[0].is_empty() && seen[1].is_empty() && seen[3].is_empty());
    dist.check_invariants();
}

/// Telemetry reports the hand-off, not the request: one send span and
/// one wait span per hand-off, each saying how many messages it covered,
/// and one apply span per run of commits the worker batched, while the
/// message counter still counts every request. A full window is one
/// hand-off; `Drop` hands off the rest.
#[test]
fn boundary_spans_count_hand_offs_and_messages() {
    let mut dist = hand_off_fixture();
    let telemetry = Arc::new(Telemetry::new());
    dist.set_telemetry(Arc::clone(&telemetry));
    let start = telemetry.now_us();
    for i in 0..=WINDOW {
        let x = 4 + (i % 2) as i32;
        dist.advance(&[(AgentId(0), Point::new(x, 10))]).unwrap();
    }
    drop(dist); // settles the window; workers release the sink
    let end = telemetry.now_us();
    let rt = Arc::try_unwrap(telemetry)
        .expect("sink no longer shared")
        .finish(start, end, 7, Default::default(), None);
    let spans = |worker: u32, op: BoundaryOp| -> Vec<u32> {
        rt.spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::Boundary {
                    worker: w,
                    op: o,
                    messages,
                } if w == worker && o == op => Some(messages),
                _ => None,
            })
            .collect()
    };
    let window = WINDOW as u32;
    assert_eq!(spans(0, BoundaryOp::Send), vec![window, 1]);
    assert_eq!(spans(0, BoundaryOp::Wait), vec![window, 1]);
    assert_eq!(spans(0, BoundaryOp::Apply), vec![window, 1]);
    for worker in 1..4 {
        for op in BoundaryOp::ALL {
            assert!(spans(worker, op).is_empty(), "worker {worker} {op:?}");
        }
    }
    let messages = 2 * (window as u64 + 1);
    assert!(
        rt.counters.contains(&(Counter::BoundaryMessages, messages)),
        "every request and every reply: {:?}",
        rt.counters
    );
}

/// Batches of at least 64 agents on four workers take the mirror's
/// parallel relink (on a machine with more than one CPU): construction,
/// a whole-population rollback and recovery must each land on the edges
/// of a sharded graph over the same map that relinks serially.
#[test]
fn large_batches_relink_like_a_serial_sharded_graph() {
    let params = RuleParams::new(3, 1);
    let space = Arc::new(GridSpace::new(GRID, GRID));
    let initial: Vec<Point> = (0..96)
        .map(|i| Point::new((i * 7) % GRID as i32, (i * 13) % GRID as i32))
        .collect();
    let mut dist = Entry::new(Spec::new(Layout::Dist(4)), &space, params, &initial);
    let mut sharded = Entry::new(Spec::new(Layout::Sharded(4)), &space, params, &initial);
    sharded.set_relink_threads(1);
    sharded.local_mut().refresh_edges();
    assert_eq!(dist.snapshot(), sharded.snapshot(), "after construction");

    let ahead: Vec<(AgentId, Point)> = (0..96u32)
        .map(|a| {
            (
                AgentId(a),
                Point::new(initial[a as usize].x, (a % 5) as i32),
            )
        })
        .collect();
    dist.advance(&ahead).unwrap();
    sharded.advance(&ahead).unwrap();
    let back: Vec<(AgentId, Step, Point)> = (0..80u32)
        .map(|a| (AgentId(a), Step::ZERO, initial[a as usize]))
        .collect();
    dist.rollback(&back).unwrap();
    sharded.rollback(&back).unwrap();
    dist.check_invariants();
    assert_eq!(
        dist.snapshot(),
        sharded.snapshot(),
        "after a rollback batch"
    );

    let mut recovered = dist.recovered(true);
    recovered.check_invariants();
    assert_eq!(recovered.snapshot(), sharded.snapshot(), "after recovery");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A link that dies at an arbitrary call — queueing, handing over
    /// (before or after the worker has the requests) or receiving — in
    /// an arbitrary advance, rollback, boundary-crossing batch or
    /// quiesce (each step: the moves, the operation, and the fault as
    /// gate, victim, call and countdown) leaves the mirror exactly where
    /// it was. Only some steps quiesce, so a fault can strike with many
    /// writes of earlier, successful calls in doubt. Respawning the
    /// worker brings every worker back to the mirror, whichever part of
    /// those writes and of the call each had applied, with its history
    /// exact; and the retried call then lands the tracker where the
    /// oracle is.
    #[test]
    fn a_link_fault_anywhere_leaves_nothing_behind(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 4..10),
        shards in 2usize..5,
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((any::<u16>(), -6i32..7, -3i32..4), 1..4),
                0u8..10,
                (0u8..10, any::<u16>(), 0u8..4, 0usize..3),
            ),
            1..24
        ),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut dist, mut single) = pair(Layout::Dist(shards), GRID, &points, params);
        // Until a fault destroys the only copy of some history, the
        // stores hold exactly the oracle's records; after, no more.
        let mut history_exact = true;
        for (batch, op, fault) in steps {
            // Six steps in ten advance, two roll back, two quiesce.
            let (roll_back, quiesce) = (op == 6 || op == 7, op >= 8);
            let mut moves: Vec<(AgentId, Step, Point)> = Vec::new();
            for (pick, dx, dy) in batch {
                let a = AgentId(pick as u32 % dist.len() as u32);
                if moves.iter().any(|(x, _, _)| *x == a) {
                    continue;
                }
                let lo = dist.min_step().0;
                let target = Step(lo + pick as u32 % (dist.step(a).0 - lo + 1));
                let cur = dist.pos(a);
                moves.push((a, target, Point::new(cur.x + dx, cur.y + dy)));
            }
            let advances: Vec<(AgentId, Point)> =
                moves.iter().map(|&(a, _, pos)| (a, pos)).collect();
            let apply = |dist: &mut Entry| {
                if quiesce {
                    dist.remote().harvest_telemetry().map(drop)
                } else if roll_back {
                    dist.rollback(&moves)
                } else {
                    dist.advance(&advances)
                }
            };

            // Six steps in ten carry a fault.
            let (gate, pick, call, countdown) = fault;
            let victim = (gate < 6).then(|| {
                // Half the time the first mover's owner, so most faults
                // strike a worker the call involves.
                let victim = if pick % 2 == 0 {
                    dist.shard_of_agent(moves[0].0)
                } else {
                    pick as usize % dist.num_shards()
                };
                let call = [
                    Call::Queue,
                    Call::HandOffLost,
                    Call::HandOffDelivered,
                    Call::Receive,
                ][call as usize];
                dist.tap(victim).fault = Some(Fault { call, countdown });
                victim
            });
            let before = dist.snapshot();
            let outcome = apply(&mut dist);
            if let Some(victim) = victim {
                dist.tap(victim).fault = None;
            }

            if let Err(e) = outcome {
                let victim = victim.expect("only an injected fault fails a call");
                prop_assert!(e.to_string().contains("injected"), "{}", e);
                prop_assert_eq!(dist.snapshot(), before, "a failed call moved the mirror");
                history_exact &= !dist.tap(victim).lost_departure;

                dist.respawn(victim).expect("respawn from own store");
                dist.check_invariants();
                prop_assert_eq!(dist.snapshot(), single.snapshot());
                if history_exact {
                    prop_assert_eq!(dist.history_records(), single.history_records());
                }

                apply(&mut dist).expect("the retried call succeeds");
            }
            if quiesce {
                dist.check_invariants();
            } else if roll_back {
                single.rollback(&moves).unwrap();
            } else {
                single.advance(&advances).unwrap();
            }

            prop_assert_eq!(dist.snapshot(), single.snapshot(), "graphs diverged");
            if quiesce && history_exact {
                prop_assert_eq!(dist.history_records(), single.history_records());
            }
        }
        dist.check_invariants();
        if history_exact {
            prop_assert_eq!(dist.history_records(), single.history_records());
        } else {
            prop_assert!(dist.history_records() <= single.history_records());
        }
    }

    /// Random single-agent churn — advances, legal rollbacks, history
    /// evictions — leaves the worker-backed tracker world-for-world equal
    /// to the single-shard oracle. Moves of up to ±6 against narrow
    /// strips make boundary migrations routine.
    #[test]
    fn dist_tracker_equals_single_shard_under_churn(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 2..10),
        shards in 1usize..7,
        ops in proptest::collection::vec(
            (any::<u16>(), 0u8..12, -6i32..7, -4i32..5),
            1..40
        ),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut dist, mut single) = pair(Layout::Dist(shards), GRID, &points, params);
        assert_equivalent(&mut dist, &single);
        for op in ops {
            apply_both(&mut dist, &mut single, op);
            assert_equivalent(&mut dist, &single);
        }
    }

    /// Batch commits with members scattered across (and crossing) worker
    /// boundaries — the grouped commit fan-out plus the depart/arrive
    /// handshake — keep the trackers identical.
    #[test]
    fn dist_batch_commits_cross_boundaries_exactly(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 4..12),
        shards in 2usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), -5i32..6, -3i32..4), 1..5),
            1..16
        ),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut dist, mut single) = pair(Layout::Dist(shards), GRID, &points, params);
        for batch in batches {
            commit_both(&mut dist, &mut single, &batch);
            assert_equivalent(&mut dist, &single);
        }
    }

    /// Asking for more workers than the strip map can cut (`shards >
    /// width`) clamps instead of creating phantom regions, and the
    /// clamped worker fleet still matches the oracle exactly — the
    /// distributed arm of the `StripShardMap` oversharding regression.
    #[test]
    fn oversharded_dist_tracker_equals_oracle(
        points in proptest::collection::vec((0i32..8, 0i32..8), 2..8),
        excess in 0usize..40,
        ops in proptest::collection::vec((any::<u16>(), -3i32..4, -3i32..4), 1..20),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let narrow: u32 = 8;
        let workers = Layout::Dist(narrow as usize + excess);
        let (mut dist, mut single) = pair(workers, narrow, &points, params);
        prop_assert!(dist.num_shards() <= narrow as usize);
        for (pick, dx, dy) in ops {
            apply_both(&mut dist, &mut single, (pick, 0, dx, dy));
            assert_equivalent(&mut dist, &single);
        }
    }

    /// Rebuilding a tracker from the per-worker databases and member
    /// lists reproduces the live tracker after churn — every worker
    /// recovers from its own store alone, including agents that migrated
    /// (their history moved with them).
    #[test]
    fn dist_recovery_from_worker_stores(
        points in proptest::collection::vec((0i32..GRID as i32, 0i32..GRID as i32), 2..8),
        shards in 2usize..6,
        ops in proptest::collection::vec((any::<u16>(), -5i32..6, -3i32..4), 1..25),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(GRID, GRID));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut live = Entry::new(Spec::new(Layout::Dist(shards)), &space, params, &initial);
        for (pick, dx, dy) in ops {
            let a = AgentId(pick as u32 % live.len() as u32);
            let cur = live.pos(a);
            live.advance(&[(a, Point::new(cur.x + dx, cur.y + dy))]).unwrap();
        }
        let mut rebuilt = live.recovered(true);
        rebuilt.check_invariants();
        prop_assert_eq!(live.snapshot(), rebuilt.snapshot());
        prop_assert_eq!(live.history_records(), rebuilt.history_records());
        prop_assert_eq!(live.members(), rebuilt.members());
    }
}
