//! One refusal contract for every dependency tracker of the roster that
//! maintains edges: a rollback to a step ahead of the agent's current
//! one, and an advance or rollback that names one agent twice, return
//! `Err` with nothing moved — the mirror's `snapshot()` and every record
//! and counter of the tracker's stores are what they were before the
//! call. (A tracker without edges reaches the same `rollback`, but its
//! `snapshot()` panics by contract.)

mod common;

use std::sync::Arc;

use aim_core::prelude::*;
use aim_store::StoreError;
use common::{records, Entry, Spec, ROSTER};

/// Every record and counter of `e`'s stores, in key order.
fn contents(e: &Entry) -> Vec<String> {
    let mut out = Vec::new();
    for db in e.stores() {
        out.extend(records(&db).iter().map(|(k, v)| format!("{k:?}={v:?}")));
        out.push(format!("{:?}", db.stats()));
    }
    out
}

/// One call under test.
type Call = Box<dyn Fn(&mut Entry) -> Result<(), StoreError>>;

/// Drives `g` a few steps, then through each refused call: each must
/// return `Err` and leave the snapshot and the stores as they were.
fn refuses(name: &str, g: &mut Entry) {
    let (a, b) = (AgentId(1), AgentId(5));
    for x in 0..3 {
        g.advance(&[(a, Point::new(4 + x, 1)), (b, Point::new(20, x))])
            .unwrap();
    }
    let current = g.step(a);
    let calls: [(&str, Call); 3] = [
        (
            "a rollback ahead of the current step",
            Box::new(move |g| g.rollback(&[(a, Step(current.0 + 2), Point::new(4, 1))])),
        ),
        (
            "a rollback naming one agent twice",
            Box::new(move |g| {
                g.rollback(&[
                    (a, Step(1), Point::new(4, 1)),
                    (a, Step(0), Point::new(4, 2)),
                ])
            }),
        ),
        (
            "an advance naming one agent twice",
            Box::new(move |g| g.advance(&[(a, Point::new(7, 1)), (a, Point::new(8, 1))])),
        ),
    ];
    for (call, run) in calls {
        let (before, stored) = (g.snapshot(), contents(g));
        assert!(run(g).is_err(), "{name}: {call} was accepted");
        assert_eq!(g.snapshot(), before, "{name}: {call} moved the mirror");
        assert_eq!(contents(g), stored, "{name}: {call} wrote the store");
    }
    assert_eq!(g.step(a), current, "{name}: agent moved");
}

#[test]
fn every_tracker_refuses_a_rollback_ahead_and_an_agent_named_twice() {
    let space = Arc::new(GridSpace::new(32, 16));
    let initial: Vec<Point> = (0..8).map(|i| Point::new(i * 4, i % 3)).collect();
    let mut checked = 0;
    for name in ROSTER {
        let spec = Spec::named(name);
        if spec.maintains_edges() {
            refuses(
                name,
                &mut Entry::new(spec, &space, RuleParams::new(2, 1), &initial),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, ROSTER.len() - 1, "all but depgraph-off");
}
