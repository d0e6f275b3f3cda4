//! One refusal contract for every dependency tracker: a rollback to a
//! step ahead of the agent's current one, and an advance or rollback
//! that names one agent twice, return `Err` with nothing moved — the
//! mirror's `snapshot()` and every record and counter of the tracker's
//! stores are what they were before the call.

use std::ops::ControlFlow;
use std::sync::Arc;

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions, GraphSnapshot};
use aim_core::dist::DistTracker;
use aim_core::prelude::*;
use aim_core::shard::{ShardMap, ShardedDepGraph, StripShardMap};
use aim_store::{Db, StoreError};

const W: u32 = 32;

fn options() -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        history: true,
    }
}

fn initial() -> Vec<Point> {
    (0..8).map(|i| Point::new(i * 4, i % 3)).collect()
}

fn strips(n: usize) -> Arc<dyn ShardMap<Point>> {
    Arc::new(StripShardMap::new(W, n))
}

/// Every record and counter of `dbs`, in key order.
fn contents(dbs: &[Arc<Db>]) -> Vec<String> {
    let mut out = Vec::new();
    for db in dbs {
        db.for_each_prefix(b"", |k, v| {
            out.push(format!("{k:?}={v:?}"));
            ControlFlow::Continue(())
        });
        out.push(format!("{:?}", db.stats()));
    }
    out
}

/// One call under test.
type Call<G> = Box<dyn Fn(&mut G) -> Result<(), StoreError>>;

/// Drives `g` a few steps, then through each refused call: each must
/// return `Err` and leave `snapshot` and `stores` as they were.
fn refuses<G: DepTracker<GridSpace>>(
    name: &str,
    g: &mut G,
    snapshot: impl Fn(&G) -> GraphSnapshot,
    stores: impl Fn(&G) -> Vec<Arc<Db>>,
) {
    let (a, b) = (AgentId(1), AgentId(5));
    for x in 0..3 {
        g.advance(&[(a, Point::new(4 + x, 1)), (b, Point::new(20, x))])
            .unwrap();
    }
    let current = g.step(a);
    let calls: [(&str, Call<G>); 3] = [
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
        let (before, stored) = (snapshot(g), contents(&stores(g)));
        assert!(run(g).is_err(), "{name}: {call} was accepted");
        assert_eq!(snapshot(g), before, "{name}: {call} moved the mirror");
        assert_eq!(
            contents(&stores(g)),
            stored,
            "{name}: {call} wrote the store"
        );
    }
    assert_eq!(g.step(a), current, "{name}: agent moved");
}

#[test]
fn every_tracker_refuses_a_rollback_ahead_and_an_agent_named_twice() {
    let space = || Arc::new(GridSpace::new(W, 16));
    let params = RuleParams::new(2, 1);

    let mut single =
        DepGraph::new_with_options(space(), params, Arc::new(Db::new()), &initial(), options())
            .unwrap();
    refuses(
        "DepGraph",
        &mut single,
        |g| g.snapshot(),
        |g| vec![Arc::clone(g.db())],
    );

    let mut sharded = ShardedDepGraph::new_with_options(
        space(),
        params,
        Arc::new(Db::new()),
        &initial(),
        strips(4),
        options(),
    )
    .unwrap();
    refuses(
        "ShardedDepGraph",
        &mut sharded,
        |g| g.snapshot(),
        |g| vec![Arc::clone(g.db())],
    );

    let mut dist = DistTracker::new(space(), params, &initial(), strips(4), options()).unwrap();
    refuses(
        "DistTracker",
        &mut dist,
        |g| g.snapshot(),
        |g| {
            (0..g.num_shards())
                .map(|j| Arc::clone(g.worker_db(j)))
                .collect()
        },
    );
}
