//! The in-process tracker writes behind: `DepGraph` and `ShardedDepGraph`
//! queue each advance or rollback and write the queue as one store batch
//! once it holds `dist::WINDOW` calls, or at a quiesce point — `db()`,
//! `commits()`, `history_records()`, `history_at()`, `evict_history()`
//! and `Drop`. Every read here goes through the caller's own `Arc<Db>`,
//! which sees only what has landed.
//!
//! Checked: a full window is exactly one batch; a partial window lands
//! at each quiesce point; a churn read only at its end leaves the same
//! records as the same churn read after every call; and a window that
//! fails to land refuses only the call that triggered it, keeping every
//! earlier call's writes queued until the store is repaired.

use std::ops::ControlFlow;
use std::sync::Arc;

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions, GraphSnapshot};
use aim_core::dist::WINDOW;
use aim_core::prelude::*;
use aim_core::shard::{ShardMap, ShardedDepGraph, StripShardMap};
use aim_store::Db;

const W: u32 = 48;
const AGENTS: u32 = 12;

fn space() -> Arc<GridSpace> {
    Arc::new(GridSpace::new(W, W))
}

fn options(history: bool) -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        history,
    }
}

fn initial() -> Vec<Point> {
    (0..AGENTS as i32)
        .map(|i| Point::new(i * 4 % W as i32, i * 7 % W as i32))
        .collect()
}

fn clamp(p: Point) -> Point {
    let max = W as i32 - 1;
    Point::new(p.x.clamp(0, max), p.y.clamp(0, max))
}

/// A tracker under test: one shard, or four strips.
enum Graph {
    Single(DepGraph<GridSpace>),
    Sharded(ShardedDepGraph<GridSpace>),
}

impl Graph {
    fn new(sharded: bool, history: bool, db: &Arc<Db>) -> Self {
        let (space, params, db) = (space(), RuleParams::new(3, 1), Arc::clone(db));
        let options = options(history);
        if sharded {
            let map: Arc<dyn ShardMap<Point>> = Arc::new(StripShardMap::new(W, 4));
            let g = ShardedDepGraph::new_with_options(space, params, db, &initial(), map, options);
            Graph::Sharded(g.expect("initial population"))
        } else {
            let g = DepGraph::new_with_options(space, params, db, &initial(), options);
            Graph::Single(g.expect("initial population"))
        }
    }

    /// The tracker, through its own `DepTracker` impl.
    fn tracker(&mut self) -> &mut dyn DepTracker<GridSpace> {
        match self {
            Graph::Single(g) => g,
            Graph::Sharded(g) => g,
        }
    }

    /// The graph's inherent readers.
    fn graph(&self) -> &DepGraph<GridSpace> {
        match self {
            Graph::Single(g) => g,
            Graph::Sharded(g) => g,
        }
    }

    /// Advances `agents` one step, each a unit along a diagonal.
    fn advance(&mut self, agents: &[u32]) -> Result<(), aim_store::StoreError> {
        let t = self.tracker();
        let updates: Vec<(AgentId, Point)> = (agents.iter())
            .map(|&a| {
                let p = t.pos(AgentId(a));
                (AgentId(a), clamp(Point::new(p.x + 1, p.y + 1)))
            })
            .collect();
        t.advance(&updates)
    }
}

/// Every `(key, value)` of `db`, in key order.
fn records(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    db.for_each_prefix(b"", |k, v| {
        out.push((k.to_vec(), v.to_vec()));
        ControlFlow::Continue(())
    });
    out
}

/// The graph `db` holds, rebuilt from its records alone.
fn recovered(db: &Arc<Db>, history: bool) -> GraphSnapshot {
    let g = DepGraph::recover_with_options(
        space(),
        RuleParams::new(3, 1),
        Arc::clone(db),
        AGENTS as usize,
        options(history),
    )
    .expect("records recover");
    g.snapshot()
}

fn commits(db: &Db) -> i64 {
    db.get_i64("dep:commits").expect("an integer counter")
}

/// Agents `3k..3k + 5` (mod the population): consecutive calls overlap,
/// so an agent's move is often superseded inside its window.
fn cluster(k: u32) -> Vec<u32> {
    (3 * k..3 * k + 5).map(|a| a % AGENTS).collect()
}

#[test]
fn a_full_window_lands_as_one_batch() {
    for sharded in [false, true] {
        for history in [false, true] {
            let case = format!("sharded={sharded} history={history}");
            let db = Arc::new(Db::new());
            let mut g = Graph::new(sharded, history, &db);
            let (landed, txns) = (records(&db), db.stats().txn_commits);
            for k in 0..WINDOW as u32 - 1 {
                g.advance(&cluster(k)).unwrap();
            }
            assert_eq!(records(&db), landed, "{case}: a partial window is queued");
            assert_eq!(db.stats().txn_commits, txns, "{case}");
            g.advance(&cluster(WINDOW as u32)).unwrap();
            assert_eq!(
                db.stats().txn_commits,
                txns + 1,
                "{case}: {WINDOW} advances are one batch"
            );
            assert_eq!(recovered(&db, history), g.graph().snapshot(), "{case}");
            assert_eq!(commits(&db), WINDOW as i64, "{case}");
            let full = records(&db);
            assert_eq!(
                records(g.graph().db()),
                full,
                "{case}: nothing was left queued"
            );
            assert_eq!(db.stats().txn_commits, txns + 1, "{case}");
        }
    }
}

#[test]
fn a_partial_window_lands_at_every_quiesce_point() {
    type Quiesce = fn(&mut Option<Graph>);
    let points: [(&str, Quiesce); 6] = [
        ("db", |g| {
            g.as_ref().unwrap().graph().db();
        }),
        ("commits", |g| {
            g.as_ref().unwrap().graph().commits();
        }),
        ("history_records", |g| {
            g.as_ref().unwrap().graph().history_records();
        }),
        ("history_at", |g| {
            let g = g.as_ref().unwrap().graph();
            g.history_at(AgentId(0), Step(1)).unwrap();
        }),
        ("evict_history", |g| {
            let evicted = g.as_mut().unwrap().tracker().evict_history().unwrap();
            assert!(evicted > 0, "the churn raises the minimum step");
        }),
        ("drop", |g| drop(g.take())),
    ];
    for (name, quiesce) in points {
        for sharded in [false, true] {
            let case = format!("{name}, sharded={sharded}");
            let db = Arc::new(Db::new());
            let mut g = Some(Graph::new(sharded, true, &db));
            let (landed, txns) = (records(&db), db.stats().txn_commits);
            let all: Vec<u32> = (0..AGENTS).collect();
            for k in 0..5 {
                let live = g.as_mut().unwrap();
                live.advance(&all).unwrap();
                live.advance(&cluster(k)).unwrap();
            }
            assert_eq!(records(&db), landed, "{case}: queued, not yet landed");
            let mirror = g.as_ref().unwrap().graph().snapshot();
            quiesce(&mut g);
            assert_eq!(db.stats().txn_commits, txns + 1, "{case}: one batch");
            assert_eq!(recovered(&db, true), mirror, "{case}");
            assert_eq!(commits(&db), 10, "{case}");
        }
    }
}

/// A small deterministic generator.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = (self.0)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }
}

/// Runs the churn of `seed` — batch advances and multi-step batch
/// rollbacks, more than three windows of them — reading `g.db()` after
/// every call when `each`, else only at the end; the records it leaves.
fn churn(seed: u64, sharded: bool, history: bool, each: bool) -> Vec<(Vec<u8>, Vec<u8>)> {
    let db = Arc::new(Db::new());
    let mut g = Graph::new(sharded, history, &db);
    let mut rng = Lcg(seed);
    for _ in 0..3 * WINDOW + 7 {
        let mut agents: Vec<u32> = (0..AGENTS).collect();
        for i in (1..agents.len()).rev() {
            agents.swap(i, rng.below(i as u32 + 1) as usize);
        }
        agents.truncate(1 + rng.below(5) as usize);
        let t = g.tracker();
        if rng.below(4) == 0 {
            let updates: Vec<(AgentId, Step, Point)> = (agents.iter())
                .map(|&a| {
                    let (a, p) = (AgentId(a), t.pos(AgentId(a)));
                    let back = rng.below(t.step(a).0.min(3) + 1);
                    let moved = Point::new(p.x + rng.below(5) as i32 - 2, p.y - 1);
                    (a, Step(t.step(a).0 - back), clamp(moved))
                })
                .collect();
            t.rollback(&updates).unwrap();
        } else {
            let updates: Vec<(AgentId, Point)> = (agents.iter())
                .map(|&a| {
                    let p = t.pos(AgentId(a));
                    let moved = Point::new(p.x + rng.below(3) as i32 - 1, p.y + 1);
                    (AgentId(a), clamp(moved))
                })
                .collect();
            t.advance(&updates).unwrap();
        }
        if each {
            g.graph().db();
        }
    }
    assert_eq!(recovered(g.graph().db(), history), g.graph().snapshot());
    records(&db)
}

#[test]
fn a_churn_read_at_its_end_leaves_the_records_of_one_read_after_every_call() {
    for seed in [3, 17, 40] {
        for sharded in [false, true] {
            for history in [false, true] {
                let read_each = churn(seed, sharded, history, true);
                let read_once = churn(seed, sharded, history, false);
                // `dep:commits` is one of the records compared.
                assert!(read_each.iter().any(|(k, _)| k == b"dep:commits"));
                assert_eq!(
                    read_once, read_each,
                    "seed {seed} sharded={sharded} history={history}"
                );
            }
        }
    }
}

#[test]
fn a_window_that_fails_to_land_refuses_only_its_trigger() {
    for sharded in [false, true] {
        let case = format!("sharded={sharded}");
        let db = Arc::new(Db::new());
        let mut g = Graph::new(sharded, false, &db);
        for k in 0..3 {
            g.advance(&cluster(k)).unwrap();
        }
        db.set("dep:commits", b"not an integer".to_vec());
        let broken = records(&db);
        for k in 3..WINDOW as u32 - 1 {
            g.advance(&cluster(k)).unwrap();
        }
        let mirror = g.graph().snapshot();
        for _ in 0..2 {
            assert!(g.advance(&cluster(0)).is_err(), "{case}: the window fails");
            assert_eq!(g.graph().snapshot(), mirror, "{case}: nothing moved");
        }
        g.graph().db();
        assert_eq!(records(&db), broken, "{case}: nothing landed");

        db.set_i64("dep:commits", 100);
        g.graph().db();
        assert_eq!(
            recovered(&db, false),
            mirror,
            "{case}: every Ok call landed"
        );
        assert_eq!(commits(&db), 100 + WINDOW as i64 - 1, "{case}");
        g.advance(&cluster(0)).unwrap();
        assert_eq!(recovered(g.graph().db(), false), g.graph().snapshot());
    }
}
