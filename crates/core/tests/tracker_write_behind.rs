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

mod common;

use std::sync::Arc;

use aim_core::depgraph::GraphSnapshot;
use aim_core::dist::WINDOW;
use aim_core::prelude::*;
use aim_store::{Db, StoreError};
use common::{clamp, records, Entry, Layout, Lcg, Spec};

const W: u32 = 48;
const AGENTS: u32 = 12;

fn space() -> Arc<GridSpace> {
    Arc::new(GridSpace::new(W, W))
}

fn params() -> RuleParams {
    RuleParams::new(3, 1)
}

/// A tracker under test, one shard or four strips, and the handle to
/// its store the test reads: it sees only what has landed.
fn graph(sharded: bool, history: bool) -> (Entry, Arc<Db>) {
    let layout = if sharded {
        Layout::Sharded(4)
    } else {
        Layout::DepGraph
    };
    let spec = Spec::new(layout).with_history(history);
    let initial: Vec<Point> = (0..AGENTS as i32)
        .map(|i| Point::new(i * 4 % W as i32, i * 7 % W as i32))
        .collect();
    let g = Entry::new(spec, &space(), params(), &initial);
    // Nothing is queued yet, so this settles nothing.
    let db = g.stores().remove(0);
    (g, db)
}

/// Advances `agents` of `g` one step, each a unit along a diagonal.
fn advance(g: &mut Entry, agents: &[u32]) -> Result<(), StoreError> {
    let grid = space();
    let updates: Vec<(AgentId, Point)> = (agents.iter())
        .map(|&a| {
            let p = g.pos(AgentId(a));
            (AgentId(a), clamp(&grid, Point::new(p.x + 1, p.y + 1)))
        })
        .collect();
    g.advance(&updates)
}

/// The graph `db` holds, rebuilt from its records alone.
fn recovered(db: &Arc<Db>, history: bool) -> GraphSnapshot {
    let spec = Spec::new(Layout::DepGraph).with_history(history);
    let stores = vec![Arc::clone(db)];
    Entry::from_stores(spec, &space(), params(), AGENTS as usize, stores).snapshot()
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
            let (mut g, db) = graph(sharded, history);
            let (landed, txns) = (records(&db), db.stats().txn_commits);
            for k in 0..WINDOW as u32 - 1 {
                advance(&mut g, &cluster(k)).unwrap();
            }
            assert_eq!(records(&db), landed, "{case}: a partial window is queued");
            assert_eq!(db.stats().txn_commits, txns, "{case}");
            advance(&mut g, &cluster(WINDOW as u32)).unwrap();
            assert_eq!(
                db.stats().txn_commits,
                txns + 1,
                "{case}: {WINDOW} advances are one batch"
            );
            assert_eq!(recovered(&db, history), g.snapshot(), "{case}");
            assert_eq!(commits(&db), WINDOW as i64, "{case}");
            let full = records(&db);
            assert_eq!(
                records(g.local().db()),
                full,
                "{case}: nothing was left queued"
            );
            assert_eq!(db.stats().txn_commits, txns + 1, "{case}");
        }
    }
}

#[test]
fn a_partial_window_lands_at_every_quiesce_point() {
    type Quiesce = fn(&mut Option<Entry>);
    let points: [(&str, Quiesce); 6] = [
        ("db", |g| {
            g.as_ref().unwrap().local().db();
        }),
        ("commits", |g| {
            g.as_ref().unwrap().local().commits();
        }),
        ("history_records", |g| {
            g.as_ref().unwrap().local().history_records();
        }),
        ("history_at", |g| {
            let g = g.as_ref().unwrap().local();
            g.history_at(AgentId(0), Step(1)).unwrap();
        }),
        ("evict_history", |g| {
            let evicted = g.as_mut().unwrap().evict_history().unwrap();
            assert!(evicted > 0, "the churn raises the minimum step");
        }),
        ("drop", |g| drop(g.take())),
    ];
    for (name, quiesce) in points {
        for sharded in [false, true] {
            let case = format!("{name}, sharded={sharded}");
            let (g, db) = graph(sharded, true);
            let mut g = Some(g);
            let (landed, txns) = (records(&db), db.stats().txn_commits);
            let all: Vec<u32> = (0..AGENTS).collect();
            for k in 0..5 {
                let live = g.as_mut().unwrap();
                advance(live, &all).unwrap();
                advance(live, &cluster(k)).unwrap();
            }
            assert_eq!(records(&db), landed, "{case}: queued, not yet landed");
            let mirror = g.as_ref().unwrap().snapshot();
            quiesce(&mut g);
            assert_eq!(db.stats().txn_commits, txns + 1, "{case}: one batch");
            assert_eq!(recovered(&db, true), mirror, "{case}");
            assert_eq!(commits(&db), 10, "{case}");
        }
    }
}

/// Runs the churn of `seed` — batch advances and multi-step batch
/// rollbacks, more than three windows of them — reading `g.db()` after
/// every call when `each`, else only at the end; the records it leaves.
fn churn(seed: u64, sharded: bool, history: bool, each: bool) -> Vec<(Vec<u8>, Vec<u8>)> {
    let (mut g, db) = graph(sharded, history);
    let (grid, mut rng) = (space(), Lcg(seed));
    for _ in 0..3 * WINDOW + 7 {
        let mut agents: Vec<u32> = (0..AGENTS).collect();
        for i in (1..agents.len()).rev() {
            agents.swap(i, rng.below(i as u32 + 1) as usize);
        }
        agents.truncate(1 + rng.below(5) as usize);
        if rng.below(4) == 0 {
            let updates: Vec<(AgentId, Step, Point)> = (agents.iter())
                .map(|&a| {
                    let (a, p) = (AgentId(a), g.pos(AgentId(a)));
                    let back = rng.below(g.step(a).0.min(3) + 1);
                    let moved = Point::new(p.x + rng.below(5) as i32 - 2, p.y - 1);
                    (a, Step(g.step(a).0 - back), clamp(&grid, moved))
                })
                .collect();
            g.rollback(&updates).unwrap();
        } else {
            let updates: Vec<(AgentId, Point)> = (agents.iter())
                .map(|&a| {
                    let p = g.pos(AgentId(a));
                    let moved = Point::new(p.x + rng.below(3) as i32 - 1, p.y + 1);
                    (AgentId(a), clamp(&grid, moved))
                })
                .collect();
            g.advance(&updates).unwrap();
        }
        if each {
            g.local().db();
        }
    }
    assert_eq!(recovered(g.local().db(), history), g.snapshot());
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
        let (mut g, db) = graph(sharded, false);
        for k in 0..3 {
            advance(&mut g, &cluster(k)).unwrap();
        }
        db.set("dep:commits", b"not an integer".to_vec());
        let broken = records(&db);
        for k in 3..WINDOW as u32 - 1 {
            advance(&mut g, &cluster(k)).unwrap();
        }
        let mirror = g.snapshot();
        for _ in 0..2 {
            assert!(
                advance(&mut g, &cluster(0)).is_err(),
                "{case}: the window fails"
            );
            assert_eq!(g.snapshot(), mirror, "{case}: nothing moved");
        }
        g.local().db();
        assert_eq!(records(&db), broken, "{case}: nothing landed");

        db.set_i64("dep:commits", 100);
        g.local().db();
        assert_eq!(
            recovered(&db, false),
            mirror,
            "{case}: every Ok call landed"
        );
        assert_eq!(commits(&db), 100 + WINDOW as i64 - 1, "{case}");
        advance(&mut g, &cluster(0)).unwrap();
        assert_eq!(recovered(g.local().db(), false), g.snapshot());
    }
}
