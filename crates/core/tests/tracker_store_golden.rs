//! Golden digests of what every dependency tracker writes to its stores.
//!
//! Each case drives one tracker through the same seeded churn — batch
//! advances, multi-step rollbacks, `evict_history`, a whole-population
//! sweep and `recover` from the stores — and after every operation folds
//! every `(key, value)` of each of the tracker's stores, in key order,
//! plus every [`DbStats`] field into an FNV-1a digest. The distributed
//! tracker is read once it has settled: `worker_db` hands every queued
//! write over first.
//!
//! `tracker_golden` pins the trackers' mirrors and `store_golden` the
//! bare store; this file pins the records, the history rewrite, the
//! eviction and the transaction and write counts between them. The
//! literals were recorded before the in-process graph started writing
//! through the shard worker's store core, and must never be edited.

use std::ops::ControlFlow;
use std::sync::Arc;

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions};
use aim_core::dist::DistTracker;
use aim_core::prelude::*;
use aim_core::shard::{ShardMap, ShardedDepGraph, StripShardMap};
use aim_store::{Db, DbStats};

const W: u32 = 96;
const H: i32 = 64;
const AGENTS: u32 = 72;
const OPS: u32 = 120;

fn params() -> RuleParams {
    RuleParams::new(3, 1)
}

fn options(history: bool) -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        history,
    }
}

fn space() -> Arc<GridSpace> {
    Arc::new(GridSpace::new(W, H as u32))
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    /// Every record of `db` in key order, then its counters.
    fn store(&mut self, db: &Db) {
        let mut records = 0u64;
        db.for_each_prefix(b"", |k, v| {
            self.u64(k.len() as u64);
            self.bytes(k);
            self.u64(v.len() as u64);
            self.bytes(v);
            records += 1;
            ControlFlow::Continue(())
        });
        self.u64(records);
        let stats: DbStats = db.stats();
        let counters = [
            stats.keys as u64,
            stats.gets,
            stats.writes,
            stats.txn_commits,
            stats.txn_conflicts,
        ];
        for x in counters {
            self.u64(x);
        }
    }
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }
    fn offset(&mut self, reach: i32) -> i32 {
        self.below(2 * reach as u32 + 1) as i32 - reach
    }
}

fn initial(seed: u64) -> Vec<Point> {
    let mut rng = Lcg(seed ^ 0x5eed);
    (0..AGENTS)
        .map(|_| Point::new(rng.below(W) as i32, rng.below(H as u32) as i32))
        .collect()
}

/// One tracker under test and the stores it writes.
trait Subject {
    type G: DepTracker<GridSpace>;
    fn g(&mut self) -> &mut Self::G;
    /// The tracker's stores, settled.
    fn stores(&mut self) -> Vec<Arc<Db>>;
    /// Replaces the tracker with one rebuilt from its stores.
    fn recover(&mut self);
}

struct Single {
    g: DepGraph<GridSpace>,
    history: bool,
}

impl Subject for Single {
    type G = DepGraph<GridSpace>;
    fn g(&mut self) -> &mut DepGraph<GridSpace> {
        &mut self.g
    }
    fn stores(&mut self) -> Vec<Arc<Db>> {
        vec![Arc::clone(self.g.db())]
    }
    fn recover(&mut self) {
        self.g = DepGraph::recover_with_options(
            space(),
            params(),
            Arc::clone(self.g.db()),
            AGENTS as usize,
            options(self.history),
        )
        .unwrap();
    }
}

struct Sharded {
    g: ShardedDepGraph<GridSpace>,
    map: Arc<StripShardMap>,
}

impl Subject for Sharded {
    type G = ShardedDepGraph<GridSpace>;
    fn g(&mut self) -> &mut ShardedDepGraph<GridSpace> {
        &mut self.g
    }
    fn stores(&mut self) -> Vec<Arc<Db>> {
        vec![Arc::clone(self.g.db())]
    }
    fn recover(&mut self) {
        self.g = ShardedDepGraph::recover(
            space(),
            params(),
            Arc::clone(self.g.db()),
            AGENTS as usize,
            Arc::clone(&self.map) as Arc<dyn ShardMap<Point>>,
            options(true),
        )
        .unwrap();
    }
}

struct Dist {
    g: DistTracker<GridSpace>,
    map: Arc<StripShardMap>,
}

impl Subject for Dist {
    type G = DistTracker<GridSpace>;
    fn g(&mut self) -> &mut DistTracker<GridSpace> {
        &mut self.g
    }
    fn stores(&mut self) -> Vec<Arc<Db>> {
        (0..self.g.num_shards())
            .map(|j| Arc::clone(self.g.worker_db(j)))
            .collect()
    }
    fn recover(&mut self) {
        let dbs = self.stores();
        let members: Vec<Vec<u32>> = (0..dbs.len()).map(|j| self.g.members(j)).collect();
        self.g = DistTracker::recover(
            space(),
            params(),
            dbs,
            Arc::clone(&self.map) as Arc<dyn ShardMap<Point>>,
            options(true),
            &members,
        )
        .unwrap();
    }
}

fn clamp(p: Point) -> Point {
    Point::new(p.x.clamp(0, W as i32 - 1), p.y.clamp(0, H - 1))
}

/// `count` distinct agents picked by `rng`.
fn pick(rng: &mut Lcg, count: u32) -> Vec<AgentId> {
    let mut out: Vec<AgentId> = Vec::new();
    while (out.len() as u32) < count {
        let a = AgentId(rng.below(AGENTS));
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

/// Runs the churn of `seed` on `s`: the digest of its stores after every
/// operation, and the history records it evicted.
fn churn<T: Subject>(mut s: T, seed: u64) -> String {
    let mut rng = Lcg(seed);
    let mut digest = Fnv::new();
    let mut evicted = 0u64;
    for db in s.stores() {
        digest.store(&db);
    }
    for op in 0..OPS {
        if op % 31 == 30 {
            s.recover();
        } else if op % 19 == 18 {
            let g = s.g();
            let all: Vec<(AgentId, Point)> = (0..AGENTS)
                .map(|a| {
                    let cur = g.pos(AgentId(a));
                    (AgentId(a), clamp(Point::new(cur.x + 1, cur.y)))
                })
                .collect();
            g.advance(&all).unwrap();
        } else {
            match rng.below(10) {
                0..=5 => {
                    let size = 1 + rng.below(6);
                    let members = pick(&mut rng, size);
                    let g = s.g();
                    let updates: Vec<(AgentId, Point)> = members
                        .into_iter()
                        .map(|a| {
                            let cur = g.pos(a);
                            let (dx, dy) = (rng.offset(5), rng.offset(3));
                            (a, clamp(Point::new(cur.x + dx, cur.y + dy)))
                        })
                        .collect();
                    g.advance(&updates).unwrap();
                }
                6..=8 => {
                    let size = 1 + rng.below(3);
                    let members = pick(&mut rng, size);
                    let g = s.g();
                    let lo = g.min_step().0;
                    let updates: Vec<(AgentId, Step, Point)> = members
                        .into_iter()
                        .map(|a| {
                            let target = Step(lo + rng.below(g.step(a).0 - lo + 1));
                            let cur = g.pos(a);
                            let (dx, dy) = (rng.offset(4), rng.offset(4));
                            (a, target, clamp(Point::new(cur.x + dx, cur.y + dy)))
                        })
                        .collect();
                    g.rollback(&updates).unwrap();
                }
                _ => evicted += s.g().evict_history().unwrap(),
            }
        }
        for db in s.stores() {
            digest.store(&db);
        }
    }
    format!("stores={:016x} evicted={evicted}", digest.0)
}

fn single(seed: u64, history: bool) -> Single {
    let g = DepGraph::new_with_options(
        space(),
        params(),
        Arc::new(Db::new()),
        &initial(seed),
        options(history),
    )
    .unwrap();
    Single { g, history }
}

fn sharded(seed: u64, strips: usize) -> Sharded {
    let map = Arc::new(StripShardMap::new(W, strips));
    let g = ShardedDepGraph::new_with_options(
        space(),
        params(),
        Arc::new(Db::new()),
        &initial(seed),
        Arc::clone(&map) as Arc<dyn ShardMap<Point>>,
        options(true),
    )
    .unwrap();
    Sharded { g, map }
}

fn dist(seed: u64, workers: usize) -> Dist {
    let map = Arc::new(StripShardMap::new(W, workers));
    let g = DistTracker::new(
        space(),
        params(),
        &initial(seed),
        Arc::clone(&map) as Arc<dyn ShardMap<Point>>,
        options(true),
    )
    .unwrap();
    Dist { g, map }
}

fn run(tracker: &str, seed: u64) -> String {
    match tracker {
        "depgraph" => churn(single(seed, true), seed),
        "depgraph-nohist" => churn(single(seed, false), seed),
        "sharded-4" => churn(sharded(seed, 4), seed),
        "dist-w4" => churn(dist(seed, 4), seed),
        other => panic!("unknown tracker {other}"),
    }
}

/// `(tracker, seed, fingerprint)`, recorded on the parent of the store
/// core's split out of the shard worker.
const GOLDEN: [(&str, u64, &str); 8] = [
    ("depgraph", 1, "stores=bf0f0a975c258092 evicted=360"),
    ("depgraph-nohist", 1, "stores=5489abd5ef364632 evicted=0"),
    ("sharded-4", 1, "stores=bf0f0a975c258092 evicted=360"),
    ("dist-w4", 1, "stores=e78c9358f08f5903 evicted=360"),
    ("depgraph", 2, "stores=7cc40142e7ac7872 evicted=432"),
    ("depgraph-nohist", 2, "stores=44e2e1df56c03aca evicted=0"),
    ("sharded-4", 2, "stores=7cc40142e7ac7872 evicted=432"),
    ("dist-w4", 2, "stores=16ff4616fbaead81 evicted=432"),
];

#[test]
fn tracker_stores_match_the_recorded_golden() {
    let mut diverged = Vec::new();
    for (tracker, seed, want) in GOLDEN {
        let got = run(tracker, seed);
        if got != want {
            diverged.push(format!("(\"{tracker}\", {seed}, \"{got}\"),"));
        }
    }
    assert!(
        diverged.is_empty(),
        "tracker stores left the recorded golden:\n{}",
        diverged.join("\n")
    );
}
