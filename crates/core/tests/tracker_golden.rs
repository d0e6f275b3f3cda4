//! Golden digests of every dependency tracker under one fixed churn.
//!
//! Each case drives one tracker through the same seeded operation
//! sequence — batch advances, cross-strip moves, multi-step rollbacks,
//! `evict_history`, a whole-population sweep (large enough for the
//! sharded tracker's parallel relink) and `recover` from the stores — and
//! folds `snapshot()` plus `min_step`/`max_step` after every operation
//! into an FNV-1a digest. Trackers with more to say digest it too: the
//! sharded tracker its `Relink`/`Migrate` span fields and the
//! `ShardMigrations`/`RelinkBatches` counters, the distributed tracker
//! how many hand-offs (and requests) each worker received.
//!
//! The literals were recorded before the three trackers were moved onto
//! one edge engine and must never be edited: every tracker reaches the
//! same states, and each still does the same internal work to get there.
//! The one exception is the distributed tracker's `extra`, which is its
//! protocol shape: it was re-recorded once, when writes started queueing
//! per worker and crossing a window at a time, with every `state` and
//! `evicted` field left as recorded.

use std::sync::{Arc, Mutex};

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions, GraphSnapshot};
use aim_core::dist::{CtrlMsg, DistTracker, SeveredLink, ShardMsg, WorkerLink};
use aim_core::prelude::*;
use aim_core::shard::{ShardMap, ShardedDepGraph, StripShardMap};
use aim_core::telemetry::Counter;
use aim_store::{Db, StoreError};

const W: u32 = 96;
const H: i32 = 64;
const AGENTS: u32 = 72;
const OPS: u32 = 150;

fn params() -> RuleParams {
    RuleParams::new(3, 1)
}

fn options(edges: EdgeMode) -> GraphOptions {
    GraphOptions {
        edges,
        history: true,
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
    fn snapshot(&mut self, s: &GraphSnapshot) {
        for (a, step, label) in &s.nodes {
            self.u64(u64::from(a.0));
            self.u64(u64::from(step.0));
            self.bytes(label.as_bytes());
        }
        for list in [&s.blocked, &s.coupled] {
            self.u64(list.len() as u64);
            for (a, b) in list {
                self.u64(u64::from(a.0));
                self.u64(u64::from(b.0));
            }
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

/// One tracker under test, plus whatever it reports beyond its graph.
trait Subject {
    type G: DepTracker<GridSpace>;
    fn g(&mut self) -> &mut Self::G;
    /// The maintained edges, or `None` for a tracker without them.
    fn edges(&self) -> Option<GraphSnapshot>;
    /// Rewinds agents through the tracker's inherent `rollback`.
    fn rollback(&mut self, updates: &[(AgentId, Step, Point)]);
    /// Replaces the tracker with one rebuilt from its stores.
    fn recover(&mut self);
    /// Folds what the tracker reports beyond its graph after an operation.
    fn extra(&mut self, _d: &mut Fnv) {}
    /// Folds the end-of-run report.
    fn finish(&mut self, _d: &mut Fnv) {}
}

struct Single {
    g: DepGraph<GridSpace>,
    edges: EdgeMode,
}

impl Subject for Single {
    type G = DepGraph<GridSpace>;
    fn g(&mut self) -> &mut DepGraph<GridSpace> {
        &mut self.g
    }
    fn edges(&self) -> Option<GraphSnapshot> {
        (self.edges == EdgeMode::Maintained).then(|| self.g.snapshot())
    }
    fn rollback(&mut self, updates: &[(AgentId, Step, Point)]) {
        self.g.rollback(updates).unwrap();
    }
    fn recover(&mut self) {
        self.g = DepGraph::recover_with_options(
            space(),
            params(),
            Arc::clone(self.g.db()),
            AGENTS as usize,
            options(self.edges),
        )
        .unwrap();
    }
}

struct Sharded {
    g: ShardedDepGraph<GridSpace>,
    map: Arc<StripShardMap>,
    telemetry: Arc<Telemetry>,
    recoveries: u32,
}

impl Sharded {
    fn mount(&mut self) {
        self.g.set_relink_threads(2);
        self.g.set_telemetry(Arc::clone(&self.telemetry));
    }
}

impl Subject for Sharded {
    type G = ShardedDepGraph<GridSpace>;
    fn g(&mut self) -> &mut ShardedDepGraph<GridSpace> {
        &mut self.g
    }
    fn edges(&self) -> Option<GraphSnapshot> {
        Some(self.g.snapshot())
    }
    fn rollback(&mut self, updates: &[(AgentId, Step, Point)]) {
        self.g.rollback(updates).unwrap();
    }
    fn recover(&mut self) {
        // Alternate the rescan and the recorded-membership paths.
        self.recoveries += 1;
        let map = Arc::clone(&self.map) as Arc<dyn ShardMap<Point>>;
        self.g = if self.recoveries % 2 == 1 {
            ShardedDepGraph::recover(
                space(),
                params(),
                Arc::clone(self.g.db()),
                AGENTS as usize,
                map,
                options(EdgeMode::Maintained),
            )
        } else {
            let members: Vec<Vec<u32>> = (0..self.g.num_shards())
                .map(|j| self.g.members(j))
                .collect();
            ShardedDepGraph::recover_with_members(
                space(),
                params(),
                Arc::clone(self.g.db()),
                AGENTS as usize,
                map,
                options(EdgeMode::Maintained),
                &members,
            )
        }
        .unwrap();
        self.mount();
    }
    fn extra(&mut self, d: &mut Fnv) {
        for c in [Counter::ShardMigrations, Counter::RelinkBatches] {
            d.u64(self.telemetry.counter(c));
        }
        for a in 0..AGENTS {
            d.u64(self.g.shard_of_agent(AgentId(a)) as u64);
        }
    }
    fn finish(&mut self, d: &mut Fnv) {
        let rt =
            self.telemetry
                .finish(0, self.telemetry.now_us(), AGENTS, Default::default(), None);
        let mut fields: Vec<(u8, u32, u32)> = rt
            .spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::Relink { agents, workers } => Some((0, agents, workers)),
                SpanKind::Migrate { agents, crossings } => Some((1, agents, crossings)),
                _ => None,
            })
            .collect();
        fields.sort_unstable();
        d.u64(fields.len() as u64);
        for (tag, x, y) in fields {
            d.bytes(&[tag]);
            d.u64(u64::from(x));
            d.u64(u64::from(y));
        }
        d.u64(rt.dropped);
    }
}

/// Hand-offs and requests per worker, shared by every [`CountLink`] of
/// one tracker (and its recovered successors).
type Counts = Arc<Mutex<Vec<(u64, u64)>>>;

/// A [`WorkerLink`] that counts the hand-offs it delivers.
struct CountLink {
    inner: Box<dyn WorkerLink<Point>>,
    worker: usize,
    queued: u64,
    counts: Counts,
}

impl WorkerLink<Point> for CountLink {
    fn send(&mut self, msg: CtrlMsg<Point>) -> Result<(), StoreError> {
        self.queued += 1;
        self.inner.send(msg)
    }
    fn hand_off(&mut self) -> Result<(), StoreError> {
        if self.queued > 0 {
            let mut counts = self.counts.lock().unwrap();
            counts[self.worker].0 += 1;
            counts[self.worker].1 += self.queued;
            self.queued = 0;
        }
        self.inner.hand_off()
    }
    fn recv(&mut self) -> Result<ShardMsg<Point>, StoreError> {
        if self.queued > 0 {
            self.hand_off()?;
        }
        self.inner.recv()
    }
}

struct Dist {
    g: DistTracker<GridSpace>,
    map: Arc<StripShardMap>,
    counts: Counts,
}

impl Dist {
    fn tap(&mut self) {
        for j in 0..self.g.num_shards() {
            let inner = self.g.replace_link(j, Box::new(SeveredLink::new(j as u32)));
            self.g.replace_link(
                j,
                Box::new(CountLink {
                    inner,
                    worker: j,
                    queued: 0,
                    counts: Arc::clone(&self.counts),
                }),
            );
        }
    }
}

impl Subject for Dist {
    type G = DistTracker<GridSpace>;
    fn g(&mut self) -> &mut DistTracker<GridSpace> {
        &mut self.g
    }
    fn edges(&self) -> Option<GraphSnapshot> {
        Some(self.g.snapshot())
    }
    fn rollback(&mut self, updates: &[(AgentId, Step, Point)]) {
        self.g.rollback(updates).unwrap();
    }
    fn recover(&mut self) {
        let shards = self.g.num_shards();
        let dbs: Vec<Arc<Db>> = (0..shards)
            .map(|j| Arc::clone(self.g.worker_db(j)))
            .collect();
        let members: Vec<Vec<u32>> = (0..shards).map(|j| self.g.members(j)).collect();
        self.g = DistTracker::recover(
            space(),
            params(),
            dbs,
            Arc::clone(&self.map) as Arc<dyn ShardMap<Point>>,
            options(EdgeMode::Maintained),
            &members,
        )
        .unwrap();
        self.tap();
    }
    fn extra(&mut self, d: &mut Fnv) {
        for &(hand_offs, requests) in self.counts.lock().unwrap().iter() {
            d.u64(hand_offs);
            d.u64(requests);
        }
        for a in 0..AGENTS {
            d.u64(self.g.shard_of_agent(AgentId(a)) as u64);
        }
    }
}

fn fold_state<T: Subject>(s: &mut T, d: &mut Fnv) {
    match s.edges() {
        Some(snap) => d.snapshot(&snap),
        None => {
            let g = s.g();
            for a in 0..AGENTS {
                let a = AgentId(a);
                d.u64(u64::from(g.step(a).0));
                d.bytes(format!("{:?}", g.pos(a)).as_bytes());
            }
        }
    }
    let g = s.g();
    d.u64(u64::from(g.min_step().0));
    d.u64(u64::from(g.max_step().0));
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

/// Runs the churn of `seed` on `s`: the digest of the states it passed
/// through, the digest of what it reported besides, and the history
/// records it evicted.
fn churn<T: Subject>(mut s: T, seed: u64) -> String {
    let mut rng = Lcg(seed);
    let (mut state, mut extra) = (Fnv::new(), Fnv::new());
    let mut evicted = 0u64;
    fold_state(&mut s, &mut state);
    for op in 0..OPS {
        if op % 37 == 36 {
            s.recover();
        } else if op % 23 == 22 {
            // Everyone one step on: a batch above the parallel-relink
            // threshold.
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
                    s.rollback(&updates);
                }
                _ => evicted += s.g().evict_history().unwrap(),
            }
        }
        fold_state(&mut s, &mut state);
        s.extra(&mut extra);
    }
    s.finish(&mut extra);
    format!(
        "state={:016x} extra={:016x} evicted={evicted}",
        state.0, extra.0
    )
}

fn single(seed: u64, edges: EdgeMode) -> Single {
    let g = DepGraph::new_with_options(
        space(),
        params(),
        Arc::new(Db::new()),
        &initial(seed),
        options(edges),
    )
    .unwrap();
    Single { g, edges }
}

fn sharded(seed: u64, strips: usize) -> Sharded {
    let map = Arc::new(StripShardMap::new(W, strips));
    let g = ShardedDepGraph::new_with_options(
        space(),
        params(),
        Arc::new(Db::new()),
        &initial(seed),
        Arc::clone(&map) as Arc<dyn ShardMap<Point>>,
        options(EdgeMode::Maintained),
    )
    .unwrap();
    let mut s = Sharded {
        g,
        map,
        telemetry: Arc::new(Telemetry::new()),
        recoveries: 0,
    };
    s.mount();
    s
}

fn dist(seed: u64, workers: usize) -> Dist {
    let map = Arc::new(StripShardMap::new(W, workers));
    let g = DistTracker::new(
        space(),
        params(),
        &initial(seed),
        Arc::clone(&map) as Arc<dyn ShardMap<Point>>,
        options(EdgeMode::Maintained),
    )
    .unwrap();
    let mut d = Dist {
        g,
        map,
        counts: Arc::new(Mutex::new(vec![(0, 0); workers])),
    };
    d.tap();
    d
}

/// `(tracker, seed, fingerprint)`, recorded on the parent of the
/// edge-engine change.
const GOLDEN: [(&str, u64, &str); 18] = [
    (
        "depgraph",
        1,
        "state=f6f8a31ba0416ae9 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "depgraph-off",
        1,
        "state=4fb3ec945f0af0f4 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "sharded-1",
        1,
        "state=f6f8a31ba0416ae9 extra=04139eb5e77747c0 evicted=432",
    ),
    (
        "sharded-4",
        1,
        "state=f6f8a31ba0416ae9 extra=d5a8ac41656f09c7 evicted=432",
    ),
    (
        "sharded-16",
        1,
        "state=f6f8a31ba0416ae9 extra=e962e58abefcf57f evicted=432",
    ),
    (
        "dist-w4",
        1,
        "state=f6f8a31ba0416ae9 extra=08759a919d19d037 evicted=432",
    ),
    (
        "depgraph",
        2,
        "state=b94f15abfa07bb52 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "depgraph-off",
        2,
        "state=758564f09f231b58 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "sharded-1",
        2,
        "state=b94f15abfa07bb52 extra=3540f2f27056cd66 evicted=432",
    ),
    (
        "sharded-4",
        2,
        "state=b94f15abfa07bb52 extra=d5c51aaa4face719 evicted=432",
    ),
    (
        "sharded-16",
        2,
        "state=b94f15abfa07bb52 extra=3769e3824be0f473 evicted=432",
    ),
    (
        "dist-w4",
        2,
        "state=b94f15abfa07bb52 extra=d0466d811fb782ab evicted=432",
    ),
    (
        "depgraph",
        3,
        "state=9543d9afecf1fcc0 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "depgraph-off",
        3,
        "state=2df78a46d77b0aa8 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "sharded-1",
        3,
        "state=9543d9afecf1fcc0 extra=8afcd451515a6596 evicted=432",
    ),
    (
        "sharded-4",
        3,
        "state=9543d9afecf1fcc0 extra=39cc738a749791fd evicted=432",
    ),
    (
        "sharded-16",
        3,
        "state=9543d9afecf1fcc0 extra=2fc1ddd1c93a1539 evicted=432",
    ),
    (
        "dist-w4",
        3,
        "state=9543d9afecf1fcc0 extra=0d1ccefbd179fd48 evicted=432",
    ),
];

fn run(tracker: &str, seed: u64) -> String {
    match tracker {
        "depgraph" => churn(single(seed, EdgeMode::Maintained), seed),
        "depgraph-off" => churn(single(seed, EdgeMode::Off), seed),
        "sharded-1" => churn(sharded(seed, 1), seed),
        "sharded-4" => churn(sharded(seed, 4), seed),
        "sharded-16" => churn(sharded(seed, 16), seed),
        "dist-w4" => churn(dist(seed, 4), seed),
        other => panic!("unknown tracker {other}"),
    }
}

#[test]
fn trackers_match_the_recorded_golden() {
    let mut diverged = Vec::new();
    for (tracker, seed, want) in GOLDEN {
        let got = run(tracker, seed);
        if got != want {
            diverged.push(format!("(\"{tracker}\", {seed}, \"{got}\"),"));
        }
    }
    assert!(
        diverged.is_empty(),
        "trackers left the recorded golden:\n{}",
        diverged.join("\n")
    );
}
