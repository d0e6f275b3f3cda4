//! The tracker tests' one harness. [`DepGraph`], [`ShardedDepGraph`] and
//! [`DistTracker`] are one tracker under three names; here they are
//! built, read and recovered one way, as the roster of [`Entry`]s every
//! tracker test runs on. Beside the roster: the seeded [`churn`] the
//! goldens digest, the FNV-1a [`Fnv`] they fold it into, and [`TapLink`],
//! the worker link that records what a distributed tracker hands each
//! worker and can fail a chosen call.
//!
//! An entry dereferences to its `dyn DepTracker`, so tests drive every
//! tracker through its one trait impl. What only some trackers have is
//! behind [`Entry::local`] (an in-process graph's inherent readers) and
//! [`Entry::remote`] (the distributed tracker's workers).

// Each test target uses its own part of the harness.
#![allow(dead_code)]

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions, GraphSnapshot};
use aim_core::dist::{CtrlMsg, DistTracker, SeveredLink, ShardMsg, WorkerLink};
use aim_core::prelude::*;
use aim_core::shard::{ShardMap, ShardedDepGraph, StripShardMap};
use aim_store::{Db, StoreError};

/// Width of the churn's grid.
pub const W: u32 = 96;
/// Height of the churn's grid.
pub const H: u32 = 64;
/// Agents of the churn.
pub const AGENTS: u32 = 72;
/// Side of the square grid the property tests run on.
pub const GRID: u32 = 64;

/// The churn's rule parameters.
pub fn params() -> RuleParams {
    RuleParams::new(3, 1)
}

/// Every roster entry, by [`Spec::named`] name.
pub const ROSTER: [&str; 7] = [
    "depgraph",
    "depgraph-off",
    "depgraph-nohist",
    "sharded-1",
    "sharded-4",
    "sharded-16",
    "dist-w4",
];

/// Which tracker a roster entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A [`DepGraph`]: one shard owning every agent.
    DepGraph,
    /// A [`ShardedDepGraph`] over this many strips of the grid.
    Sharded(usize),
    /// A [`DistTracker`] over this many channel workers, a strip each.
    Dist(usize),
}

/// A roster entry: its tracker and construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub layout: Layout,
    pub options: GraphOptions,
}

impl Spec {
    /// `layout`, maintaining edges and recording history.
    pub fn new(layout: Layout) -> Spec {
        let options = GraphOptions {
            edges: EdgeMode::Maintained,
            history: true,
        };
        Spec { layout, options }
    }

    /// The entry `name` names: `depgraph`, `sharded-N` or `dist-wN`,
    /// recording history unless suffixed `-nohist`; `depgraph-off`
    /// records history but maintains no edges.
    pub fn named(name: &str) -> Spec {
        let (base, edges, history) = if let Some(base) = name.strip_suffix("-nohist") {
            (base, EdgeMode::Maintained, false)
        } else if let Some(base) = name.strip_suffix("-off") {
            (base, EdgeMode::Off, true)
        } else {
            (name, EdgeMode::Maintained, true)
        };
        let count = |n: &str| {
            n.parse()
                .unwrap_or_else(|_| panic!("unknown tracker {name}"))
        };
        let layout = match (base.strip_prefix("sharded-"), base.strip_prefix("dist-w")) {
            _ if base == "depgraph" => Layout::DepGraph,
            (Some(n), _) => Layout::Sharded(count(n)),
            (_, Some(n)) => Layout::Dist(count(n)),
            _ => panic!("unknown tracker {name}"),
        };
        let options = GraphOptions { edges, history };
        Spec { layout, options }
    }

    /// The same entry, recording history or not.
    pub fn with_history(self, history: bool) -> Spec {
        let options = GraphOptions {
            history,
            ..self.options
        };
        Spec { options, ..self }
    }

    /// Whether the tracker maintains its rule edges (`snapshot()` and the
    /// edge queries panic when it does not).
    pub fn maintains_edges(&self) -> bool {
        self.options.edges == EdgeMode::Maintained
    }
}

/// A [`DepGraph`] over `space`, writing to a store of its own.
pub fn depgraph<S: Space>(
    space: Arc<S>,
    params: RuleParams,
    initial: &[S::Pos],
    options: GraphOptions,
) -> DepGraph<S> {
    DepGraph::new_with_options(space, params, Arc::new(Db::new()), initial, options).unwrap()
}

/// A [`ShardedDepGraph`] over `strips` strips of `space`, writing to a
/// store of its own.
pub fn sharded(
    space: Arc<GridSpace>,
    params: RuleParams,
    initial: &[Point],
    strips: usize,
    options: GraphOptions,
) -> ShardedDepGraph<GridSpace> {
    let map = strip_map(&space, strips);
    ShardedDepGraph::new_with_options(space, params, Arc::new(Db::new()), initial, map, options)
        .unwrap()
}

/// A [`DistTracker`] over `workers` strips of `space`: one channel worker
/// and one store per strip.
pub fn distributed(
    space: Arc<GridSpace>,
    params: RuleParams,
    initial: &[Point],
    workers: usize,
    options: GraphOptions,
) -> DistTracker<GridSpace> {
    let map = strip_map(&space, workers);
    DistTracker::new(space, params, initial, map, options).unwrap()
}

fn strip_map(space: &GridSpace, strips: usize) -> Arc<dyn ShardMap<Point>> {
    Arc::new(StripShardMap::new(space.width(), strips))
}

/// An entry's tracker.
enum Graph {
    DepGraph(DepGraph<GridSpace>),
    Sharded(ShardedDepGraph<GridSpace>),
    Dist(DistTracker<GridSpace>),
}

/// `$body` with `$g` bound to the tracker in `$graph`, whichever it is.
macro_rules! each {
    ($graph:expr, $g:ident => $body:expr) => {
        match $graph {
            Graph::DepGraph($g) => $body,
            Graph::Sharded($g) => $body,
            Graph::Dist($g) => $body,
        }
    };
}

/// One tracker of the roster. A distributed tracker's links are tapped
/// from the start; a recovery keeps the taps, the relink threads and the
/// telemetry sink the entry was given.
pub struct Entry {
    pub spec: Spec,
    graph: Graph,
    /// One per worker of a distributed tracker.
    taps: Vec<Arc<Mutex<Tap>>>,
    relink_threads: Option<usize>,
    telemetry: Option<Arc<Telemetry>>,
    recoveries: u32,
}

impl Deref for Entry {
    type Target = dyn DepTracker<GridSpace>;

    fn deref(&self) -> &Self::Target {
        each!(&self.graph, g => g)
    }
}

impl DerefMut for Entry {
    fn deref_mut(&mut self) -> &mut Self::Target {
        each!(&mut self.graph, g => g)
    }
}

impl Entry {
    /// The `spec` tracker over `initial` in `space`.
    pub fn new(spec: Spec, space: &Arc<GridSpace>, params: RuleParams, initial: &[Point]) -> Entry {
        let (space, options) = (Arc::clone(space), spec.options);
        let graph = match spec.layout {
            Layout::DepGraph => Graph::DepGraph(depgraph(space, params, initial, options)),
            Layout::Sharded(n) => Graph::Sharded(sharded(space, params, initial, n, options)),
            Layout::Dist(n) => Graph::Dist(distributed(space, params, initial, n, options)),
        };
        Entry::around(spec, graph)
    }

    /// An entry around `graph`, its worker links tapped.
    fn around(spec: Spec, graph: Graph) -> Entry {
        let taps = match spec.layout {
            Layout::Dist(_) => {
                let workers = each!(&graph, g => g.num_shards());
                (0..workers).map(|_| Arc::default()).collect()
            }
            _ => Vec::new(),
        };
        let mut entry = Entry {
            spec,
            graph,
            taps,
            relink_threads: None,
            telemetry: None,
            recoveries: 0,
        };
        entry.mount();
        entry
    }

    /// The entry `name` on the churn's grid, over [`initial`]`(seed)`.
    pub fn churned(name: &str, seed: u64) -> Entry {
        let space = Arc::new(GridSpace::new(W, H));
        Entry::new(Spec::named(name), &space, params(), &initial(seed))
    }

    /// Taps every worker link on the entry's taps, and gives the tracker
    /// the entry's relink threads and telemetry sink.
    fn mount(&mut self) {
        if let Graph::Dist(g) = &mut self.graph {
            for (j, tap) in self.taps.iter().enumerate() {
                tap_link(g, j, tap);
            }
        }
        if let Some(threads) = self.relink_threads {
            self.local_mut().set_relink_threads(threads);
        }
        if let Some(telemetry) = &self.telemetry {
            let telemetry = Arc::clone(telemetry);
            each!(&mut self.graph, g => g.set_telemetry(telemetry));
        }
    }

    /// The in-process graph: a [`DepGraph`], or the one a
    /// [`ShardedDepGraph`] dereferences to.
    pub fn local(&self) -> &DepGraph<GridSpace> {
        match &self.graph {
            Graph::DepGraph(g) => g,
            Graph::Sharded(g) => g,
            Graph::Dist(_) => panic!("{:?} is not an in-process graph", self.spec),
        }
    }

    /// [`Entry::local`], mutably.
    pub fn local_mut(&mut self) -> &mut DepGraph<GridSpace> {
        match &mut self.graph {
            Graph::DepGraph(g) => g,
            Graph::Sharded(g) => g,
            Graph::Dist(_) => panic!("{:?} is not an in-process graph", self.spec),
        }
    }

    /// The distributed tracker.
    pub fn remote(&mut self) -> &mut DistTracker<GridSpace> {
        match &mut self.graph {
            Graph::Dist(g) => g,
            _ => panic!("{:?} has no workers", self.spec),
        }
    }

    /// Sets the in-process graph's relink threads, now and after every
    /// recovery.
    pub fn set_relink_threads(&mut self, threads: usize) {
        self.relink_threads = Some(threads);
        self.local_mut().set_relink_threads(threads);
    }

    /// Attaches `telemetry` to the tracker, now and after every recovery.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(Arc::clone(&telemetry));
        each!(&mut self.graph, g => g.set_telemetry(telemetry));
    }

    /// The maintained edges.
    pub fn snapshot(&self) -> GraphSnapshot {
        each!(&self.graph, g => g.snapshot())
    }

    /// The tracker's stores, once every queued write has landed.
    pub fn stores(&self) -> Vec<Arc<Db>> {
        match &self.graph {
            Graph::Dist(g) => (0..g.num_shards())
                .map(|j| Arc::clone(g.worker_db(j)))
                .collect(),
            _ => vec![Arc::clone(self.local().db())],
        }
    }

    /// The members of each shard, ascending by id.
    pub fn members(&self) -> Vec<Vec<u32>> {
        each!(&self.graph, g => (0..g.num_shards()).map(|j| g.members(j)).collect())
    }

    pub fn num_shards(&self) -> usize {
        each!(&self.graph, g => g.num_shards())
    }

    pub fn shard_of_agent(&self, a: AgentId) -> usize {
        each!(&self.graph, g => g.shard_of_agent(a))
    }

    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        each!(&self.graph, g => g.blockers_of(a))
    }

    pub fn history_records(&self) -> u64 {
        each!(&self.graph, g => g.history_records())
    }

    pub fn history_floor(&self) -> Step {
        each!(&self.graph, g => g.history_floor())
    }

    /// Holds the mirror to the states its stores hold (a quiesce point
    /// of either sink), its partition to the map and its edges to a
    /// from-scratch rebuild; panics on any disagreement.
    pub fn check_invariants(&self) {
        each!(&self.graph, g => g.check_invariants())
    }

    /// The tracker rebuilt from its settled stores and its shard
    /// membership: a sharded tracker from its recorded membership when
    /// `by_members`, else by rescanning the records; a distributed one
    /// always from its membership.
    fn rebuilt(&self, by_members: bool) -> Graph {
        let (space, params) = each!(&self.graph, g => (Arc::clone(g.space()), g.params()));
        let dist = matches!(self.spec.layout, Layout::Dist(_));
        let members = (by_members || dist).then(|| self.members());
        let stores = self.stores();
        rebuild(
            self.spec,
            space,
            params,
            self.len(),
            stores,
            members.as_deref(),
        )
    }

    /// A new entry: this tracker rebuilt as [`Entry::recover`] does, a
    /// sharded one from its recorded membership when `by_members`.
    pub fn recovered(&self, by_members: bool) -> Entry {
        Entry::around(self.spec, self.rebuilt(by_members))
    }

    /// The `spec` tracker of `agents` agents rebuilt from the records of
    /// `stores` alone, a sharded one by rescanning them.
    pub fn from_stores(
        spec: Spec,
        space: &Arc<GridSpace>,
        params: RuleParams,
        agents: usize,
        stores: Vec<Arc<Db>>,
    ) -> Entry {
        let graph = rebuild(spec, Arc::clone(space), params, agents, stores, None);
        Entry::around(spec, graph)
    }

    /// Replaces the tracker with one rebuilt from its stores, a sharded
    /// tracker alternately by rescanning and from its membership.
    pub fn recover(&mut self) {
        self.recoveries += 1;
        self.graph = self.rebuilt(self.recoveries.is_multiple_of(2));
        self.mount();
    }

    /// What worker `j`'s link has seen.
    pub fn tap(&self, j: usize) -> MutexGuard<'_, Tap> {
        self.taps[j].lock().unwrap()
    }

    /// The hand-offs each worker received since they were last taken.
    pub fn take_hand_offs(&self) -> Vec<Vec<Vec<&'static str>>> {
        (self.taps.iter())
            .map(|tap| std::mem::take(&mut tap.lock().unwrap().hand_offs))
            .collect()
    }

    /// Respawns worker `j` from its own store, on a fresh tap.
    pub fn respawn(&mut self, j: usize) -> Result<(), StoreError> {
        let Graph::Dist(g) = &mut self.graph else {
            panic!("{:?} has no workers", self.spec);
        };
        g.respawn_worker(j)?;
        self.taps[j] = Arc::default();
        tap_link(g, j, &self.taps[j]);
        Ok(())
    }
}

/// `spec`'s tracker of `n` agents rebuilt from `stores`: a sharded one
/// from `members` when given, else by rescanning the records; a
/// distributed one needs them.
fn rebuild(
    spec: Spec,
    space: Arc<GridSpace>,
    params: RuleParams,
    n: usize,
    stores: Vec<Arc<Db>>,
    members: Option<&[Vec<u32>]>,
) -> Graph {
    let options = spec.options;
    let mut stores = stores.into_iter();
    match (spec.layout, members) {
        (Layout::DepGraph, _) => {
            let db = stores.next().unwrap();
            let g = DepGraph::recover_with_options(space, params, db, n, options);
            Graph::DepGraph(g.unwrap())
        }
        (Layout::Sharded(strips), members) => {
            let (db, map) = (stores.next().unwrap(), strip_map(&space, strips));
            let g = match members {
                Some(m) => {
                    ShardedDepGraph::recover_with_members(space, params, db, n, map, options, m)
                }
                None => ShardedDepGraph::recover(space, params, db, n, map, options),
            };
            Graph::Sharded(g.unwrap())
        }
        (Layout::Dist(workers), Some(m)) => {
            let map = strip_map(&space, workers);
            let g = DistTracker::recover(space, params, stores.collect(), map, options, m);
            Graph::Dist(g.unwrap())
        }
        (Layout::Dist(_), None) => panic!("a distributed tracker recovers from its membership"),
    }
}

/// Checks `subject` against `oracle`, fed the same operations: the
/// subject's invariants, then edges, step extremes, validity, every
/// agent's blockers and coupling partners, and the resident history.
pub fn assert_equivalent(subject: &mut Entry, oracle: &Entry) {
    subject.check_invariants();
    assert_eq!(subject.snapshot(), oracle.snapshot(), "graphs diverged");
    assert_eq!(subject.min_step(), oracle.min_step());
    assert_eq!(subject.max_step(), oracle.max_step());
    assert_eq!(subject.validate().is_ok(), oracle.validate().is_ok());
    for a in 0..subject.len() as u32 {
        let a = AgentId(a);
        assert_eq!(
            subject.first_blocker(a),
            oracle.first_blocker(a),
            "first blocker of {a} diverged"
        );
        assert_eq!(subject.coupled_of(a), oracle.coupled_of(a));
        assert_eq!(subject.blockers_of(a), oracle.blockers_of(a));
    }
    assert_eq!(subject.history_records(), oracle.history_records());
    assert_eq!(subject.history_floor(), oracle.history_floor());
}

/// `subject` and a [`DepGraph`] oracle, both recording history, over
/// `points` on a grid `width` wide and [`GRID`] high.
pub fn pair(
    subject: Layout,
    width: u32,
    points: &[(i32, i32)],
    params: RuleParams,
) -> (Entry, Entry) {
    let space = Arc::new(GridSpace::new(width, GRID));
    let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let oracle = Entry::new(Spec::new(Layout::DepGraph), &space, params, &initial);
    (
        Entry::new(Spec::new(subject), &space, params, &initial),
        oracle,
    )
}

/// Feeds `subject` and `oracle` the operation `(pick, kind, dx, dy)` on
/// agent `pick`: an advance by `(dx, dy)` when `kind < 8` or the agent is
/// at step 0; when `kind == 11` an eviction, which must evict as much on
/// both (`min_step` is the same on both); else a rollback to a legal
/// step, at or above the global minimum, moved by `(dx, dy)`.
pub fn apply_both(subject: &mut Entry, oracle: &mut Entry, op: (u16, u8, i32, i32)) {
    let (pick, kind, dx, dy) = op;
    let a = AgentId(pick as u32 % subject.len() as u32);
    let cur = subject.pos(a);
    let moved = Point::new(cur.x + dx, cur.y + dy);
    if kind < 8 || subject.step(a) == Step::ZERO {
        subject.advance(&[(a, moved)]).unwrap();
        oracle.advance(&[(a, moved)]).unwrap();
    } else if kind == 11 {
        let evicted = subject.evict_history().unwrap();
        let want = oracle.evict_history().unwrap();
        assert_eq!(evicted, want, "evicted counts diverged");
    } else {
        let lo = subject.min_step().0;
        let target = Step(lo + pick as u32 % (subject.step(a).0 - lo + 1));
        subject.rollback(&[(a, target, moved)]).unwrap();
        oracle.rollback(&[(a, target, moved)]).unwrap();
    }
}

/// Advances the distinct agents `batch` picks, each by its `(dx, dy)`, on
/// `subject` and `oracle`: one cluster commit (a cluster never repeats
/// members).
pub fn commit_both(subject: &mut Entry, oracle: &mut Entry, batch: &[(u16, i32, i32)]) {
    let mut updates: Vec<(AgentId, Point)> = Vec::new();
    for &(pick, dx, dy) in batch {
        let a = AgentId(pick as u32 % subject.len() as u32);
        if updates.iter().any(|(x, _)| *x == a) {
            continue;
        }
        let cur = subject.pos(a);
        updates.push((a, Point::new(cur.x + dx, cur.y + dy)));
    }
    subject.advance(&updates).unwrap();
    oracle.advance(&updates).unwrap();
}

/// FNV-1a, fed bytes and little-endian integers.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Every node, then the blocked and the coupled edges, each list
    /// length-prefixed.
    pub fn snapshot(&mut self, s: &GraphSnapshot) {
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

    /// Every record of `db` in key order and their count, then its
    /// `DbStats` counters.
    pub fn store(&mut self, db: &Db) {
        let records = db.scan_prefix(b"");
        for (k, v) in &records {
            self.u64(k.len() as u64);
            self.bytes(k);
            self.u64(v.len() as u64);
            self.bytes(v);
        }
        self.u64(records.len() as u64);
        let stats = db.stats();
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

/// Every `(key, value)` of `db`, in key order.
pub fn records(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.scan_prefix(b"")
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

/// A small deterministic generator.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }

    /// Uniform in `-reach..=reach`.
    pub fn offset(&mut self, reach: i32) -> i32 {
        self.below(2 * reach as u32 + 1) as i32 - reach
    }
}

/// The churn's [`AGENTS`] starting points for `seed`.
pub fn initial(seed: u64) -> Vec<Point> {
    let mut rng = Lcg(seed ^ 0x5eed);
    (0..AGENTS)
        .map(|_| Point::new(rng.below(W) as i32, rng.below(H) as i32))
        .collect()
}

/// `p`, moved onto `space`.
pub fn clamp(space: &GridSpace, p: Point) -> Point {
    let (w, h) = (space.width() as i32, space.height() as i32);
    Point::new(p.x.clamp(0, w - 1), p.y.clamp(0, h - 1))
}

/// `count` distinct agents of the churn picked by `rng`.
pub fn pick(rng: &mut Lcg, count: u32) -> Vec<AgentId> {
    let mut out: Vec<AgentId> = Vec::new();
    while (out.len() as u32) < count {
        let a = AgentId(rng.below(AGENTS));
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

/// How long a [`churn`] runs, and every how many operations it recovers
/// the tracker from its stores and sweeps every agent one step on.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    pub ops: u32,
    pub recover: u32,
    pub sweep: u32,
}

/// Runs the churn of `seed` on `entry`, an [`Entry::churned`] one: batch
/// advances of up to six agents, multi-step rollbacks of up to three,
/// `evict_history`, and at their cadence a recovery from the stores and
/// a sweep (a batch above the parallel-relink threshold). Calls `after`
/// after every operation; returns the history records evicted.
pub fn churn(
    entry: &mut Entry,
    seed: u64,
    cadence: Cadence,
    mut after: impl FnMut(&mut Entry),
) -> u64 {
    let grid = GridSpace::new(W, H);
    let mut rng = Lcg(seed);
    let mut evicted = 0u64;
    for op in 0..cadence.ops {
        if op % cadence.recover == cadence.recover - 1 {
            entry.recover();
        } else if op % cadence.sweep == cadence.sweep - 1 {
            let all: Vec<(AgentId, Point)> = (0..AGENTS)
                .map(|a| {
                    let cur = entry.pos(AgentId(a));
                    (AgentId(a), clamp(&grid, Point::new(cur.x + 1, cur.y)))
                })
                .collect();
            entry.advance(&all).unwrap();
        } else {
            match rng.below(10) {
                0..=5 => {
                    let size = 1 + rng.below(6);
                    let updates: Vec<(AgentId, Point)> = (pick(&mut rng, size).into_iter())
                        .map(|a| {
                            let cur = entry.pos(a);
                            let (dx, dy) = (rng.offset(5), rng.offset(3));
                            (a, clamp(&grid, Point::new(cur.x + dx, cur.y + dy)))
                        })
                        .collect();
                    entry.advance(&updates).unwrap();
                }
                6..=8 => {
                    let size = 1 + rng.below(3);
                    let lo = entry.min_step().0;
                    let updates: Vec<(AgentId, Step, Point)> = (pick(&mut rng, size).into_iter())
                        .map(|a| {
                            let target = Step(lo + rng.below(entry.step(a).0 - lo + 1));
                            let cur = entry.pos(a);
                            let (dx, dy) = (rng.offset(4), rng.offset(4));
                            (a, target, clamp(&grid, Point::new(cur.x + dx, cur.y + dy)))
                        })
                        .collect();
                    entry.rollback(&updates).unwrap();
                }
                _ => evicted += entry.evict_history().unwrap(),
            }
        }
        after(entry);
    }
    evicted
}

/// Which [`WorkerLink`] call a [`Fault`] strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Call {
    /// `send`: the request, and everything queued before it, is lost.
    Queue,
    /// `hand_off`, before anything reaches the worker.
    HandOffLost,
    /// `hand_off`, after the worker has the requests (and applies them).
    HandOffDelivered,
    /// `recv`: the worker applied the hand-off; its replies are lost.
    Receive,
}

/// Fail the `countdown`-th next call of kind `call`, and every call
/// after it: a crash, not a hiccup.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub call: Call,
    pub countdown: usize,
}

/// What a [`TapLink`] has seen, shared with the test.
#[derive(Debug, Default)]
pub struct Tap {
    /// The request names of every hand-off, in order.
    pub hand_offs: Vec<Vec<&'static str>>,
    /// Whether each delivered, still unanswered request is a `Depart`.
    pub unanswered: VecDeque<bool>,
    pub fault: Option<Fault>,
    pub dead: bool,
    /// Set when the link died owing the reply to a `Depart`: the only
    /// copy of the departed agents' history died with it.
    pub lost_departure: bool,
}

impl Tap {
    /// Whether this call is the one the armed fault strikes.
    fn strikes(&mut self, call: Call) -> bool {
        match &mut self.fault {
            Some(f) if f.call == call && f.countdown == 0 => true,
            Some(f) if f.call == call => {
                f.countdown -= 1;
                false
            }
            _ => false,
        }
    }

    fn die<T>(&mut self) -> Result<T, StoreError> {
        self.dead = true;
        self.lost_departure |= self.unanswered.contains(&true);
        Err(StoreError::Codec("injected link fault".into()))
    }
}

/// A [`WorkerLink`] around the real one that records every hand-off and
/// fails on demand.
pub struct TapLink {
    inner: Box<dyn WorkerLink<Point>>,
    queued: Vec<&'static str>,
    tap: Arc<Mutex<Tap>>,
}

fn request_name(msg: &CtrlMsg<Point>) -> &'static str {
    match msg {
        CtrlMsg::Commit { .. } => "Commit",
        CtrlMsg::Rollback { .. } => "Rollback",
        CtrlMsg::Depart { .. } => "Depart",
        CtrlMsg::Arrive { .. } => "Arrive",
        CtrlMsg::RelinkQuery { .. } => "RelinkQuery",
        _ => "other",
    }
}

impl WorkerLink<Point> for TapLink {
    fn send(&mut self, msg: CtrlMsg<Point>) -> Result<(), StoreError> {
        let mut tap = self.tap.lock().unwrap();
        if tap.dead || tap.strikes(Call::Queue) {
            return tap.die();
        }
        self.queued.push(request_name(&msg));
        self.inner.send(msg)
    }

    fn hand_off(&mut self) -> Result<(), StoreError> {
        let mut tap = self.tap.lock().unwrap();
        if tap.dead || tap.strikes(Call::HandOffLost) {
            return tap.die();
        }
        if self.queued.is_empty() {
            return Ok(());
        }
        self.inner.hand_off()?;
        tap.unanswered
            .extend(self.queued.iter().map(|&name| name == "Depart"));
        tap.hand_offs.push(std::mem::take(&mut self.queued));
        if tap.strikes(Call::HandOffDelivered) {
            return tap.die();
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<ShardMsg<Point>, StoreError> {
        if !self.queued.is_empty() {
            self.hand_off()?;
        }
        let mut tap = self.tap.lock().unwrap();
        if tap.dead || tap.strikes(Call::Receive) {
            return tap.die();
        }
        let reply = self.inner.recv()?;
        tap.unanswered.pop_front();
        Ok(reply)
    }
}

/// Wraps worker `j`'s current link in a [`TapLink`] on `tap`.
fn tap_link(g: &mut DistTracker<GridSpace>, j: usize, tap: &Arc<Mutex<Tap>>) {
    let inner = g.replace_link(j, Box::new(SeveredLink::new(j as u32)));
    let tap = Arc::clone(tap);
    let queued = Vec::new();
    g.replace_link(j, Box::new(TapLink { inner, queued, tap }));
}
