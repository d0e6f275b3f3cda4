//! Allocation budgets for the cluster commit (in process and across the
//! `dist` boundary) and the speculative cycle.
//!
//! `DepGraph::advance` is on every workload's blocking path, and what it
//! costs is mostly what it allocates. It writes behind: its moves queue,
//! and land as one batch per `dist::WINDOW` calls. The store holds every
//! key and record inline, so the budget is nothing at all (0.00 measured,
//! bound 0.05): not a stored record per move, not the counter's new
//! value, not the queue or the transaction's bookkeeping, not adjacency
//! lists freed by the detach and reallocated by the relink, not a grid
//! bucket per emptied cell.
//!
//! `SpecScheduler` wraps that commit in emission vetting, entry
//! bookkeeping and retirement. Its budget on top of the commit: the
//! member list handed to the caller and the list of ready clusters —
//! not a set and a stack per cluster grown, not a copy of the cluster
//! per emission, not a copy of the members per retirement attempt
//! (2.26 measured, bound 2.4).
//!
//! `DistTracker::advance` is the same commit with the store on the far
//! side of a message boundary. Its budget: the messages' own payloads —
//! the write, one probe list per worker asked, one edge list per worker
//! that found any — and nothing per hand-off, per grouping map, per reply
//! or per record a worker stores; the workers' threads are counted too
//! (1.17 and 4.04 measured at 1 and 4 members, bounds 1.25 and 4.3).
//!
//! `run_sim` and `run_spec_sim` put the virtual-time kernel around those
//! two: event heap, backlog, one active record per cluster, the request
//! map. Its budget is what the loop allocates per agent-step on the same
//! replay since the store holds records inline (6.15 conservative, 5.25
//! at run-ahead 4) plus a 0.1 margin, so neither a per-event completion
//! list nor a per-round due list nor a batch per commit nor a stored
//! record per agent-step can come back.
//!
//! Every count is deterministic (the same in debug and release, run after
//! run), so each bound is its measured count plus a small margin: 0.05
//! on counts of 0, 0.1 on the replays, 6–7 % on the dist commits and the
//! speculative cycle.
//!
//! `Fleet::call` is every live-world LLM call's way to a replica. Its
//! own share — routing views, tried set, fault gate, prefix residency,
//! latency histogram — allocates nothing once the prefix caches hold
//! the callers, so a clean call over instant replicas allocates 0.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aim_core::depgraph::{DepGraph, DepTracker, GraphOptions};
use aim_core::dist::DistTracker;
use aim_core::rules::RuleParams;
use aim_core::scheduler::Cluster;
use aim_core::shard::StripShardMap;
use aim_core::space::{GridSpace, Point};
use aim_core::spec::{SpecParams, SpecScheduler};
use aim_core::workload::{CallSpec, Workload};
use aim_core::{AgentId, Engine, Step};
use aim_llm::{
    presets, CallKind, FleetConfig, LlmBackend, LlmRequest, ReplicaSpec, RequestId,
    RoutePolicyKind, ServerConfig,
};
use aim_store::Db;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting `alloc`/`realloc` calls.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` through this allocator
        // and the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const AGENTS: u32 = 25;
const WARM_UP: usize = 500;
const MEASURED: usize = 5_000;

/// Twenty-five agents on a 5 × 5 lattice 16 units apart, each pacing a
/// 10-unit stretch a cell or two per step. Neighbours come within 6 units
/// of each other and no closer: never coupled (5) and never invalid one
/// step apart (4), but blocked edges (6) form and break all the time, so
/// the mirror's adjacency lists, grid cells and step index all churn.
struct Walk<G> {
    graph: G,
    tick: Vec<i32>,
}

impl Walk<DepGraph<GridSpace>> {
    fn new() -> Self {
        let home: Vec<Point> = (0..AGENTS).map(Self::home).collect();
        let graph = DepGraph::new(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &home,
        )
        .expect("initial population");
        Walk {
            graph,
            tick: vec![0; AGENTS as usize],
        }
    }
}

impl Walk<DistTracker<GridSpace>> {
    /// The same walk on four channel workers, one per 25-unit strip: the
    /// middle columns pace across strip boundaries, so migrations are
    /// part of the mix.
    fn new_dist() -> Self {
        let home: Vec<Point> = (0..AGENTS).map(Self::home).collect();
        let graph = DistTracker::new(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            &home,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
        )
        .expect("initial population");
        Walk {
            graph,
            tick: vec![0; AGENTS as usize],
        }
    }
}

impl<G: DepTracker<GridSpace>> Walk<G> {
    fn home(a: u32) -> Point {
        Point::new(10 + 16 * (a % 5) as i32, 10 + 16 * (a / 5) as i32)
    }

    /// Where `a` stands after its next step (a triangle wave of one- and
    /// two-unit strides along x, inside its box).
    fn next(&mut self, a: u32) -> (AgentId, Point) {
        let t = &mut self.tick[a as usize];
        *t += 1 + (*t + a as i32) % 2;
        let phase = *t % 20;
        let dx = if phase < 10 { phase } else { 20 - phase };
        let home = Self::home(a);
        (AgentId(a), Point::new(home.x + dx, home.y))
    }

    /// Commits `commits` clusters of `size` agents, round-robin over the
    /// first `size * (AGENTS / size)` agents (the rest follow one by one,
    /// uncounted, so no agent falls a step behind), and returns the heap
    /// allocations made inside the counted `advance` calls.
    fn run(&mut self, size: u32, commits: usize) -> u64 {
        let clusters = AGENTS / size;
        let mut counted = 0;
        let mut updates = Vec::with_capacity(size as usize);
        for commit in 0..commits {
            let cluster = commit as u32 % clusters;
            updates.clear();
            updates.extend((cluster * size..(cluster + 1) * size).map(|a| self.next(a)));
            let before = ALLOCS.load(Ordering::Relaxed);
            self.graph.advance(&updates).expect("commit");
            counted += ALLOCS.load(Ordering::Relaxed) - before;
            if cluster + 1 == clusters {
                for a in clusters * size..AGENTS {
                    let straggler = [self.next(a)];
                    self.graph.advance(&straggler).expect("commit");
                }
            }
        }
        counted
    }
}

/// 250 agents on a 25 × 10 lattice 16 units apart, each pacing the same
/// 10-unit stretch one unit per step from its own phase, under run-ahead
/// 4. Neighbours come within 6 units and no closer: never coupled (5),
/// so every cluster is a singleton and no entry is ever squashed, but an
/// agent one step ahead of a neighbour 6 away is blocked — it runs ahead,
/// its entries wait on clearance, and retirement keeps re-checking them.
/// Clusters complete in a scrambled order, so the step skew, the entry
/// table and the retire-watch lists all stay busy.
struct SpecWalk {
    sched: SpecScheduler<GridSpace>,
    pending: Vec<Cluster>,
    lcg: u64,
}

const SPEC_AGENTS: u32 = 250;

impl SpecWalk {
    fn new() -> Self {
        let initial: Vec<Point> = (0..SPEC_AGENTS).map(|a| Self::pos(a, 0)).collect();
        let sched = SpecScheduler::new(
            Arc::new(GridSpace::new(420, 180)),
            RuleParams::genagent(),
            SpecParams::new(4),
            Arc::new(Db::new()),
            &initial,
            Step(u32::MAX),
        )
        .expect("initial population");
        SpecWalk {
            sched,
            pending: Vec::new(),
            lcg: 42,
        }
    }

    /// Where `a` stands before executing `step`: a triangle wave along x.
    fn pos(a: u32, step: u32) -> Point {
        let phase = (step + 7 * a) % 20;
        let dx = if phase < 10 { phase } else { 20 - phase } as i32;
        Point::new(10 + 16 * (a % 25) as i32 + dx, 10 + 16 * (a / 25) as i32)
    }

    /// Completes `commits` clusters, pulling ready clusters before each,
    /// and returns the heap allocations made inside the scheduler calls.
    fn run(&mut self, commits: usize) -> u64 {
        let mut counted = 0;
        for _ in 0..commits {
            let before = ALLOCS.load(Ordering::Relaxed);
            let ready = self.sched.ready_clusters().expect("emission");
            counted += ALLOCS.load(Ordering::Relaxed) - before;
            self.pending.extend(ready);
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (self.lcg >> 33) as usize % self.pending.len();
            let cluster = self.pending.swap_remove(pick);
            let a = cluster.members[0];
            let update = [(a, Self::pos(a.0, cluster.step.0 + 1))];
            let before = ALLOCS.load(Ordering::Relaxed);
            let outcome = self.sched.complete(&cluster.id, &update).expect("commit");
            counted += ALLOCS.load(Ordering::Relaxed) - before;
            assert!(outcome.committed, "nothing in this walk races");
        }
        counted
    }
}

/// One row of [`SpecWalk`]'s lattice replayed for 200 steps, one call
/// per agent-step.
struct Replay;

impl Workload<Point> for Replay {
    fn num_agents(&self) -> usize {
        AGENTS as usize
    }
    fn target_step(&self) -> Step {
        Step(200)
    }
    fn initial_pos(&self, a: AgentId) -> Point {
        SpecWalk::pos(a.0, 0)
    }
    fn calls(&self, a: AgentId, s: Step) -> Vec<CallSpec> {
        vec![CallSpec::new(
            80 + (a.0 + s.0) % 40,
            4 + (a.0 * s.0) % 9,
            CallKind::Plan,
        )]
    }
    fn pos_after(&self, a: AgentId, s: Step) -> Point {
        SpecWalk::pos(a.0, s.0 + 1)
    }
}

/// Heap allocations per executed agent-step of one whole virtual-time
/// replay of [`Replay`] (scheduler and server construction included),
/// conservative or under `speculation`.
fn replay_allocs_per_agent_step(speculation: Option<SpecParams>) -> f64 {
    let mut builder = Engine::builder(GridSpace::new(420, 180)).server(ServerConfig::from_preset(
        presets::tiny_test(),
        2,
        true,
    ));
    if let Some(spec) = speculation {
        builder = builder.speculation(spec);
    }
    let engine = builder.build();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = engine.run_replay(&Replay).expect("replay");
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    counted as f64 / report.sched.agent_steps as f64
}

/// Heap allocations made by `calls` clean calls through a four-replica
/// prefix-affinity fleet of instant replicas. The warm-up fills the
/// prefix caches and grows each one's recency queue to the length where
/// it compacts in place (four times the 50-key capacity, plus 16).
fn fleet_call_allocs(calls: usize) -> u64 {
    let mut cfg = FleetConfig::new("budget", RoutePolicyKind::PrefixAffinity)
        .with_prefix_lru_entries(2 * AGENTS);
    for _ in 0..4 {
        cfg = cfg.with_replica(ReplicaSpec::instant());
    }
    let fleet = cfg.build();
    let req = |i: usize| {
        let agent = i as u32 % AGENTS;
        LlmRequest::new(RequestId(i as u64), agent, i as u64, 200, 4, CallKind::Plan)
            .with_template(agent % 5, 100)
    };
    for i in 0..4 * WARM_UP {
        fleet.call(&req(i));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 4 * WARM_UP..4 * WARM_UP + calls {
        fleet.call(&req(i));
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn cluster_commit_stays_within_its_allocation_budget() {
    for (size, budget) in [(1u32, 0.05f64), (4, 0.05)] {
        let mut walk = Walk::new();
        walk.run(size, WARM_UP);
        let per_commit = walk.run(size, MEASURED) as f64 / MEASURED as f64;
        println!("{size}-member commit: {per_commit:.2} allocations");
        assert!(
            per_commit <= budget,
            "{size}-member commits average {per_commit:.2} heap allocations, budget {budget}"
        );
        walk.graph
            .validate()
            .expect("the walk keeps the graph valid");
    }

    // The same commits across the dist boundary, in the same test (see
    // the module docs); worker threads allocate inside the window too.
    for (size, budget) in [(1u32, 1.25f64), (4, 4.3)] {
        let mut walk = Walk::new_dist();
        walk.run(size, WARM_UP);
        let per_commit = walk.run(size, MEASURED) as f64 / MEASURED as f64;
        println!("{size}-member dist commit: {per_commit:.2} allocations");
        assert!(
            per_commit <= budget,
            "{size}-member dist commits average {per_commit:.2} heap allocations, budget {budget}"
        );
        walk.graph
            .validate()
            .expect("the walk keeps the graph valid");
    }

    // The speculative cycle, in the same test (see the module docs).
    // Four times the warm-up: the skew takes that long to build.
    let mut walk = SpecWalk::new();
    walk.run(4 * WARM_UP);
    let per_commit = walk.run(MEASURED) as f64 / MEASURED as f64;
    let stats = walk.sched.stats();
    println!(
        "speculative cycle: {per_commit:.2} allocations per commit \
         ({} of {} emissions ran ahead, skew {})",
        stats.emitted_spec,
        stats.emitted_firm + stats.emitted_spec,
        walk.sched.current_skew()
    );
    assert!(
        stats.emitted_spec > stats.emitted_firm / 10 && stats.squashed_steps == 0,
        "the walk must speculate, and never race: {stats:?}"
    );
    assert!(
        per_commit <= 2.4,
        "a speculative emit-commit-retire cycle averages {per_commit:.2} heap allocations, budget 2.4"
    );

    // A clean fleet call, in the same test (see the module docs).
    let allocs = fleet_call_allocs(MEASURED);
    println!("fleet call: {allocs} allocations over {MEASURED} calls");
    assert_eq!(allocs, 0, "clean fleet calls must not allocate");

    // The virtual-time kernel around both schedulers, in the same test
    // (see the module docs).
    for (speculation, budget) in [(None, 6.25f64), (Some(SpecParams::new(4)), 5.35)] {
        let per_step = replay_allocs_per_agent_step(speculation);
        println!("virtual-time replay, {speculation:?}: {per_step:.2} allocations per agent-step");
        assert!(
            per_step <= budget,
            "a replayed agent-step ({speculation:?}) averages {per_step:.2} heap allocations, budget {budget}"
        );
    }
}
