//! Property tests for speculative execution (paper §6, `aim_core::spec`).
//!
//! The contract under test: for *any* agent layout, movement pattern,
//! run-ahead budget, and adversarial completion order, the speculative
//! scheduler (a) terminates with every agent retired at the target step,
//! (b) produces exactly the same simulation outcome as the conservative
//! §3.2 schedule (replay determinism makes outcomes comparable), and
//! (c) keeps its books straight — every emitted execution is eventually
//! retired exactly once or reported squashed/poisoned.

mod common;

use std::sync::Arc;

use aim_core::depgraph::{DepGraph, GraphOptions};
use aim_core::dist::DistTracker;
use aim_core::policy::DependencyPolicy;
use aim_core::prelude::*;
use aim_core::shard::ShardedDepGraph;
use aim_core::space::SpatialIndex;
use aim_core::spec::{SpecParams, SpecScheduler, SpecStats};
use aim_core::workload::CallSpec;
use aim_llm::{presets, CallKind, ServerConfig, SimServer};
use aim_store::{Db, StoreError};
use bytes::{Bytes, BytesMut};
use common::Fnv;
use proptest::prelude::*;

/// Deterministic per-(agent, step) hash — the replay-mode contract.
fn mix(seed: u64, agent: u32, step: u32) -> u64 {
    let mut x = seed ^ ((agent as u64) << 32) ^ step as u64;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 32;
    x
}

/// A replayable workload whose calls and unit-step movement derive from a
/// seed: identical queries always return identical answers, so squashed
/// steps re-execute bit-identically (the paper's replay mode).
#[derive(Debug, Clone)]
struct HashWorkload {
    initial: Vec<Point>,
    target: Step,
    seed: u64,
}

impl HashWorkload {
    fn pos(&self, agent: AgentId, steps_done: u32) -> Point {
        let mut p = self.initial[agent.index()];
        for s in 0..steps_done {
            let d = mix(self.seed, agent.0, s) % 5;
            let (dx, dy) = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][d as usize];
            p = Point::new(p.x + dx, p.y + dy);
        }
        p
    }
}

impl Workload<Point> for HashWorkload {
    fn num_agents(&self) -> usize {
        self.initial.len()
    }
    fn target_step(&self) -> Step {
        self.target
    }
    fn initial_pos(&self, agent: AgentId) -> Point {
        self.initial[agent.index()]
    }
    fn calls(&self, agent: AgentId, step: Step) -> Vec<CallSpec> {
        let h = mix(self.seed ^ 0xabcd, agent.0, step.0);
        let n = (h % 3) as usize; // 0..=2 calls per step
        (0..n)
            .map(|i| {
                let hh = mix(h, agent.0, i as u32);
                CallSpec::new(50 + (hh % 300) as u32, 4 + (hh % 40) as u32, CallKind::Plan)
            })
            .collect()
    }
    fn pos_after(&self, agent: AgentId, step: Step) -> Point {
        self.pos(agent, step.0 + 1)
    }
}

fn arb_points(n: usize, extent: i32) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0..extent, 0..extent), n..=n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Runs the conservative scheduler over the workload (complete everything
/// each round) and returns the final per-agent positions.
fn conservative_outcome(w: &HashWorkload) -> Vec<Point> {
    let mut sched = Scheduler::new(
        Arc::new(GridSpace::new(64, 64)),
        RuleParams::genagent(),
        DependencyPolicy::Spatiotemporal,
        Arc::new(Db::new()),
        &w.initial,
        w.target,
    )
    .unwrap();
    let mut safety = 0;
    while !sched.is_done() {
        safety += 1;
        assert!(safety < 100_000, "conservative run failed to converge");
        for c in sched.ready_clusters() {
            let pos: Vec<(AgentId, Point)> = c
                .members
                .iter()
                .map(|m| (*m, w.pos_after(*m, c.step)))
                .collect();
            sched.complete(&c.id, &pos).unwrap();
        }
    }
    (0..w.initial.len())
        .map(|a| sched.graph().pos(AgentId(a as u32)))
        .collect()
}

/// [`GridSpace`] without its index: every neighbourhood question falls
/// back to naming the whole population, which is the linear reference
/// the indexed path must agree with — and the path `SocialSpace` runs in
/// production.
#[derive(Debug)]
struct Unindexed(GridSpace);

impl Space for Unindexed {
    type Pos = Point;
    fn dist(&self, a: Point, b: Point) -> f64 {
        self.0.dist(a, b)
    }
    fn within_units(&self, a: Point, b: Point, units: u64) -> bool {
        self.0.within_units(a, b, units)
    }
    fn encode_pos(&self, pos: Point, buf: &mut BytesMut) {
        self.0.encode_pos(pos, buf)
    }
    fn decode_pos(&self, buf: &mut Bytes) -> Result<Point, StoreError> {
        self.0.decode_pos(buf)
    }
    fn make_index(
        &self,
        _cell_units: u64,
        _population: usize,
    ) -> Option<Box<dyn SpatialIndex<Point>>> {
        None
    }
}

/// Everything one adversarial run decided, in the order it decided it.
#[derive(Debug, PartialEq)]
struct Schedule {
    emitted: Vec<(Step, Vec<AgentId>)>,
    squashed: Vec<(AgentId, Step)>,
    /// `graph().validate()` after every commit: run-ahead state breaks
    /// the §3.2 condition until it is validated, so under speculation
    /// this is a record to compare, not a row of `Ok`s.
    valid_after_commit: Vec<bool>,
    stats: SpecStats,
    final_pos: Vec<Point>,
}

/// The single-shard tracker [`SpecScheduler::new`] mounts.
fn flat<S: Space>(space: Arc<S>, initial: &[S::Pos]) -> DepGraph<S> {
    common::depgraph(
        space,
        RuleParams::genagent(),
        initial,
        GraphOptions::default(),
    )
}

/// A [`DepGraph`] that forwards every [`DepTracker`] method except
/// `blockers_within`, so retirement clearance takes the trait's default
/// body: the gap-widened `candidates_within` ball that the maintained
/// blocked-by lists must agree with.
struct BallClearance<S: Space>(DepGraph<S>);

impl<S: Space> DepTracker<S> for BallClearance<S> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn step(&self, a: AgentId) -> Step {
        self.0.step(a)
    }
    fn pos(&self, a: AgentId) -> S::Pos {
        self.0.pos(a)
    }
    fn min_step(&self) -> Step {
        self.0.min_step()
    }
    fn max_step(&self) -> Step {
        self.0.max_step()
    }
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        self.0.advance(updates)
    }
    fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        self.0.rollback(updates)
    }
    fn candidates_within(&self, center: S::Pos, units: u64, out: &mut Vec<u32>) {
        self.0.candidates_within(center, units, out)
    }
    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.0.first_blocker(a)
    }
    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.0.coupled_of(a)
    }
    fn evict_history(&mut self) -> Result<u64, StoreError> {
        self.0.evict_history()
    }
    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }
    fn set_telemetry(&mut self, telemetry: Arc<aim_core::telemetry::Telemetry>) {
        self.0.set_telemetry(telemetry)
    }
    fn harvest_telemetry(&mut self) {
        self.0.harvest_telemetry()
    }
}

/// [`flat`] behind [`BallClearance`].
fn ball<S: Space>(space: Arc<S>, initial: &[S::Pos]) -> BallClearance<S> {
    BallClearance(flat(space, initial))
}

/// A sharded tracker over four 16-unit strips of the 64-wide map.
fn striped(space: Arc<GridSpace>, initial: &[Point]) -> ShardedDepGraph<GridSpace> {
    common::sharded(
        space,
        RuleParams::genagent(),
        initial,
        4,
        GraphOptions::default(),
    )
}

/// A distributed tracker over the same four strips: one channel worker
/// per strip, with history on so every squash rewrites worker stores.
fn distributed(space: Arc<GridSpace>, initial: &[Point]) -> DistTracker<GridSpace> {
    let options = GraphOptions {
        history: true,
        ..GraphOptions::default()
    };
    common::distributed(space, RuleParams::genagent(), initial, 4, options)
}

/// Drives a speculative scheduler over `w` in `space`, on the tracker
/// `mount` builds, completing whichever pending cluster `picks` names
/// next.
fn adversarial_run<S: Space<Pos = Point>, G: DepTracker<S>>(
    space: S,
    mount: impl FnOnce(Arc<S>, &[Point]) -> G,
    w: &HashWorkload,
    runahead: u32,
    picks: &[u16],
) -> Schedule {
    let space = Arc::new(space);
    let graph = mount(Arc::clone(&space), &w.initial);
    let mut sched = SpecScheduler::from_graph(
        graph,
        space,
        RuleParams::genagent(),
        SpecParams::new(runahead),
        w.target,
    );
    let mut run = Schedule {
        emitted: Vec::new(),
        squashed: Vec::new(),
        valid_after_commit: Vec::new(),
        stats: SpecStats::default(),
        final_pos: Vec::new(),
    };
    let mut pending: Vec<Cluster> = Vec::new();
    let mut pick_iter = picks.iter();
    let mut safety = 0;
    while !sched.is_done() {
        safety += 1;
        assert!(safety < 50_000, "speculative run failed to converge");
        let ready = sched.ready_clusters().unwrap();
        run.emitted
            .extend(ready.iter().map(|c| (c.step, c.members.clone())));
        pending.extend(ready);
        run.squashed.extend(sched.drain_squashed());
        assert!(
            !pending.is_empty() || sched.inflight_len() > 0,
            "deadlock: nothing ready, nothing in flight"
        );
        if pending.is_empty() {
            continue;
        }
        let pick = pick_iter.next().copied().unwrap_or(0) as usize % pending.len();
        let cluster = pending.swap_remove(pick);
        let pos: Vec<(AgentId, Point)> = cluster
            .members
            .iter()
            .map(|m| (*m, w.pos_after(*m, cluster.step)))
            .collect();
        sched.complete(&cluster.id, &pos).unwrap();
        run.squashed.extend(sched.drain_squashed());
        run.valid_after_commit
            .push(sched.graph().validate().is_ok());
    }
    assert_eq!(pending.len(), 0, "nothing may remain pending at completion");
    assert_eq!(sched.live_entries(), 0);
    for a in 0..w.initial.len() {
        assert_eq!(sched.graph().step(AgentId(a as u32)), w.target);
    }
    run.stats = sched.stats();
    run.final_pos = (0..w.initial.len())
        .map(|a| sched.graph().pos(AgentId(a as u32)))
        .collect();
    run
}

impl Schedule {
    /// The whole run on one line: one digest of the emitted, squashed
    /// and validity-after-commit sequences and the final positions (each
    /// sequence length-prefixed), then the stats in the clear.
    fn fingerprint(&self) -> String {
        let mut h = Fnv::new();
        h.u64(self.emitted.len() as u64);
        for (step, members) in &self.emitted {
            h.u64(step.0.into());
            h.u64(members.len() as u64);
            members.iter().for_each(|m| h.u64(m.0.into()));
        }
        h.u64(self.squashed.len() as u64);
        for (agent, step) in &self.squashed {
            h.u64(agent.0.into());
            h.u64(step.0.into());
        }
        h.u64(self.valid_after_commit.len() as u64);
        self.valid_after_commit
            .iter()
            .for_each(|ok| h.u64(*ok as u64));
        for p in &self.final_pos {
            h.u64(p.x as u64);
            h.u64(p.y as u64);
        }
        format!("{:016x} {:?}", h.0, self.stats)
    }
}

/// Golden case `i`: 12–30 agents at the density of the properties below,
/// run-ahead `i % 7`, a seeded workload and a seeded pick sequence.
fn golden_case(i: u32) -> (HashWorkload, u32, Vec<u16>) {
    let seed = mix(0x5eed_0025, i, 0);
    let n = 12 + (i % 4) * 6;
    let extent = u64::from(20 + n);
    let initial = (0..n)
        .map(|a| {
            let h = mix(seed, a, 1);
            Point::new((h % extent) as i32, ((h >> 32) % extent) as i32)
        })
        .collect();
    let picks = (0..900).map(|k| mix(seed, k, 2) as u16).collect();
    let w = HashWorkload {
        initial,
        target: Step(4 + i % 4),
        seed,
    };
    (w, i % 7, picks)
}

/// `golden_case(i)` fingerprints, recorded on the parent of the merge of
/// the two schedulers' state machines (PR 25) and never edited since: a
/// refactor of `SpecScheduler` must reproduce every emission, squash and
/// counter, not just the final world.
const GOLDEN: [&str; 28] = [
    "bae32cc6ff855768 SpecStats { emitted_firm: 35, emitted_spec: 0, agent_steps: 48, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 48, deferrals: 0, spec_denied: 0, max_live_entries: 5, max_step_skew: 4, max_cluster_size: 5 }",
    "e0b0774e15341542 SpecStats { emitted_firm: 57, emitted_spec: 7, agent_steps: 93, squashed_steps: 3, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 90, deferrals: 1, spec_denied: 7, max_live_entries: 5, max_step_skew: 5, max_cluster_size: 4 }",
    "00558180ec4607a0 SpecStats { emitted_firm: 82, emitted_spec: 22, agent_steps: 174, squashed_steps: 28, poisoned_clusters: 1, poisoned_steps: 2, retired_steps: 144, deferrals: 1, spec_denied: 28, max_live_entries: 21, max_step_skew: 6, max_cluster_size: 6 }",
    "cc4fe2e7b1549a08 SpecStats { emitted_firm: 111, emitted_spec: 14, agent_steps: 222, squashed_steps: 11, poisoned_clusters: 1, poisoned_steps: 1, retired_steps: 210, deferrals: 1, spec_denied: 4, max_live_entries: 10, max_step_skew: 6, max_cluster_size: 4 }",
    "59349625dfd77dad SpecStats { emitted_firm: 30, emitted_spec: 3, agent_steps: 49, squashed_steps: 1, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 48, deferrals: 1, spec_denied: 0, max_live_entries: 3, max_step_skew: 4, max_cluster_size: 3 }",
    "b4cf2f7f3311a787 SpecStats { emitted_firm: 58, emitted_spec: 7, agent_steps: 90, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 90, deferrals: 0, spec_denied: 0, max_live_entries: 5, max_step_skew: 5, max_cluster_size: 4 }",
    "18acb5a441255984 SpecStats { emitted_firm: 93, emitted_spec: 19, agent_steps: 145, squashed_steps: 1, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 144, deferrals: 1, spec_denied: 5, max_live_entries: 10, max_step_skew: 5, max_cluster_size: 4 }",
    "18e9b93eef3682ee SpecStats { emitted_firm: 171, emitted_spec: 0, agent_steps: 210, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 210, deferrals: 0, spec_denied: 0, max_live_entries: 3, max_step_skew: 6, max_cluster_size: 3 }",
    "50b6345e5150d10a SpecStats { emitted_firm: 36, emitted_spec: 3, agent_steps: 53, squashed_steps: 4, poisoned_clusters: 1, poisoned_steps: 1, retired_steps: 48, deferrals: 2, spec_denied: 2, max_live_entries: 4, max_step_skew: 3, max_cluster_size: 4 }",
    "731d293efcc181cd SpecStats { emitted_firm: 54, emitted_spec: 6, agent_steps: 93, squashed_steps: 3, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 90, deferrals: 1, spec_denied: 2, max_live_entries: 8, max_step_skew: 5, max_cluster_size: 4 }",
    "47418c5a3eeea6ef SpecStats { emitted_firm: 81, emitted_spec: 18, agent_steps: 151, squashed_steps: 7, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 144, deferrals: 0, spec_denied: 6, max_live_entries: 10, max_step_skew: 5, max_cluster_size: 4 }",
    "6f7d35249ef0d224 SpecStats { emitted_firm: 95, emitted_spec: 25, agent_steps: 220, squashed_steps: 10, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 210, deferrals: 2, spec_denied: 18, max_live_entries: 15, max_step_skew: 6, max_cluster_size: 7 }",
    "56fcd20f75508f8e SpecStats { emitted_firm: 24, emitted_spec: 2, agent_steps: 48, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 48, deferrals: 0, spec_denied: 5, max_live_entries: 4, max_step_skew: 3, max_cluster_size: 3 }",
    "ba2a12186a75a4c4 SpecStats { emitted_firm: 35, emitted_spec: 9, agent_steps: 97, squashed_steps: 6, poisoned_clusters: 1, poisoned_steps: 1, retired_steps: 90, deferrals: 2, spec_denied: 9, max_live_entries: 13, max_step_skew: 4, max_cluster_size: 6 }",
    "18a29d0c04475193 SpecStats { emitted_firm: 93, emitted_spec: 0, agent_steps: 144, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 144, deferrals: 0, spec_denied: 0, max_live_entries: 6, max_step_skew: 6, max_cluster_size: 6 }",
    "030e6d81e9c3a8ef SpecStats { emitted_firm: 115, emitted_spec: 23, agent_steps: 213, squashed_steps: 3, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 210, deferrals: 1, spec_denied: 20, max_live_entries: 9, max_step_skew: 6, max_cluster_size: 7 }",
    "1c044da70c684f58 SpecStats { emitted_firm: 34, emitted_spec: 6, agent_steps: 52, squashed_steps: 3, poisoned_clusters: 1, poisoned_steps: 1, retired_steps: 48, deferrals: 0, spec_denied: 3, max_live_entries: 5, max_step_skew: 3, max_cluster_size: 3 }",
    "033c7d38af1ebeed SpecStats { emitted_firm: 57, emitted_spec: 9, agent_steps: 92, squashed_steps: 2, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 90, deferrals: 1, spec_denied: 6, max_live_entries: 6, max_step_skew: 5, max_cluster_size: 4 }",
    "b360ed7ce5fa7bf2 SpecStats { emitted_firm: 72, emitted_spec: 26, agent_steps: 164, squashed_steps: 13, poisoned_clusters: 4, poisoned_steps: 7, retired_steps: 144, deferrals: 3, spec_denied: 1, max_live_entries: 17, max_step_skew: 6, max_cluster_size: 4 }",
    "64c4dc45cdab884f SpecStats { emitted_firm: 105, emitted_spec: 30, agent_steps: 238, squashed_steps: 23, poisoned_clusters: 3, poisoned_steps: 5, retired_steps: 210, deferrals: 3, spec_denied: 14, max_live_entries: 17, max_step_skew: 7, max_cluster_size: 5 }",
    "7239d389da2025c8 SpecStats { emitted_firm: 32, emitted_spec: 8, agent_steps: 49, squashed_steps: 1, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 48, deferrals: 1, spec_denied: 0, max_live_entries: 3, max_step_skew: 3, max_cluster_size: 3 }",
    "b0dbe392957b8a4b SpecStats { emitted_firm: 65, emitted_spec: 0, agent_steps: 90, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 90, deferrals: 0, spec_denied: 0, max_live_entries: 4, max_step_skew: 5, max_cluster_size: 4 }",
    "1f38240aa6d71f8b SpecStats { emitted_firm: 80, emitted_spec: 15, agent_steps: 152, squashed_steps: 8, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 144, deferrals: 2, spec_denied: 5, max_live_entries: 8, max_step_skew: 5, max_cluster_size: 8 }",
    "70b13da7d47a16dc SpecStats { emitted_firm: 119, emitted_spec: 30, agent_steps: 223, squashed_steps: 12, poisoned_clusters: 1, poisoned_steps: 1, retired_steps: 210, deferrals: 1, spec_denied: 15, max_live_entries: 8, max_step_skew: 7, max_cluster_size: 5 }",
    "c68ecdc757d706c8 SpecStats { emitted_firm: 31, emitted_spec: 6, agent_steps: 48, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 48, deferrals: 0, spec_denied: 2, max_live_entries: 9, max_step_skew: 4, max_cluster_size: 3 }",
    "b0d4f6c07d9552a6 SpecStats { emitted_firm: 41, emitted_spec: 4, agent_steps: 92, squashed_steps: 2, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 90, deferrals: 1, spec_denied: 4, max_live_entries: 7, max_step_skew: 3, max_cluster_size: 6 }",
    "55f98d2a3168dd0a SpecStats { emitted_firm: 73, emitted_spec: 19, agent_steps: 144, squashed_steps: 0, poisoned_clusters: 0, poisoned_steps: 0, retired_steps: 144, deferrals: 0, spec_denied: 5, max_live_entries: 10, max_step_skew: 6, max_cluster_size: 3 }",
    "160a0aa7a76d2080 SpecStats { emitted_firm: 107, emitted_spec: 24, agent_steps: 217, squashed_steps: 6, poisoned_clusters: 1, poisoned_steps: 1, retired_steps: 210, deferrals: 3, spec_denied: 5, max_live_entries: 12, max_step_skew: 7, max_cluster_size: 7 }",
];

#[test]
fn spec_schedules_match_the_recorded_golden() {
    let got: Vec<String> = (0..GOLDEN.len() as u32)
        .map(|i| {
            let (w, runahead, picks) = golden_case(i);
            adversarial_run(GridSpace::new(64, 64), flat, &w, runahead, &picks).fingerprint()
        })
        .collect();
    if got != GOLDEN {
        eprintln!("{got:#?}");
    }
    for (i, (got, want)) in got.iter().zip(GOLDEN).enumerate() {
        assert_eq!(got, want, "golden case {i}");
    }
}

/// The golden cases again with clearance on the default gap-radius
/// ball: the blocked-by lists the golden now runs on must reproduce
/// what the ball decided when the literals were recorded.
#[test]
fn ball_clearance_matches_the_recorded_golden() {
    for i in 0..GOLDEN.len() as u32 {
        let (w, runahead, picks) = golden_case(i);
        let run = adversarial_run(GridSpace::new(64, 64), ball, &w, runahead, &picks);
        assert_eq!(run.fingerprint(), GOLDEN[i as usize], "golden case {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adversarial speculative execution: random completion order, random
    /// run-ahead budget, seeded movement. Must terminate fully retired
    /// with the conservative outcome and consistent accounting.
    #[test]
    fn adversarial_spec_schedules_terminate_and_match(
        points in arb_points(7, 24),
        target in 2u32..7,
        runahead in 0u32..5,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u16>(), 0..600),
    ) {
        let w = HashWorkload { initial: points.clone(), target: Step(target), seed };
        let expected = conservative_outcome(&w);
        let run = adversarial_run(GridSpace::new(64, 64), flat, &w, runahead, &picks);

        // Outcome equivalence with the conservative schedule.
        prop_assert_eq!(&run.final_pos, &expected, "final positions diverged");
        prop_assert_eq!(run.valid_after_commit.last(), Some(&true));

        // Accounting: every agent-step retires exactly once; emissions
        // cover retirements plus discarded work; the squash log matches
        // the squash counter.
        let st = run.stats;
        prop_assert_eq!(st.retired_steps, (points.len() as u64) * target as u64);
        prop_assert_eq!(run.squashed.len() as u64, st.squashed_steps);
        prop_assert_eq!(
            st.agent_steps,
            st.retired_steps + st.squashed_steps + st.poisoned_steps,
            "every emitted execution must retire or be discarded"
        );
        if runahead == 0 {
            prop_assert_eq!(st.emitted_spec, 0);
            prop_assert_eq!(st.squashed_steps, 0, "no speculation, no waste");
            prop_assert_eq!(st.poisoned_clusters, 0);
            prop_assert!(run.valid_after_commit.iter().all(|ok| *ok));
        }
    }

    /// With run-ahead 0 the speculative scheduler emits the conservative
    /// schedule verbatim (same clusters, same order, round by round).
    #[test]
    fn spec_zero_emits_conservative_schedule(
        points in arb_points(8, 20),
        target in 2u32..6,
        seed in any::<u64>(),
    ) {
        let w = HashWorkload { initial: points.clone(), target: Step(target), seed };
        let space = Arc::new(GridSpace::new(64, 64));
        let mut cons = Scheduler::new(
            Arc::clone(&space),
            RuleParams::genagent(),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &points,
            Step(target),
        ).unwrap();
        let mut spec = SpecScheduler::new(
            space,
            RuleParams::genagent(),
            SpecParams::conservative(),
            Arc::new(Db::new()),
            &points,
            Step(target),
        ).unwrap();

        let mut safety = 0;
        loop {
            safety += 1;
            prop_assert!(safety < 50_000);
            let a = cons.ready_clusters();
            let b = spec.ready_clusters().unwrap();
            let a_sig: Vec<(Step, Vec<AgentId>)> =
                a.iter().map(|c| (c.step, c.members.clone())).collect();
            let b_sig: Vec<(Step, Vec<AgentId>)> =
                b.iter().map(|c| (c.step, c.members.clone())).collect();
            prop_assert_eq!(&a_sig, &b_sig, "schedules diverged");
            if a.is_empty() {
                break;
            }
            for c in a {
                let pos: Vec<(AgentId, Point)> =
                    c.members.iter().map(|m| (*m, w.pos_after(*m, c.step))).collect();
                cons.complete(&c.id, &pos).unwrap();
            }
            for c in b {
                let pos: Vec<(AgentId, Point)> =
                    c.members.iter().map(|m| (*m, w.pos_after(*m, c.step))).collect();
                spec.complete(&c.id, &pos).unwrap();
            }
        }
        prop_assert!(cons.is_done());
        prop_assert!(spec.is_done());
        prop_assert_eq!(spec.drain_squashed().len(), 0);
    }

    /// Executor-level: the speculative DES run completes for any budget,
    /// never loses work (issued calls ≥ workload calls; the surplus is
    /// exactly the re-executed waste), and speculation never slows the
    /// virtual-time completion compared to run-ahead 0.
    #[test]
    fn spec_executor_accounting_holds(
        points in arb_points(6, 22),
        target in 2u32..6,
        runahead in 1u32..5,
        seed in any::<u64>(),
    ) {
        let w = HashWorkload { initial: points.clone(), target: Step(target), seed };
        let run = |budget: u32| {
            let mut sched = SpecScheduler::new(
                Arc::new(GridSpace::new(64, 64)),
                RuleParams::genagent(),
                SpecParams::new(budget),
                Arc::new(Db::new()),
                &points,
                Step(target),
            ).unwrap();
            let mut server =
                SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 1, true));
            aim_core::spec::run_spec_sim(
                &mut sched,
                &w,
                &mut server,
                &aim_core::exec::sim::SimConfig::default(),
            ).unwrap()
        };
        let base = run(0);
        let ahead = run(runahead);
        let workload_calls = w.total_calls();
        prop_assert_eq!(base.total_calls, workload_calls, "runahead 0 never re-executes");
        let sr = ahead.spec.clone().unwrap();
        prop_assert_eq!(
            ahead.total_calls,
            workload_calls + sr.wasted_calls,
            "issued = workload + re-executed waste"
        );
        prop_assert!(
            ahead.total_input_tokens >= base.total_input_tokens,
            "re-execution can only add tokens"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The same schedules with and without spatial indexes: the indexes
    /// choose which candidates a check looks at, never what it decides —
    /// same emissions in the same order, same squash sequence, same
    /// counters, same graph validity after every commit.
    ///
    /// Forty agents at the density of the seven above, longer runs and
    /// deeper run-ahead: an index holding fewer ids than a query probes
    /// cells just enumerates them, which would compare the linear path
    /// with itself.
    #[test]
    fn indexed_and_linear_candidate_paths_agree(
        points in arb_points(40, 58),
        target in 4u32..9,
        runahead in 0u32..7,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u16>(), 0..2000),
    ) {
        let w = HashWorkload { initial: points, target: Step(target), seed };
        let indexed = adversarial_run(GridSpace::new(64, 64), flat, &w, runahead, &picks);
        let linear = adversarial_run(Unindexed(GridSpace::new(64, 64)), flat, &w, runahead, &picks);
        prop_assert_eq!(indexed, linear);
    }

    /// Retirement clearance from the maintained blocked-by lists and from
    /// the trait's default gap-radius ball clears the same schedules, on
    /// indexed and unindexed spaces: the lists are a superset of every
    /// agent the ball's exact re-check keeps.
    #[test]
    fn blocked_by_lists_and_the_ball_clear_the_same_schedules(
        points in arb_points(40, 58),
        target in 4u32..9,
        runahead in 0u32..7,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u16>(), 0..2000),
    ) {
        let w = HashWorkload { initial: points, target: Step(target), seed };
        let lists = adversarial_run(GridSpace::new(64, 64), flat, &w, runahead, &picks);
        let balls = adversarial_run(GridSpace::new(64, 64), ball, &w, runahead, &picks);
        prop_assert_eq!(lists.fingerprint(), balls.fingerprint());
        let lists = adversarial_run(Unindexed(GridSpace::new(64, 64)), flat, &w, runahead, &picks);
        let balls = adversarial_run(Unindexed(GridSpace::new(64, 64)), ball, &w, runahead, &picks);
        prop_assert_eq!(lists.fingerprint(), balls.fingerprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Speculation mounted on a four-strip `ShardedDepGraph`: trackers
    /// answer every query identically by contract, so the whole schedule
    /// — emissions, squashes, counters, validity after every commit — is
    /// the `DepGraph` one, and the world it ends in is the lock-step one.
    #[test]
    fn sharded_tracker_speculates_the_same_schedule(
        points in arb_points(24, 44),
        target in 3u32..7,
        runahead in 0u32..7,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u16>(), 0..1200),
    ) {
        let w = HashWorkload { initial: points, target: Step(target), seed };
        let sharded = adversarial_run(GridSpace::new(64, 64), striped, &w, runahead, &picks);
        let single = adversarial_run(GridSpace::new(64, 64), flat, &w, runahead, &picks);
        prop_assert_eq!(&sharded.final_pos, &conservative_outcome(&w));
        prop_assert_eq!(sharded, single);
    }

    /// Speculation mounted on four channel workers: the controller links
    /// edges on its own mirror and pipelines the commits and squashes to
    /// the workers, so the schedule is the `DepGraph` one and the world
    /// it ends in the lock-step one.
    #[test]
    fn dist_speculates_the_same_schedule(
        points in arb_points(24, 44),
        target in 3u32..7,
        runahead in 0u32..7,
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u16>(), 0..1200),
    ) {
        let w = HashWorkload { initial: points, target: Step(target), seed };
        let dist = adversarial_run(GridSpace::new(64, 64), distributed, &w, runahead, &picks);
        let single = adversarial_run(GridSpace::new(64, 64), flat, &w, runahead, &picks);
        prop_assert_eq!(&dist.final_pos, &conservative_outcome(&w));
        prop_assert_eq!(dist, single);
    }
}
