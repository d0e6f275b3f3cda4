//! The integration tests' one live-world harness. Every check that
//! out-of-order execution lands in the lock-step world builds, runs and
//! compares a world here, one way:
//!
//! * a [`World`] — SmallVille villes warmed to a start step, or a city —
//!   run [`lockstep`], or [`live`] on the threaded executor over one of
//!   the trackers the core tests' roster names ([`Layout`]);
//! * [`assert_worlds_equal`], the one world comparison;
//! * [`replay`] and [`spec_replay`], the schedulers the virtual-time tests
//!   replay a trace on.

// Each test target uses its own part of the harness.
#![allow(dead_code)]

use std::sync::Arc;

use ai_metropolis::core::checkpoint::{self, SECTION_WORLD};
use ai_metropolis::core::depgraph::{DepGraph, EdgeMode, GraphOptions};
use ai_metropolis::llm::InstantBackend;
use ai_metropolis::prelude::*;
use ai_metropolis::store::{Db, Snapshot};
use ai_metropolis::world::city::{self, CityConfig};
use ai_metropolis::world::program::VillageProgram;

/// A world and the world step its live runs start from.
#[derive(Clone)]
pub struct World {
    pub village: Village,
    /// The world step of the scheduler's step 0.
    pub start: u32,
}

impl World {
    /// One SmallVille ville of `agents` agents, warmed to `start`.
    pub fn smallville(seed: u64, agents: u32, start: u32) -> World {
        let cfg = VillageConfig {
            villes: 1,
            agents_per_ville: agents,
            seed,
        };
        World::warmed(&cfg, start)
    }

    /// The villes of `cfg`, run lock-step from midnight to `start`.
    pub fn warmed(cfg: &VillageConfig, start: u32) -> World {
        let mut village = Village::generate(cfg);
        village.run_lockstep(0, start, |_, _, _, _| {});
        World { village, start }
    }

    /// The city of `cfg`, cold-started at `start`.
    pub fn city(cfg: &CityConfig, start: u32) -> World {
        let village = city::generate(cfg);
        World { village, start }
    }
}

/// `world` run lock-step for `steps` steps: the oracle of a live run.
pub fn lockstep(world: &World, steps: u32) -> Village {
    let mut village = world.village.clone();
    village.run_lockstep(world.start, world.start + steps, |_, _, _, _| {});
    village
}

/// The one world comparison: positions, event log and conversation
/// state, then every byte [`Village::capture_state`] encodes — each
/// agent's target, path, wakefulness, activity marker and memory stream
/// too. A city cannot be captured (its map is not derivable from its
/// config), so the first three are its whole comparison.
pub fn assert_worlds_equal(a: &Village, b: &Village) {
    assert_eq!(a.positions(), b.positions(), "final positions diverged");
    assert_eq!(a.events(), b.events(), "world event logs diverged");
    for agent in 0..a.num_agents() as u32 {
        assert_eq!(
            a.conversation_cooldown(agent),
            b.conversation_cooldown(agent),
            "agent {agent} conversation state diverged"
        );
    }
    if a.config().villes > 0 {
        assert!(
            a.capture_state() == b.capture_state(),
            "captured world states diverged (targets, paths, wakefulness, activity or memory)"
        );
    }
}

/// Which tracker a live run builds, named as in the core tests' roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A [`DepGraph`]: one shard owning every agent.
    DepGraph,
    /// A [`ShardedDepGraph`] over this many strips of the map.
    Sharded(usize),
    /// A [`DistTracker`] over this many channel workers, a strip each.
    Dist(usize),
}

/// One of each tracker.
pub const ROSTER: [Layout; 3] = [Layout::DepGraph, Layout::Sharded(4), Layout::Dist(4)];

/// A live run: `steps` steps under `policy`, on `workers` worker threads
/// against `backend`, over the tracker `layout` names.
#[derive(Clone)]
pub struct Run {
    pub policy: DependencyPolicy,
    pub steps: u32,
    pub workers: usize,
    pub layout: Layout,
    pub backend: Arc<dyn LlmBackend>,
}

impl Run {
    /// On a [`Layout::DepGraph`], against the instant backend.
    pub fn new(policy: DependencyPolicy, steps: u32, workers: usize) -> Run {
        Run {
            policy,
            steps,
            workers,
            layout: Layout::DepGraph,
            backend: Arc::new(InstantBackend::new()),
        }
    }

    /// The same run on `layout`.
    pub fn on(self, layout: Layout) -> Run {
        Run { layout, ..self }
    }

    /// The same run against `backend`.
    pub fn against(self, backend: Arc<dyn LlmBackend>) -> Run {
        Run { backend, ..self }
    }
}

/// What a live run leaves.
pub struct Live {
    pub world: Village,
    pub report: ThreadedReport,
    /// LLM calls the world program issued.
    pub calls: u64,
    /// Each shard's members, as the finished tracker partitions them.
    pub shards: Vec<Vec<u32>>,
    /// Cluster advancements the tracker's stores hold.
    pub commits: i64,
}

/// A tracker a live run can build: one per [`Layout`].
pub trait Tracker: DepTracker<GridSpace> + Sized + 'static {
    /// The tracker `layout` names (which must be this type) over `space`,
    /// with the agents at `initial`.
    fn build(layout: Layout, space: Arc<GridSpace>, initial: &[Point], opts: GraphOptions) -> Self;

    /// Panics unless the tracker's mirror agrees with its stores (a
    /// quiesce point): every node at its stored state, the partition
    /// over them, and the edges those of a from-scratch rebuild.
    fn check(&self);

    /// Each shard's members, ascending by id.
    fn shards(&self) -> Vec<Vec<u32>>;

    /// See [`Live::commits`].
    fn committed(&self) -> i64;
}

/// The [`Tracker`] readers, which every tracker has under other names.
macro_rules! readers {
    () => {
        fn check(&self) {
            self.check_invariants();
        }

        fn shards(&self) -> Vec<Vec<u32>> {
            (0..self.num_shards()).map(|j| self.members(j)).collect()
        }

        fn committed(&self) -> i64 {
            self.commits()
        }
    };
}

impl Tracker for DepGraph<GridSpace> {
    fn build(layout: Layout, space: Arc<GridSpace>, initial: &[Point], opts: GraphOptions) -> Self {
        assert_eq!(layout, Layout::DepGraph);
        let db = Arc::new(Db::new());
        DepGraph::new_with_options(space, RuleParams::genagent(), db, initial, opts)
            .expect("tracker")
    }

    readers!();
}

impl Tracker for ShardedDepGraph<GridSpace> {
    fn build(layout: Layout, space: Arc<GridSpace>, initial: &[Point], opts: GraphOptions) -> Self {
        let Layout::Sharded(strips) = layout else {
            panic!("not a sharded layout: {layout:?}")
        };
        let map = Arc::new(StripShardMap::new(space.width(), strips));
        let db = Arc::new(Db::new());
        let params = RuleParams::genagent();
        ShardedDepGraph::new_with_options(space, params, db, initial, map, opts)
            .expect("sharded tracker")
    }

    readers!();
}

impl Tracker for DistTracker<GridSpace> {
    fn build(layout: Layout, space: Arc<GridSpace>, initial: &[Point], opts: GraphOptions) -> Self {
        let Layout::Dist(workers) = layout else {
            panic!("not a distributed layout: {layout:?}")
        };
        let map = Arc::new(StripShardMap::new(space.width(), workers));
        DistTracker::new(space, RuleParams::genagent(), initial, map, opts)
            .expect("distributed tracker")
    }

    readers!();
}

/// Runs `program` on `sched` to the end: `workers` threads against
/// `backend`, quiescing for `hook` and recording into `telemetry` when
/// given. Asserts the run finished, satisfies the causality invariant,
/// and left the tracker consistent.
pub fn execute<G: Tracker, P: ClusterProgram<GridSpace> + 'static>(
    sched: &mut Scheduler<GridSpace, G>,
    program: Arc<P>,
    backend: Arc<dyn LlmBackend>,
    workers: usize,
    hook: Option<CheckpointHook<'_, GridSpace, G>>,
    telemetry: Option<Arc<Telemetry>>,
) -> ThreadedReport {
    let cfg = ThreadedConfig {
        workers,
        priority_enabled: true,
    };
    let report =
        run_threaded_observed(sched, program, backend, cfg, hook, telemetry).expect("threaded run");
    assert!(sched.is_done());
    if let Err(e) = sched.graph().validate() {
        panic!("causality invariant violated: {e}");
    }
    sched.graph().check();
    report
}

/// `world` run live as `run` says, its tracker checked at a quiesce point
/// every [`CHECK_EVERY`] committed steps and at the end.
pub fn live(world: World, run: &Run) -> Live {
    match run.layout {
        Layout::DepGraph => live_on::<DepGraph<GridSpace>>(world, run, None),
        Layout::Sharded(_) => live_on::<ShardedDepGraph<GridSpace>>(world, run, None),
        Layout::Dist(_) => live_on::<DistTracker<GridSpace>>(world, run, None),
    }
}

/// A checkpoint hook of a live run: called with the run quiesced, given
/// its scheduler and the world program.
type Hook<'a, G> =
    dyn FnMut(&mut Scheduler<GridSpace, G>, &VillageProgram) -> Result<(), EngineError> + 'a;

/// [`live`] on `G`, the tracker `run.layout` names, recording per-step
/// history — what checkpoints and worker recoveries read — and calling
/// `hook` whenever the committed step floor reaches a multiple of
/// `every`, then checking the tracker it leaves.
pub fn live_hooked<G: Tracker>(
    world: World,
    run: &Run,
    every: u32,
    mut hook: impl FnMut(&mut Scheduler<GridSpace, G>, &VillageProgram) -> Result<(), EngineError>,
) -> Live {
    let hook: &mut Hook<'_, G> = &mut hook;
    live_on(world, run, Some((every, hook)))
}

fn live_on<G: Tracker>(world: World, run: &Run, hook: Option<(u32, &mut Hook<'_, G>)>) -> Live {
    let mut sched = scheduler(&world, run, hook.is_some());
    drive(
        &mut sched,
        world,
        Arc::clone(&run.backend),
        run.workers,
        hook,
    )
}

/// The scheduler of `world` run as `run` says, recording per-step
/// history if `history`. Edges are maintained as [`Scheduler::new`]
/// maintains them: only for the policy that asks edge questions.
fn scheduler<G: Tracker>(world: &World, run: &Run, history: bool) -> Scheduler<GridSpace, G> {
    let edges = match run.policy {
        DependencyPolicy::Spatiotemporal => EdgeMode::Maintained,
        _ => EdgeMode::Off,
    };
    let space = Arc::new(world.village.space());
    let initial = world.village.positions();
    let graph = G::build(run.layout, space, &initial, GraphOptions { edges, history });
    Scheduler::from_graph(graph, run.policy.clone(), Step(run.steps))
}

/// The world `snap` holds, run live on `workers` workers from where the
/// snapshot was taken to the end of its run, with the snapshot's meta.
pub fn resume(snap: &Snapshot, workers: usize) -> (CheckpointMeta, Live) {
    // Policy deliberately omitted: the snapshot records it, and the
    // recorded tag must drive the resumed scheduler's semantics.
    let (meta, mut sched) = checkpoint::resume(snap, None, None).expect("resume");
    let world = snap.section(SECTION_WORLD).expect("world section");
    let village = Village::restore(world).expect("village restores");
    let world = World {
        village,
        start: meta.step_offset,
    };
    let backend = Arc::new(InstantBackend::new());
    (meta, drive(&mut sched, world, backend, workers, None))
}

/// Committed steps between the quiesce points at which a live run
/// without a hook of its own checks its tracker ([`Tracker::check`]);
/// a run's own hook checks after every firing instead. Mid-run is where
/// the edges between agents at different steps exist: at the end of a
/// run every agent stands at the last step, and later relinks have
/// repaired any edge lost before.
pub const CHECK_EVERY: u32 = 2;

fn drive<G: Tracker>(
    sched: &mut Scheduler<GridSpace, G>,
    world: World,
    backend: Arc<dyn LlmBackend>,
    workers: usize,
    hook: Option<(u32, &mut Hook<'_, G>)>,
) -> Live {
    let program = Arc::new(VillageProgram::with_step_offset(world.village, world.start));
    let shared: &VillageProgram = &program;
    let (every_steps, mut hook) = match hook {
        Some((every, f)) => (every, Some(f)),
        None => (CHECK_EVERY, None),
    };
    let mut f = |s: &mut Scheduler<_, _>| {
        if let Some(f) = hook.as_mut() {
            f(s, shared)?;
        }
        s.graph().check();
        Ok(())
    };
    let hook = Some(CheckpointHook {
        every_steps,
        f: &mut f,
    });
    let report = execute(sched, Arc::clone(&program), backend, workers, hook, None);
    let calls = program.calls_made();
    let world = Arc::try_unwrap(program).expect("workers joined");
    Live {
        world: world.into_village(),
        report,
        calls,
        shards: sched.graph().shards(),
        commits: sched.graph().committed(),
    }
}

/// `world` run live on a [`DepGraph`] as `run` says, as the program
/// `wrap` makes of its world program, recording into a fresh telemetry
/// sink: the run's telemetry.
pub fn observe<P: ClusterProgram<GridSpace> + 'static>(
    world: World,
    run: &Run,
    wrap: impl FnOnce(VillageProgram) -> P,
) -> RunTelemetry {
    let mut sched = scheduler::<DepGraph<GridSpace>>(&world, run, false);
    let program = VillageProgram::with_step_offset(world.village, world.start);
    let program = Arc::new(wrap(program));
    let backend = Arc::clone(&run.backend);
    let telemetry = Some(Arc::new(Telemetry::new()));
    let report = execute(&mut sched, program, backend, run.workers, None, telemetry);
    report.telemetry.expect("telemetry sink was installed")
}

/// A scheduler replaying `trace` under `policy` through its last step.
pub fn replay(trace: &Trace, policy: DependencyPolicy) -> Scheduler<GridSpace> {
    replay_until(trace, policy, Workload::target_step(trace), false)
}

/// [`replay`] up to `target`, recording per-step history if `history`.
pub fn replay_until(
    trace: &Trace,
    policy: DependencyPolicy,
    target: Step,
    history: bool,
) -> Scheduler<GridSpace> {
    let (space, params, initial) = replayed(trace);
    let db = Arc::new(Db::new());
    Scheduler::new_with_history(space, params, policy, db, &initial, target, history)
        .expect("replay scheduler")
}

/// A speculative scheduler replaying `trace` with `runahead` steps of
/// run-ahead.
pub fn spec_replay(trace: &Trace, runahead: u32) -> SpecScheduler<GridSpace> {
    let (space, params, initial) = replayed(trace);
    let spec = SpecParams::new(runahead);
    let target = Workload::target_step(trace);
    SpecScheduler::new(space, params, spec, Arc::new(Db::new()), &initial, target)
        .expect("speculative replay scheduler")
}

/// The space, rules and initial positions `trace` was recorded with.
fn replayed(trace: &Trace) -> (Arc<GridSpace>, RuleParams, Vec<Point>) {
    let meta = trace.meta();
    let space = Arc::new(GridSpace::new(meta.map_width, meta.map_height));
    let params = RuleParams::new(meta.radius_p, meta.max_vel);
    let initial = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    (space, params, initial)
}
