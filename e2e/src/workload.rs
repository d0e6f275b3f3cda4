//! The five workloads: how their inputs are built from a seed, how one
//! rep of the product arm runs, and how its outcome is checked against
//! the lock-step world.

use std::sync::Arc;
use std::time::Instant;

use aim_core::checkpoint;
use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions};
use aim_core::exec::threaded::{run_threaded_observed, CheckpointHook, ThreadedConfig};
use aim_core::metrics::RunReport;
use aim_core::prelude::*;
use aim_core::scheduler::SchedStats;
use aim_llm::{
    presets, FleetConfig, FleetMetrics, LlmBackend, Preset, ReplicaSpec, RoutePolicyKind,
    ServerConfig, SimServer,
};
use aim_store::{Db, DbStats, Snapshot};
use aim_trace::critical::{self, CriticalPath};
use aim_trace::{oracle, Trace, TraceBuilder, TraceMeta};
use aim_world::city::{self, CityConfig};
use aim_world::program::VillageProgram;
use aim_world::{TileMap, Village, VillageConfig, STEPS_PER_DAY};

use crate::alloc::allocations;
use crate::calib::{Bracket, Sample};
use crate::layers::{Layer, Probe, ProbeProgram, TracedBackend, TracedWorkload, Tracer};

/// Simulated GPUs of every workload's serving deployment.
const GPUS: u32 = 8;

/// Run-ahead budget of the speculative arm.
const RUNAHEAD: u32 = 4;

/// Shard width of the sharded and distributed trackers.
const SHARDS: usize = 4;

/// Worker threads of the live city run.
const CITY_WORKERS: usize = 2;

/// Steps the live city runs, and its checkpoint cadence.
const CITY_STEPS: u32 = 10;
const CITY_CHECKPOINT_EVERY: u32 = 5;

/// Virtual seconds per wall second on the fleet's simulated replicas:
/// high enough that pacing against the wall clock never sleeps.
const CITY_TIME_SCALE: f64 = 5_000_000.0;

/// What the product arm of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `run_sim` on the single-shard `DepGraph`.
    DepGraph,
    /// `run_spec_sim` on the `SpecScheduler`.
    Spec,
    /// `run_sim` on the `DistTracker` (channel workers, history on).
    Dist,
    /// The live `VillageProgram` under the threaded executor on a
    /// `ShardedDepGraph`, served by a `Fleet`, checkpointed.
    CityLive,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// The product arm.
    pub arm: Arm,
    /// SmallVille copies (25 agents each); unused by the city.
    villes: u32,
    /// First recorded step and number of steps.
    start: u32,
    steps: u32,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "day_25",
        why: "paper Fig. 4a: 25 agents x 8640 steps, so event loop, server batching and trace look-ups do the work and tracking almost none; the one workload with oracle headroom",
        arm: Arm::DepGraph,
        villes: 1,
        start: 0,
        steps: STEPS_PER_DAY,
    },
    WorkloadDef {
        name: "busy_1000",
        why: "paper's scaling regime: 1000 agents in the noon hour, so depgraph, scheduler, clustering and store dominate the rep, pathfinding dominates set-up, and the GPUs saturate",
        arm: Arm::DepGraph,
        villes: 40,
        start: 12 * aim_world::STEPS_PER_HOUR,
        steps: 180,
    },
    WorkloadDef {
        name: "spec_250",
        why: "same scheduling layer used speculatively (run-ahead 4): speculate, squash, roll back, writes beside reads; guards the scheduler merge",
        arm: Arm::Spec,
        villes: 10,
        start: 12 * aim_world::STEPS_PER_HOUR,
        steps: 120,
    },
    WorkloadDef {
        name: "dist_200",
        why: "every commit, relink and migration crosses the typed dist boundary to 4 channel workers, at a size where the boundary, not the graph, is the cost",
        arm: Arm::Dist,
        villes: 8,
        start: 12 * aim_world::STEPS_PER_HOUR,
        steps: 180,
    },
    WorkloadDef {
        name: "city_live_1256",
        why: "live world program, threaded executor, queues, sharded tracker, serving fleet and checkpointing on the timed path, which no replay workload has",
        arm: Arm::CityLive,
        villes: 0,
        start: 8 * aim_world::STEPS_PER_HOUR,
        steps: CITY_STEPS,
    },
];

impl WorkloadDef {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// The hardware every workload is served on.
pub fn preset() -> Preset {
    presets::l4_llama3_8b()
}

/// Executor knobs of every virtual-time arm.
pub fn sim_config() -> SimConfig {
    SimConfig {
        step_cpu_us: 2_000,
        commit_cpu_us: 1_000,
        serial_agents: false,
        max_concurrent_clusters: Some(48),
        priority_ready_queue: true,
        record_timeline: false,
    }
}

/// A fresh serving deployment: 8 simulated GPUs of [`preset`].
pub fn sim_server() -> SimServer {
    let p = preset();
    let replicas = p.replicas_for_gpus(GPUS);
    SimServer::new(ServerConfig::from_preset(p, replicas, true))
}

fn city_config(seed: u64) -> CityConfig {
    CityConfig {
        districts_x: 4,
        districts_y: 2,
        agents: 1_256,
        seed,
    }
}

/// The live city's untouched starting world and its lock-step outcome.
#[derive(Debug)]
pub struct City {
    cfg: CityConfig,
    base: Village,
    lockstep: Village,
}

/// Everything a workload's arms run on. The engine sees only this.
#[derive(Debug)]
pub struct Inputs {
    /// The lock-step capture: every call and every position.
    pub trace: Arc<Trace>,
    /// Ground-truth dependencies mined from the capture.
    pub oracle: Arc<OracleGraph>,
    /// The capture's critical path under the serving cost model.
    pub critical: CriticalPath,
    /// The world's map (for the pathfinding probe).
    pub map: TileMap,
    city: Option<City>,
}

impl Inputs {
    /// Agent-steps of one complete run.
    pub fn agent_steps(&self) -> u64 {
        let m = self.trace.meta();
        m.num_agents as u64 * m.num_steps as u64
    }
}

/// Calibration-bracketed times of the set-up stages.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// World generation.
    pub gen: Sample,
    /// Lock-step self-play (warm-up to the window, then the capture).
    pub capture: Sample,
    /// `oracle::mine`.
    pub mine: Sample,
    /// `critical::critical_path`.
    pub critical: Sample,
}

impl SetupTimes {
    /// The whole set-up in calibrated seconds.
    pub fn calibrated_s(&self) -> f64 {
        [self.gen, self.capture, self.mine, self.critical]
            .iter()
            .map(Sample::calibrated_s)
            .sum()
    }
}

/// Runs `village` in lock-step over `[start, start + steps)` and records
/// every call and position — `aim_trace::gen::generate`'s recording loop,
/// usable on a city as well as on SmallVille.
pub fn capture(village: &mut Village, name: String, seed: u64, start: u32, steps: u32) -> Trace {
    let n = village.num_agents() as u32;
    let meta = TraceMeta {
        name,
        num_agents: n,
        start_step: start,
        num_steps: steps,
        map_width: village.map().width(),
        map_height: village.map().height(),
        radius_p: 4,
        max_vel: 1,
        seed,
    };
    let mut builder = TraceBuilder::new(meta, &village.positions());
    let mut row = vec![Point::new(0, 0); n as usize];
    let mut filled = 0;
    village.run_lockstep(start, start + steps, |step, agent, plan, new_pos| {
        for call in &plan.calls {
            builder.push_call(
                agent,
                step - start,
                call.kind,
                call.input_tokens,
                call.output_tokens,
            );
        }
        row[agent as usize] = new_pos;
        filled += 1;
        if filled == n {
            builder.push_positions(&row);
            filled = 0;
        }
    });
    builder.finish()
}

/// Builds `workload`'s inputs from `seed`, each stage bracketed by
/// calibration runs.
pub fn setup(workload: &WorkloadDef, seed: u64, bracket: &mut Bracket) -> (Inputs, SetupTimes) {
    let name = format!("{}-seed{seed}", workload.name);
    let (start, steps) = (workload.start, workload.steps);
    let (trace, map, city, gen, cap);
    if workload.arm == Arm::CityLive {
        let cfg = city_config(seed);
        let (base, g) = bracket.time(|| city::generate(&cfg));
        // Cold start, as the repository's city tests do: at 08:00 every
        // agent's first plan fires its wake chain, so ten steps carry
        // real dependency structure without a multi-hour warm-up.
        let ((lockstep, t), c) = bracket.time(|| {
            let mut v = base.clone();
            let t = capture(&mut v, name, seed, start, steps);
            (v, t)
        });
        (trace, map, gen, cap) = (t, base.map().clone(), g, c);
        city = Some(City {
            cfg,
            base,
            lockstep,
        });
    } else {
        let vcfg = VillageConfig {
            villes: workload.villes,
            agents_per_ville: 25,
            seed,
        };
        let (mut village, g) = bracket.time(|| Village::generate(&vcfg));
        let (t, c) = bracket.time(|| {
            village.run_lockstep(0, start, |_, _, _, _| {});
            capture(&mut village, name, seed, start, steps)
        });
        (trace, map, gen, cap) = (t, village.map().clone(), g, c);
        city = None;
    }
    let (oracle, mine) = bracket.time(|| oracle::mine(&trace));
    let p = preset();
    let sim = sim_config();
    let (critical, crit) = bracket.time(|| {
        critical::critical_path(
            &trace,
            &p.cost,
            p.prefill_chunk,
            sim.step_cpu_us,
            sim.commit_cpu_us,
        )
    });
    (
        Inputs {
            trace: Arc::new(trace),
            oracle: Arc::new(oracle),
            critical,
            map,
            city,
        },
        SetupTimes {
            gen,
            capture: cap,
            mine,
            critical: crit,
        },
    )
}

/// How one rep of the product arm is run.
#[derive(Debug, Clone)]
pub enum Mode {
    /// The product as shipped: no wrappers. End-to-end rows.
    Plain,
    /// Every commit checked against the lock-step capture.
    Checked,
    /// Wrappers record spans into the tracer, as rep `rep`.
    Traced(Arc<Tracer>, u32),
    /// The live city with an enabled `Telemetry` sink (city only).
    Observed,
}

/// Numbers read from the layers' public stats after a rep.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Scheduler counters (for the speculative arm: its analogues).
    pub sched: SchedStats,
    /// Store counters, summed over every database of the run.
    pub db: DbStats,
    /// `DistTracker::commits`.
    pub dist_commits: i64,
    /// Speculative arm: squashed steps and wasted token fraction.
    pub spec_squashed: u64,
    pub spec_waste_frac: f64,
    /// Live city: fleet counters and resident history records.
    pub fleet: Option<FleetMetrics>,
    pub resident_records: u64,
}

/// The outcome of one rep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the run itself (construction to completion).
    pub work_s: f64,
    /// Heap allocations made during it.
    pub allocs: u64,
    /// Why the rep is wrong; empty when it is right.
    pub failures: Vec<String>,
    /// The virtual-time report (absent for the live city).
    pub report: Option<RunReport>,
    /// Layer counters.
    pub stats: LayerStats,
    /// Live city: the last checkpoint written.
    pub last_snapshot: Option<bytes::Bytes>,
}

fn add_db(a: &mut DbStats, b: DbStats) {
    a.keys += b.keys;
    a.gets += b.gets;
    a.writes += b.writes;
    a.txn_commits += b.txn_commits;
    a.txn_conflicts += b.txn_conflicts;
}

fn space_of(trace: &Trace) -> Arc<GridSpace> {
    let m = trace.meta();
    Arc::new(GridSpace::new(m.map_width, m.map_height))
}

fn rules_of(trace: &Trace) -> RuleParams {
    let m = trace.meta();
    RuleParams::new(m.radius_p, m.max_vel)
}

fn initial_of(trace: &Trace) -> Vec<Point> {
    (0..trace.meta().num_agents)
        .map(|a| trace.initial_position(a))
        .collect()
}

/// Final-state half of the correctness gate, on any tracker: every agent
/// at the target step, at the lock-step world's final position, with the
/// validity condition intact.
fn check_final<G: DepTracker<GridSpace>>(graph: &G, trace: &Trace, failures: &mut Vec<String>) {
    let m = trace.meta();
    let wrong = (0..m.num_agents)
        .filter(|&a| {
            graph.step(AgentId(a)).0 != m.num_steps
                || graph.pos(AgentId(a)) != trace.position_after(a, m.num_steps - 1)
        })
        .count();
    if wrong > 0 {
        failures.push(format!(
            "{wrong} agents ended off the lock-step world's final state"
        ));
    }
    if let Err(e) = graph.validate() {
        failures.push(format!("validity condition violated: {e}"));
    }
}

/// Runs one virtual-time arm of `policy` on a plain `DepGraph` — the
/// reference arms (parallel-sync, oracle, no-dependency).
///
/// # Panics
///
/// Panics on an engine error, which no generated input can cause.
pub fn run_policy(inputs: &Inputs, policy: DependencyPolicy) -> RunReport {
    let trace = &*inputs.trace;
    let mut sched = Scheduler::new(
        space_of(trace),
        rules_of(trace),
        policy,
        Arc::new(Db::new()),
        &initial_of(trace),
        Workload::target_step(trace),
    )
    .expect("scheduler over a fresh store");
    run_sim(&mut sched, trace, &mut sim_server(), &sim_config()).expect("virtual-time run")
}

/// A fresh single-shard `DepGraph` over the capture's agents, as the
/// conservative engine mounts it.
pub fn depgraph(trace: &Trace) -> DepGraph<GridSpace> {
    DepGraph::new(
        space_of(trace),
        rules_of(trace),
        Arc::new(Db::new()),
        &initial_of(trace),
    )
    .expect("graph over a fresh store")
}

/// A fresh `DistTracker`: [`SHARDS`] channel workers, history on.
pub fn dist_tracker(trace: &Trace) -> DistTracker<GridSpace> {
    DistTracker::new(
        space_of(trace),
        rules_of(trace),
        &initial_of(trace),
        Arc::new(StripShardMap::new(trace.meta().map_width, SHARDS)),
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: true,
        },
    )
    .expect("distributed tracker over fresh stores")
}

/// A fresh `ShardedDepGraph` of [`SHARDS`] strips.
pub fn sharded_graph(trace: &Trace) -> ShardedDepGraph<GridSpace> {
    ShardedDepGraph::new(
        space_of(trace),
        rules_of(trace),
        Arc::new(Db::new()),
        &initial_of(trace),
        Arc::new(StripShardMap::new(trace.meta().map_width, SHARDS)),
    )
    .expect("sharded graph over a fresh store")
}

/// A fresh speculative scheduler with run-ahead [`RUNAHEAD`].
pub fn spec_scheduler(trace: &Trace) -> SpecScheduler<GridSpace> {
    SpecScheduler::new(
        space_of(trace),
        rules_of(trace),
        SpecParams::new(RUNAHEAD),
        Arc::new(Db::new()),
        &initial_of(trace),
        Workload::target_step(trace),
    )
    .expect("speculative scheduler over a fresh store")
}

/// Mounts a scheduler on `graph` and replays `workload` on it out of
/// order, start to finish: the timed part of a replay rep.
fn replay<G: DepTracker<GridSpace>, W: Workload<Point>>(
    graph: G,
    workload: &W,
) -> (Scheduler<GridSpace, G>, RunReport) {
    let mut sched = Scheduler::from_graph(
        graph,
        DependencyPolicy::Spatiotemporal,
        workload.target_step(),
    );
    let report =
        run_sim(&mut sched, workload, &mut sim_server(), &sim_config()).expect("virtual-time run");
    (sched, report)
}

/// One rep of the capture replayed on the tracker `build` makes: runs it
/// as `mode` says, checks the outcome, and reads the layer counters off
/// the tracker with `read_stats`.
fn replay_on<G: DepTracker<GridSpace>>(
    inputs: &Inputs,
    mode: &Mode,
    build: impl FnOnce() -> G,
    read_stats: impl FnOnce(&G, &mut LayerStats),
) -> Rep {
    let trace = &*inputs.trace;
    let mut failures = Vec::new();
    let mut stats = LayerStats::default();
    let finish = |graph: &G| {
        check_final(graph, trace, &mut failures);
        read_stats(graph, &mut stats);
    };
    let (a0, t0) = (allocations(), Instant::now());
    let measure = || (t0.elapsed().as_secs_f64(), allocations() - a0);
    let (work_s, allocs, report, diverged);
    match mode {
        Mode::Plain | Mode::Observed => {
            let (sched, r) = replay(build(), trace);
            (work_s, allocs) = measure();
            (report, diverged) = (r, 0);
            finish(sched.graph());
        }
        Mode::Checked => {
            let probe = Probe::checking(build(), Arc::clone(&inputs.trace));
            let (sched, r) = replay(probe, trace);
            (work_s, allocs) = measure();
            (report, diverged) = (r, sched.graph().diverged());
            finish(sched.graph().inner());
        }
        Mode::Traced(tracer, rep) => {
            let workload = TracedWorkload::new(trace, tracer);
            let ((sched, r), _) = tracer.rep(*rep, || {
                replay(Probe::tracing(build(), Arc::clone(tracer)), &workload)
            });
            (work_s, allocs) = measure();
            (report, diverged) = (r, 0);
            finish(sched.graph().inner());
        }
    }
    if diverged > 0 {
        failures.push(format!(
            "{diverged} committed agent-steps differ from the lock-step history"
        ));
    }
    stats.sched = report.sched;
    if report.sched.agent_steps != inputs.agent_steps() {
        failures.push(format!(
            "{} agent-steps executed, {} expected",
            report.sched.agent_steps,
            inputs.agent_steps()
        ));
    }
    Rep {
        work_s,
        allocs,
        failures,
        report: Some(report),
        stats,
        last_snapshot: None,
    }
}

/// One rep of the conservative engine on the single-shard `DepGraph`.
pub fn rep_depgraph(inputs: &Inputs, mode: &Mode) -> Rep {
    replay_on(
        inputs,
        mode,
        || depgraph(&inputs.trace),
        |g, stats| stats.db = g.db().stats(),
    )
}

fn rep_dist(inputs: &Inputs, mode: &Mode) -> Rep {
    replay_on(
        inputs,
        mode,
        || dist_tracker(&inputs.trace),
        |g, stats| {
            for i in 0..g.num_shards() {
                add_db(&mut stats.db, g.worker_db(i).stats());
            }
            stats.dist_commits = g.commits();
        },
    )
}

/// The city capture replayed on a `ShardedDepGraph` — the virtual-time
/// product arm behind the live city's `sim_*` rows.
fn rep_sharded_replay(inputs: &Inputs, mode: &Mode) -> Rep {
    replay_on(
        inputs,
        mode,
        || sharded_graph(&inputs.trace),
        |g, stats| stats.db = g.db().stats(),
    )
}

fn rep_spec(inputs: &Inputs, mode: &Mode) -> Rep {
    let trace = &*inputs.trace;
    fn run<W: Workload<Point>>(
        trace: &Trace,
        workload: &W,
    ) -> (SpecScheduler<GridSpace>, Result<RunReport, EngineError>) {
        let mut sched = spec_scheduler(trace);
        let r = run_spec_sim(&mut sched, workload, &mut sim_server(), &sim_config());
        (sched, r)
    }
    let (a0, t0) = (allocations(), Instant::now());
    let (sched, r) = match mode {
        Mode::Traced(tracer, rep) => {
            let workload = TracedWorkload::new(trace, tracer);
            tracer.rep(*rep, || run(trace, &workload)).0
        }
        _ => run(trace, trace),
    };
    let (work_s, allocs) = (t0.elapsed().as_secs_f64(), allocations() - a0);
    let report = r.expect("speculative virtual-time run");
    let mut failures = Vec::new();
    check_final(sched.graph(), trace, &mut failures);
    let s = sched.stats();
    if s.retired_steps != inputs.agent_steps() {
        failures.push(format!(
            "{} agent-steps retired, {} expected",
            s.retired_steps,
            inputs.agent_steps()
        ));
    }
    let spec = report.spec.expect("speculative runs report their waste");
    // The speculative scheduler's analogues of the scheduler counters.
    let mut counters = report.sched;
    counters.clusters_emitted = s.emitted_firm + s.emitted_spec;
    counters.agent_steps = s.agent_steps;
    counters.max_step_skew = s.max_step_skew;
    counters.max_cluster_size = s.max_cluster_size;
    let stats = LayerStats {
        sched: counters,
        db: sched.graph().db().stats(),
        spec_squashed: s.squashed_steps,
        spec_waste_frac: spec.waste_fraction(report.total_input_tokens, report.total_output_tokens),
        ..LayerStats::default()
    };
    Rep {
        work_s,
        allocs,
        failures,
        report: Some(report),
        stats,
        last_snapshot: None,
    }
}

fn rep_city_live(inputs: &Inputs, mode: &Mode) -> Rep {
    let city = inputs.city.as_ref().expect("city inputs");
    let trace = &*inputs.trace;
    let start = trace.meta().start_step;
    let tracer = match mode {
        Mode::Traced(t, _) => Some(Arc::clone(t)),
        _ => None,
    };
    let mut last_snapshot = None;
    let run = |last_snapshot: &mut Option<bytes::Bytes>| {
        let village = city.base.clone();
        let space = village.space();
        let program = Arc::new(VillageProgram::with_step_offset(village, start));
        let initial = program.initial_positions();
        let graph = ShardedDepGraph::new_with_options(
            Arc::new(space),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &initial,
            Arc::new(city.cfg.shard_map(SHARDS)),
            GraphOptions {
                edges: EdgeMode::Maintained,
                history: true,
            },
        )
        .expect("sharded graph over a fresh store");
        let mut sched = Scheduler::from_graph(
            graph,
            DependencyPolicy::Spatiotemporal,
            Step(trace.meta().num_steps),
        );
        let replica = ServerConfig::from_preset(preset(), 1, true);
        let fleet = Arc::new(
            FleetConfig::new("city", RoutePolicyKind::PrefixAffinity)
                .with_replica(ReplicaSpec::sim(replica.clone(), CITY_TIME_SCALE))
                .with_replica(ReplicaSpec::sim(replica, CITY_TIME_SCALE))
                // 60 % of the population per replica: a prefix stays
                // resident only if routing keeps its agent on one replica.
                .with_prefix_lru_entries(city.cfg.agents * 3 / 5)
                .build(),
        );
        let mut backend: Arc<dyn LlmBackend> = Arc::clone(&fleet) as Arc<dyn LlmBackend>;
        if let Some(t) = &tracer {
            backend = Arc::new(TracedBackend::new(backend, Arc::clone(t)));
        }
        let mut hook =
            |s: &mut Scheduler<GridSpace, ShardedDepGraph<GridSpace>>| -> Result<(), EngineError> {
                match &tracer {
                    Some(t) => {
                        t.span(Layer::StoreEvict, || s.evict_history())?;
                        *last_snapshot = Some(t.span(Layer::SnapshotEncode, || {
                            checkpoint::snapshot_sharded_run(s, start, None).to_bytes()
                        })?);
                    }
                    None => {
                        s.evict_history()?;
                        *last_snapshot =
                            Some(checkpoint::snapshot_sharded_run(s, start, None).to_bytes()?);
                    }
                }
                Ok(())
            };
        let cfg = ThreadedConfig {
            workers: CITY_WORKERS,
            priority_enabled: true,
        };
        let hook = Some(CheckpointHook {
            every_steps: CITY_CHECKPOINT_EVERY,
            f: &mut hook,
        });
        let telemetry = matches!(mode, Mode::Observed).then(|| Arc::new(Telemetry::new()));
        let (result, diverged) = match mode {
            Mode::Plain | Mode::Observed => (
                run_threaded_observed(
                    &mut sched,
                    Arc::clone(&program),
                    backend,
                    cfg,
                    hook,
                    telemetry,
                ),
                0,
            ),
            Mode::Checked | Mode::Traced(..) => {
                let lockstep = matches!(mode, Mode::Checked).then(|| Arc::clone(&inputs.trace));
                let probe = Arc::new(ProbeProgram::new(
                    Arc::clone(&program),
                    tracer.clone(),
                    lockstep,
                ));
                let r =
                    run_threaded_observed(&mut sched, Arc::clone(&probe), backend, cfg, hook, None);
                (r, probe.diverged())
            }
        };
        (sched, program, fleet, result, diverged)
    };
    let (a0, t0) = (allocations(), Instant::now());
    let (sched, program, fleet, result, diverged) = match mode {
        Mode::Traced(t, rep) => t.rep(*rep, || run(&mut last_snapshot)).0,
        _ => run(&mut last_snapshot),
    };
    let (work_s, allocs) = (t0.elapsed().as_secs_f64(), allocations() - a0);
    let report = result.expect("threaded city run");

    let mut failures = Vec::new();
    check_final(sched.graph(), trace, &mut failures);
    if report.agent_steps != inputs.agent_steps() {
        failures.push(format!(
            "{} agent-steps executed, {} expected",
            report.agent_steps,
            inputs.agent_steps()
        ));
    }
    if diverged > 0 {
        failures.push(format!(
            "{diverged} committed agent-steps differ from the lock-step history"
        ));
    }
    let village = Arc::try_unwrap(program)
        .expect("workers joined and wrappers dropped")
        .into_village();
    if village.positions() != city.lockstep.positions()
        || village.events() != city.lockstep.events()
    {
        failures.push("the live world differs from the lock-step world".to_string());
    }
    match &last_snapshot {
        None => failures.push("no checkpoint was written".to_string()),
        Some(bytes) => {
            let resumed = Snapshot::from_bytes(bytes.clone())
                .map_err(|e| e.to_string())
                .and_then(|snap| {
                    checkpoint::resume_sharded(&snap, None, None).map_err(|e| e.to_string())
                });
            match resumed {
                Err(e) => failures.push(format!("last checkpoint does not resume: {e}")),
                Ok((_, resumed)) => {
                    if let Err(e) = resumed.graph().validate() {
                        failures.push(format!("resumed checkpoint is invalid: {e}"));
                    }
                }
            }
        }
    }
    let stats = LayerStats {
        sched: sched.stats(),
        db: sched.graph().db().stats(),
        fleet: Some(fleet.metrics()),
        resident_records: sched.graph().history_records(),
        ..LayerStats::default()
    };
    Rep {
        work_s,
        allocs,
        failures,
        report: None,
        stats,
        last_snapshot,
    }
}

impl WorkloadDef {
    /// Runs the product arm once, start to finish, and checks it.
    pub fn rep(&self, inputs: &Inputs, mode: &Mode) -> Rep {
        match self.arm {
            Arm::DepGraph => rep_depgraph(inputs, mode),
            Arm::Spec => rep_spec(inputs, mode),
            Arm::Dist => rep_dist(inputs, mode),
            Arm::CityLive => rep_city_live(inputs, mode),
        }
    }

    /// Runs the virtual-time product arm once with every commit checked
    /// against the lock-step capture: the arm behind the `sim_*` rows.
    /// For the live city that is the capture replayed on a
    /// `ShardedDepGraph`.
    pub fn sim_product(&self, inputs: &Inputs) -> Rep {
        match self.arm {
            Arm::CityLive => rep_sharded_replay(inputs, &Mode::Checked),
            _ => self.rep(inputs, &Mode::Checked),
        }
    }
}
