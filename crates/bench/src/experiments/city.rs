//! The city scaling experiment: an OpenCity-style district city driven
//! live under the threaded OOO executor, swept over **agents × shard
//! widths**. For each cell the table reports wall clock, throughput,
//! and the store's resident-record footprint (history eviction runs at
//! every checkpoint barrier, so resident state stays O(agents ×
//! window) while the run commits agents × steps records' worth of
//! history).
//!
//! Width 1 is the unsharded algorithm; wider rows show what spatial
//! partitioning (per-shard step bounds + pruned relink queries, plus
//! parallel relink on multi-core machines) buys on a live workload.

use std::sync::Arc;
use std::time::Instant;

use aim_core::depgraph::{EdgeMode, GraphOptions};
use aim_core::prelude::*;
use aim_llm::{InstantBackend, LlmBackend};
use aim_store::Db;
use aim_world::city::{self, CityConfig};
use aim_world::program::VillageProgram;
use aim_world::{clock_to_step, Village};

use crate::harness::RunEnv;
use crate::table::Table;

/// One sweep cell result (shared with the `smoke` experiment, which
/// drives a single small cell through the same machinery).
pub(crate) struct Cell {
    pub(crate) wall_s: f64,
    pub(crate) steps_per_s: f64,
    pub(crate) resident: u64,
    pub(crate) keys: u64,
    pub(crate) evicted: u64,
    pub(crate) max_cluster: u32,
    pub(crate) skew: u32,
    pub(crate) events: usize,
    pub(crate) telemetry: Option<RunTelemetry>,
}

/// Runs the experiment; prints the table and writes `city.csv`.
///
/// # Panics
///
/// Panics on internal engine errors or a failed world validity check.
pub fn run(env: &RunEnv) {
    let sizes: &[(u32, u32, u32)] = if env.quick {
        &[(628, 2, 2), (2_512, 4, 4)]
    } else {
        &[(2_512, 4, 4), (10_048, 8, 8)]
    };
    let widths: &[usize] = if env.quick { &[1, 4] } else { &[1, 4, 16] };
    let steps = if env.quick { 10 } else { 20 };
    let every = env.checkpoint_every.unwrap_or(5);

    let mut table = Table::new(
        "city scaling (agents × shard width)",
        &[
            "agents",
            "shards",
            "wall s",
            "agent-steps/s",
            "resident hist",
            "store keys",
            "evicted",
            "max cluster",
            "skew",
            "events",
        ],
    );
    for &(agents, dx, dy) in sizes {
        let cfg = CityConfig {
            districts_x: dx,
            districts_y: dy,
            agents,
            seed: 2_025,
        };
        println!(
            "city: generating {agents} agents over {}×{} districts…",
            dx, dy
        );
        let base = city::generate(&cfg);
        // Prints, exports and tabulates one finished cell.
        let mut record = |tag: String, shards: String, cell: Cell| {
            println!(
                "  {tag:<7} {:.2} s wall, {:.0} agent-steps/s, {} resident records",
                cell.wall_s, cell.steps_per_s, cell.resident
            );
            if let Some(rt) = &cell.telemetry {
                env.export_telemetry(&format!("city-{agents}-{tag}"), rt);
            }
            table.push_row(vec![
                agents.to_string(),
                shards,
                format!("{:.2}", cell.wall_s),
                format!("{:.0}", cell.steps_per_s),
                cell.resident.to_string(),
                cell.keys.to_string(),
                cell.evicted.to_string(),
                cell.max_cluster.to_string(),
                cell.skew.to_string(),
                cell.events.to_string(),
            ]);
        };
        for &shards in widths {
            let sink = env.telemetry_sink();
            let _serve = env.status_guard(
                &format!("city-{agents}-w{shards}"),
                agents,
                sink.as_ref(),
                None,
            );
            let cell = drive(&cfg, base.clone(), shards, steps, every, sink);
            record(format!("w{shards}"), shards.to_string(), cell);
        }
        // Distributed arm (smallest size only — the isolation boundary
        // costs ~10× per commit): the same city over [`DistTracker`]'s
        // message-driven shard workers, observed end to end. The shared
        // sink reaches the channel workers through their telemetry cell,
        // and quiesce-barrier harvests fold any worker-local spans into
        // the same merged report the in-process arms export.
        if agents == sizes[0].0 {
            let dist_shards = 4;
            let sink = env.telemetry_sink();
            // The health plane rides the dist arm: heartbeat polls feed
            // the guard's board at every checkpoint barrier, and a
            // severed worker link dumps the flight recorder.
            let serve = env.status_guard(
                &format!("city-{agents}-dist-w{dist_shards}"),
                agents,
                sink.as_ref(),
                None,
            );
            let board = serve.as_ref().map(|g| Arc::clone(&g.board));
            let cell = drive_dist(
                &cfg,
                base.clone(),
                dist_shards,
                steps,
                every,
                sink,
                board,
                env.telemetry.clone(),
            );
            record(
                format!("dist-w{dist_shards}"),
                format!("dist-{dist_shards}"),
                cell,
            );
        }
    }
    print!("{}", table.render());
    if let Ok(path) = table.write_csv(&env.out_dir) {
        println!("wrote {}", path.display());
    }
}

/// A finished live city run (see [`drive_live`]).
pub(crate) struct Live<G: DepTracker<GridSpace>> {
    pub(crate) sched: Scheduler<GridSpace, G>,
    pub(crate) report: ThreadedReport,
    pub(crate) wall_s: f64,
    pub(crate) evicted: u64,
    pub(crate) village: Village,
}

/// The one live city driver: runs `village` from 8am for `steps` steps
/// out of order on the threaded executor over `graph`, a tracker built
/// on the village's space and positions, and asserts the run finished,
/// executed every agent-step and is valid. With `every`, a checkpoint
/// barrier every `every` committed steps evicts history and then runs
/// `extra`. With a telemetry `sink`, the run is observed end to end.
pub(crate) fn drive_live<G: DepTracker<GridSpace>>(
    village: Village,
    graph: G,
    steps: u32,
    backend: Arc<dyn LlmBackend>,
    every: Option<u32>,
    mut extra: impl FnMut(&mut Scheduler<GridSpace, G>),
    sink: Option<Arc<Telemetry>>,
) -> Live<G> {
    let program = VillageProgram::with_step_offset(village, clock_to_step(8, 0));
    let program = Arc::new(program);
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(steps));
    let started = Instant::now();
    let mut evicted = 0u64;
    let mut hook_fn = |sched: &mut Scheduler<GridSpace, G>| -> Result<(), EngineError> {
        evicted += sched.evict_history()?;
        extra(sched);
        Ok(())
    };
    let hook = every.map(|every_steps| CheckpointHook {
        every_steps,
        f: &mut hook_fn,
    });
    let cfg = ThreadedConfig {
        workers: 8,
        priority_enabled: true,
    };
    let report = run_threaded_observed(&mut sched, Arc::clone(&program), backend, cfg, hook, sink)
        .expect("threaded city run");
    let wall_s = started.elapsed().as_secs_f64();
    assert!(sched.is_done());
    assert_eq!(
        report.agent_steps,
        sched.graph().len() as u64 * u64::from(steps),
        "every agent-step must execute"
    );
    assert!(sched.graph().validate().is_ok(), "validity violated");
    let village = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();
    Live {
        sched,
        report,
        wall_s,
        evicted,
        village,
    }
}

/// Drives one (city, shard width) cell to completion. With a telemetry
/// `sink`, the checkpointed run is observed end to end.
pub(crate) fn drive(
    cfg: &CityConfig,
    village: Village,
    shards: usize,
    steps: u32,
    every: u32,
    sink: Option<Arc<Telemetry>>,
) -> Cell {
    let graph = sharded(cfg, &village, shards);
    let backend = Arc::new(InstantBackend::new());
    let live = drive_live(village, graph, steps, backend, Some(every), |_| {}, sink);
    let graph = live.sched.graph();
    graph.check_invariants();
    let store = (graph.history_records(), graph.db().stats().keys as u64);
    Cell::of(cfg, steps, store, live)
}

/// Drives one cell over [`DistTracker`]: every shard is a message-driven
/// worker behind a channel link, so all writes and edge computations
/// cross the typed `dist` protocol. History eviction at each checkpoint
/// barrier doubles as the telemetry harvest barrier; with a `board`,
/// the same barrier also polls worker heartbeats into it, and with a
/// `crash_dir` a severed worker link dumps the flight recorder there.
#[allow(clippy::too_many_arguments)]
fn drive_dist(
    cfg: &CityConfig,
    village: Village,
    shards: usize,
    steps: u32,
    every: u32,
    telemetry: Option<Arc<Telemetry>>,
    board: Option<Arc<HealthBoard>>,
    crash_dir: Option<std::path::PathBuf>,
) -> Cell {
    let mut graph = DistTracker::new(
        Arc::new(village.space()),
        RuleParams::genagent(),
        &village.positions(),
        Arc::new(cfg.shard_map(shards)),
        tracked(),
    )
    .expect("dist tracker");
    if let (Some(dir), Some(t)) = (crash_dir, telemetry.as_ref()) {
        let t = Arc::clone(t);
        let agents = cfg.agents;
        graph.set_severed_hook(Box::new(move |worker| {
            eprintln!("[city] worker {worker} link severed — dumping flight recorder");
            if let Err(e) = aim_serve::flight::write_crash_dump(&t, &dir, agents) {
                eprintln!("[city] flight recorder dump failed: {e}");
            }
        }));
    }
    let poll = |sched: &mut Scheduler<GridSpace, DistTracker<GridSpace>>| {
        if let Some(board) = &board {
            sched.graph_mut().poll_heartbeats(board);
        }
    };
    let backend = Arc::new(InstantBackend::new());
    let live = drive_live(village, graph, steps, backend, Some(every), poll, telemetry);
    let graph = live.sched.graph();
    graph.check_invariants();
    let keys = (0..shards).map(|i| graph.worker_db(i).stats().keys as u64);
    let store = (graph.history_records(), keys.sum());
    Cell::of(cfg, steps, store, live)
}

/// `cfg`'s city `village` tracked over `shards` strips.
pub(crate) fn sharded(
    cfg: &CityConfig,
    village: &Village,
    shards: usize,
) -> ShardedDepGraph<GridSpace> {
    let db = Arc::new(Db::new());
    let map = Arc::new(cfg.shard_map(shards));
    let (space, params) = (Arc::new(village.space()), RuleParams::genagent());
    ShardedDepGraph::new_with_options(space, params, db, &village.positions(), map, tracked())
        .expect("sharded graph")
}

/// Edges maintained and history recorded, as every city run tracks.
fn tracked() -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        history: true,
    }
}

impl Cell {
    /// The row of a finished run whose stores hold `store` =
    /// (resident history records, keys).
    fn of<G: DepTracker<GridSpace>>(
        cfg: &CityConfig,
        steps: u32,
        (resident, keys): (u64, u64),
        live: Live<G>,
    ) -> Self {
        let stats = live.sched.stats();
        Cell {
            wall_s: live.wall_s,
            steps_per_s: (cfg.agents as u64 * steps as u64) as f64 / live.wall_s,
            resident,
            keys,
            evicted: live.evicted,
            max_cluster: stats.max_cluster_size,
            skew: stats.max_step_skew,
            events: live.village.events().len(),
            telemetry: live.report.telemetry,
        }
    }
}
