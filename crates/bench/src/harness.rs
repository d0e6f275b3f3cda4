//! Shared experiment machinery: trace caching, mode configuration, and run
//! orchestration.

use std::path::PathBuf;
use std::sync::Arc;

use aim_core::prelude::*;
use aim_llm::{Preset, ServerConfig};
use aim_trace::{codec, gen, oracle, Trace};

/// The experiment arms of §4.2, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Original-implementation-style fully serialized baseline.
    SingleThread,
    /// Algorithm-1 global synchronization (strong baseline).
    ParallelSync,
    /// AI Metropolis.
    Metropolis,
    /// Ground-truth dependency management (upper bound).
    Oracle,
    /// All agents independent (scaling lower bound).
    NoDependency,
}

impl Mode {
    /// Label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Mode::SingleThread => "single-thread",
            Mode::ParallelSync => "parallel-sync",
            Mode::Metropolis => "metropolis",
            Mode::Oracle => "oracle",
            Mode::NoDependency => "no-dependency",
        }
    }

    /// The standard four arms of the full-day figures.
    pub fn figure4() -> [Mode; 4] {
        [
            Mode::SingleThread,
            Mode::ParallelSync,
            Mode::Metropolis,
            Mode::Oracle,
        ]
    }
}

/// Everything shared across the runs of one experiment.
#[derive(Debug)]
pub struct RunEnv {
    /// Output directory for CSVs (default `target/repro`).
    pub out_dir: PathBuf,
    /// Scale-down factor for `--quick` runs (1 = full size).
    pub quick: bool,
    /// Per-cluster-step dispatch CPU, µs.
    pub step_cpu_us: u64,
    /// Per-cluster commit CPU, µs.
    pub commit_cpu_us: u64,
    /// Worker-pool size: concurrent clusters in flight (the paper's worker
    /// processes, §3.1). Workers hold their slot while blocked on LLM
    /// calls, so at large agent counts the pool is contended and the
    /// priority order of the ready queue matters (Table 1).
    pub workers: Option<usize>,
    /// Checkpoint cadence override in committed steps
    /// (`repro --checkpoint-every K`); experiments that checkpoint pick
    /// their own default when unset.
    pub checkpoint_every: Option<u32>,
    /// Resume an interrupted run from this `AIMSNAP v1` snapshot
    /// (`repro --resume <snap>`), instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Record runtime telemetry and export it under this directory
    /// (`repro --telemetry <dir>`): per-arm `.telemetry` reports plus
    /// Perfetto `trace.json` files, for experiments that run the threaded
    /// executor (city, city-fleet). `None` leaves the spans subsystem
    /// disabled — a single relaxed atomic load per would-be span.
    pub telemetry: Option<PathBuf>,
    /// Heartbeat period in seconds for the live metrics surface
    /// (`repro --live-stats N`): while an observed threaded run is in
    /// flight, a sampler thread prints a Prometheus-style exposition of
    /// the current [`aim_core::telemetry::MetricsSnapshot`] every `N`
    /// seconds — sampled without quiescing the run. Requires
    /// `--telemetry`; `None` disables the heartbeat.
    pub live_stats: Option<u64>,
    /// Port for the live health plane (`repro --serve PORT`): observed
    /// experiments bind an `aim-serve` [`aim_serve::StatusServer`] on
    /// `127.0.0.1:PORT` for the duration of each observed run, exposing
    /// `/metrics`, `/status`, and `/healthz` plus the stall watchdog.
    /// Requires `--telemetry`; `None` disables the endpoint.
    pub serve: Option<u16>,
}

impl Default for RunEnv {
    fn default() -> Self {
        RunEnv {
            out_dir: PathBuf::from("target/repro"),
            quick: false,
            step_cpu_us: 2_000,
            commit_cpu_us: 1_000,
            workers: Some(48),
            checkpoint_every: None,
            resume: None,
            telemetry: None,
            live_stats: None,
            serve: None,
        }
    }
}

/// A running `--live-stats` heartbeat: samples the observed run's
/// [`aim_core::telemetry::Telemetry`] sink (once immediately, then on a
/// fixed period) and prints the Prometheus-style exposition on stderr.
/// Dropping the guard stops the sampler thread and joins it, so
/// heartbeats never outlive the run they watch.
#[derive(Debug)]
pub struct LiveStats {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for LiveStats {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The wall budget after which a run with no commits is declared
/// stalled by the `--serve` watchdog (30 s: a healthy quick run commits
/// several times a second, so this only trips on genuine wedges).
pub const WATCHDOG_BUDGET_US: u64 = 30_000_000;

/// A running `--serve` health plane: holds the HTTP status server for
/// the duration of one observed run, plus the [`HealthBoard`] that
/// distributed experiments feed from heartbeat polls. Dropping the
/// guard shuts the server down.
///
/// [`HealthBoard`]: aim_core::health::HealthBoard
#[derive(Debug)]
pub struct StatusGuard {
    /// Per-worker liveness board; pass to
    /// `DistTracker::poll_heartbeats` from a checkpoint hook.
    pub board: Arc<aim_core::health::HealthBoard>,
    source: Arc<aim_serve::RunStatus>,
    server: aim_serve::StatusServer,
}

impl StatusGuard {
    /// The bound port (`--serve 0` binds an ephemeral one).
    pub fn port(&self) -> u16 {
        self.server.port()
    }

    /// Whether the stall watchdog has fired during this run.
    pub fn stalled(&self) -> bool {
        self.source.stall_report().is_some()
    }
}

impl RunEnv {
    /// Starts the `--serve` health plane for one observed run,
    /// returning a guard that keeps the HTTP endpoint up until dropped.
    /// `None` when either `--serve` or `--telemetry` is off (the
    /// status page renders the observed sink), or when the bind fails
    /// (reported on stderr — a health plane must never kill the run it
    /// watches).
    pub fn status_guard(
        &self,
        label: &str,
        agents: u32,
        telemetry: Option<&Arc<aim_core::telemetry::Telemetry>>,
        backend: Option<Arc<dyn aim_llm::LlmBackend>>,
    ) -> Option<StatusGuard> {
        use aim_core::health::{HealthBoard, Watchdog};
        let port = self.serve?;
        let t = telemetry?;
        let board = Arc::new(HealthBoard::new());
        let mut status = aim_serve::RunStatus::new(label, agents)
            .with_telemetry(Arc::clone(t))
            .with_board(Arc::clone(&board))
            .with_watchdog(Arc::new(Watchdog::new(WATCHDOG_BUDGET_US)));
        if let Some(b) = backend {
            status = status.with_backend(b);
        }
        let source = Arc::new(status);
        match aim_serve::StatusServer::start(
            port,
            Arc::clone(&source) as Arc<dyn aim_serve::StatusSource>,
        ) {
            Ok(server) => {
                eprintln!(
                    "[serve] {label}: status endpoint on http://127.0.0.1:{}",
                    server.port()
                );
                Some(StatusGuard {
                    board,
                    source,
                    server,
                })
            }
            Err(e) => {
                eprintln!("[serve] {label}: could not bind 127.0.0.1:{port}: {e}");
                None
            }
        }
    }

    /// When `--telemetry <dir>` is set, builds an enabled
    /// [`aim_core::telemetry::Telemetry`] sink to pass to
    /// [`aim_core::exec::threaded::run_threaded_observed`]; `None`
    /// otherwise. One sink per run — do not share across arms.
    pub fn telemetry_sink(&self) -> Option<Arc<aim_core::telemetry::Telemetry>> {
        self.telemetry.as_ref()?;
        Some(Arc::new(aim_core::telemetry::Telemetry::new()))
    }

    /// Starts the `--live-stats` heartbeat over `telemetry`, returning a
    /// guard that stops the sampler when dropped (hold it across the
    /// run). `None` when either `--live-stats` or `--telemetry` is off —
    /// the heartbeat samples the observed sink, so it needs both.
    pub fn live_stats_guard(
        &self,
        telemetry: Option<&Arc<aim_core::telemetry::Telemetry>>,
    ) -> Option<LiveStats> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let period = self.live_stats?;
        let t = Arc::clone(telemetry?);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut beat = 0u64;
            loop {
                // Beat first, then sleep: even a run shorter than one
                // period emits at least one heartbeat.
                beat += 1;
                let snap = t.snapshot();
                // Stderr, not stdout: the tables and CSV paths on stdout
                // must stay machine-consumable even with the heartbeat on.
                eprintln!("--- live stats · beat {beat} ---");
                eprint!("{}", aim_trace::telemetry::prometheus_text(&snap));
                // 100 ms granularity keeps guard drop prompt at run end.
                for _ in 0..period.max(1) * 10 {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            }
        });
        Some(LiveStats {
            stop,
            handle: Some(handle),
        })
    }

    /// Exports one observed run's report under the `--telemetry` dir as
    /// `<label>.telemetry` (AIMTEL v1) plus `<label>.trace.json`
    /// (Perfetto), and checks the acceptance gate: the four stall
    /// categories must cover ≥95% of the wall budget.
    ///
    /// # Panics
    ///
    /// Panics if the decomposition covers less than 95% of the run or an
    /// export file cannot be written.
    pub fn export_telemetry(&self, label: &str, rt: &aim_core::telemetry::RunTelemetry) {
        let Some(dir) = &self.telemetry else { return };
        assert!(
            rt.decomposition.coverage() >= 0.95,
            "telemetry decomposition covers only {:.1}% of {label}",
            100.0 * rt.decomposition.coverage()
        );
        std::fs::create_dir_all(dir).expect("telemetry dir");
        let tel_path = dir.join(format!("{label}.telemetry"));
        aim_trace::telemetry::save(rt, &tel_path).expect("write .telemetry");
        let json_path = dir.join(format!("{label}.trace.json"));
        let file = std::fs::File::create(&json_path).expect("create trace.json");
        let mut w = std::io::BufWriter::new(file);
        aim_trace::telemetry::write_chrome_trace(rt, &mut w).expect("write trace.json");
        println!(
            "  telemetry: wrote {} and {}",
            tel_path.display(),
            json_path.display()
        );
    }

    /// Returns a cached trace for `cfg`, generating (and saving) it on
    /// first use — generation of big villes takes a while and every
    /// experiment replays the same traces, exactly like the paper reuses
    /// its collected traces.
    pub fn trace(&self, cfg: &gen::GenConfig) -> Trace {
        let dir = self.out_dir.join("traces");
        let name = format!(
            "v{}x{}-seed{}-s{}+{}.trc",
            cfg.villes, cfg.agents_per_ville, cfg.seed, cfg.window_start, cfg.window_len
        );
        let path = dir.join(name);
        if let Ok(t) = codec::load(&path) {
            return t;
        }
        let t = gen::generate(cfg);
        std::fs::create_dir_all(&dir).ok();
        codec::save(&t, &path).ok();
        t
    }
}

/// Executes one mode over `trace` on `gpus` GPUs of `preset` hardware.
///
/// `oracle_graph` is required for [`Mode::Oracle`] (mine once per trace
/// with [`aim_trace::oracle::mine`] and share it across GPU counts).
///
/// # Panics
///
/// Panics if `Mode::Oracle` is requested without an oracle graph, or on
/// internal scheduler errors (which would indicate a bug, not bad input).
pub fn run_one(
    env: &RunEnv,
    trace: &Trace,
    mode: Mode,
    preset: &Preset,
    gpus: u32,
    priority: bool,
    oracle_graph: Option<&Arc<OracleGraph>>,
) -> RunReport {
    let policy = match mode {
        Mode::SingleThread | Mode::ParallelSync => DependencyPolicy::GlobalSync,
        Mode::Metropolis => DependencyPolicy::Spatiotemporal,
        Mode::Oracle => DependencyPolicy::Oracle(Arc::clone(
            oracle_graph.expect("oracle mode needs a mined graph"),
        )),
        Mode::NoDependency => DependencyPolicy::NoDependency,
    };
    let single_thread = mode == Mode::SingleThread;
    let mut report = replay_engine(env, trace, preset, gpus, priority, single_thread)
        .policy(policy)
        .build()
        .run_replay(trace)
        .expect("replay run");
    report.mode = mode.label().to_string();
    report
}

/// Executes the *speculative* engine (paper §6, `aim_core::spec`) over
/// `trace` with the given run-ahead budget. `runahead == 0` reproduces
/// [`Mode::Metropolis`] exactly.
///
/// # Panics
///
/// Panics on internal scheduler errors (a bug, not bad input).
pub fn run_one_spec(
    env: &RunEnv,
    trace: &Trace,
    runahead: u32,
    preset: &Preset,
    gpus: u32,
    priority: bool,
) -> RunReport {
    replay_engine(env, trace, preset, gpus, priority, false)
        .speculation(aim_core::spec::SpecParams::new(runahead))
        .build()
        .run_replay(trace)
        .expect("speculative replay run")
}

/// An engine over `trace`'s own map and rule parameters, served by
/// `gpus` GPUs of `preset` hardware, with `env`'s executor knobs
/// (`single_thread` serializes everything); the caller adds the policy.
fn replay_engine(
    env: &RunEnv,
    trace: &Trace,
    preset: &Preset,
    gpus: u32,
    priority: bool,
    single_thread: bool,
) -> EngineBuilder<GridSpace> {
    let sim = SimConfig {
        step_cpu_us: env.step_cpu_us,
        commit_cpu_us: env.commit_cpu_us,
        serial_agents: single_thread,
        max_concurrent_clusters: if single_thread { Some(1) } else { env.workers },
        priority_ready_queue: priority,
        record_timeline: false,
    };
    let meta = trace.meta();
    let replicas = preset.replicas_for_gpus(gpus);
    Engine::builder(GridSpace::new(meta.map_width, meta.map_height))
        .rules(RuleParams::new(meta.radius_p, meta.max_vel))
        .server(ServerConfig::from_preset(
            preset.clone(),
            replicas,
            priority,
        ))
        .sim(sim)
}

/// Runs several modes over the same trace, returning `(mode, report)`
/// pairs. The oracle graph is mined once if any mode needs it.
pub fn run_modes(
    env: &RunEnv,
    trace: &Trace,
    modes: &[Mode],
    preset: &Preset,
    gpus: u32,
    priority: bool,
) -> Vec<(Mode, RunReport)> {
    let needs_oracle = modes.contains(&Mode::Oracle);
    let graph = needs_oracle.then(|| Arc::new(oracle::mine(trace)));
    modes
        .iter()
        .map(|&m| {
            (
                m,
                run_one(env, trace, m, preset, gpus, priority, graph.as_ref()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_llm::presets;
    use aim_world::clock_to_step;

    fn small_trace(env: &RunEnv) -> Trace {
        env.trace(&gen::GenConfig {
            villes: 1,
            agents_per_ville: 10,
            seed: 3,
            window_start: clock_to_step(9, 0),
            window_len: 60,
        })
    }

    #[test]
    fn ordering_of_modes_holds_on_small_run() {
        let env = RunEnv {
            out_dir: std::env::temp_dir().join("aim-bench-harness-test"),
            ..RunEnv::default()
        };
        let trace = small_trace(&env);
        let preset = presets::tiny_test();
        let runs = run_modes(
            &env,
            &trace,
            &[
                Mode::SingleThread,
                Mode::ParallelSync,
                Mode::Metropolis,
                Mode::Oracle,
            ],
            &preset,
            1,
            true,
        );
        let t = |m: Mode| {
            runs.iter()
                .find(|(mm, _)| *mm == m)
                .map(|(_, r)| r.makespan)
                .expect("mode ran")
        };
        assert!(t(Mode::Metropolis) <= t(Mode::ParallelSync));
        assert!(t(Mode::ParallelSync) <= t(Mode::SingleThread));
        assert!(t(Mode::Oracle) <= t(Mode::ParallelSync));
    }

    #[test]
    fn trace_cache_roundtrips() {
        let env = RunEnv {
            out_dir: std::env::temp_dir().join("aim-bench-cache-test"),
            ..RunEnv::default()
        };
        std::fs::remove_dir_all(&env.out_dir).ok();
        let a = small_trace(&env);
        let b = small_trace(&env); // second call loads from disk
        assert_eq!(a, b);
    }
}
