//! Hybrid interactive + offline execution (paper §6 "Offline and
//! Interactive").
//!
//! The paper frames games like The Sims as hybrids: the part the player
//! talks to needs *latency*, while background agents should run as an
//! offline simulation optimized for *throughput*. This driver replays a
//! background simulation exactly like [`crate::exec::sim::run_sim`] while
//! injecting an open-loop stream of latency-critical chat requests
//! ([`InteractiveLoad`]) into the same serving engine, and reports both
//! sides of the trade: the simulation's completion time and the
//! interactive stream's latency distribution.
//!
//! Pair it with [`aim_llm::ServerConfig::with_interactive_lane`] to give
//! the interactive lane admission priority and reserved batch slots, or
//! run it against a FIFO/priority-only server to measure what the player
//! experiences without QoS.

use aim_llm::{CallKind, LlmRequest, RequestId, SimServer, VirtualTime};
use serde::{Deserialize, Serialize};

use crate::depgraph::DepTracker;
use crate::error::EngineError;
use crate::exec::kernel;
use crate::exec::sim::SimConfig;
use crate::metrics::RunReport;
use crate::scheduler::Scheduler;
use crate::space::Space;
use crate::workload::Workload;

/// Deterministic open-loop interactive traffic: `count` chat-style
/// requests with pseudo-exponential interarrival times.
///
/// # Example
///
/// ```
/// use aim_core::exec::hybrid::InteractiveLoad;
///
/// let load = InteractiveLoad::chat(2_000_000, 100, 7); // ~2s apart
/// let arrivals = load.arrivals();
/// assert_eq!(arrivals.len(), 100);
/// assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InteractiveLoad {
    /// Mean interarrival time, µs (virtual time).
    pub mean_interarrival_us: u64,
    /// Prompt tokens per request.
    pub input_tokens: u32,
    /// Generated tokens per request.
    pub output_tokens: u32,
    /// Number of requests to inject.
    pub count: u32,
    /// Seed for the deterministic arrival process.
    pub seed: u64,
}

impl InteractiveLoad {
    /// A chat-like load: 250 prompt / 80 generated tokens per turn.
    pub fn chat(mean_interarrival_us: u64, count: u32, seed: u64) -> Self {
        InteractiveLoad {
            mean_interarrival_us,
            input_tokens: 250,
            output_tokens: 80,
            count,
            seed,
        }
    }

    /// The deterministic arrival times (strictly increasing).
    pub fn arrivals(&self) -> Vec<VirtualTime> {
        let mut out = Vec::with_capacity(self.count as usize);
        let mut at = 0u64;
        let mut state = self.seed | 1;
        for _ in 0..self.count {
            // splitmix-style hash → uniform in (0,1) → exponential.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let u = ((z >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            let dt = (-(u.ln()) * self.mean_interarrival_us as f64) as u64;
            at += dt.max(1);
            out.push(VirtualTime::from_micros(at));
        }
        out
    }
}

/// Latency distribution of the interactive stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct InteractiveReport {
    /// Requests injected.
    pub count: u64,
    /// Mean end-to-end latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 95th-percentile latency, µs.
    pub p95_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Worst observed latency, µs.
    pub max_us: u64,
}

impl InteractiveReport {
    fn from_latencies(mut lat: Vec<u64>) -> Self {
        lat.sort_unstable();
        let count = lat.len() as u64;
        let mean = if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<u64>() as f64 / lat.len() as f64
        };
        let pct = |q: f64| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
            lat[idx]
        };
        InteractiveReport {
            count,
            mean_us: mean,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: lat.last().copied().unwrap_or(0),
        }
    }
}

/// Runs the background simulation to completion while serving `load`'s
/// interactive stream on the same engine; returns the simulation report
/// and the interactive latency distribution.
///
/// The report's `makespan` is the last cluster commit, but the stream may
/// outlive the simulation and the server is drained either way, so
/// `gpu_utilization` and `achieved_parallelism` are averages over the
/// whole served interval (see [`RunReport`]). Interactive requests are
/// not counted in the call and token totals, nor in the timeline.
///
/// # Errors
///
/// Propagates store failures and reports scheduler deadlock as
/// [`EngineError::Deadlock`].
pub fn run_hybrid_sim<S, G, W>(
    scheduler: &mut Scheduler<S, G>,
    workload: &W,
    server: &mut SimServer,
    load: &InteractiveLoad,
    cfg: &SimConfig,
) -> Result<(RunReport, InteractiveReport), EngineError>
where
    S: Space,
    G: DepTracker<S>,
    W: Workload<S::Pos> + ?Sized,
{
    let turn = |(k, at): (usize, VirtualTime)| {
        let id = RequestId(kernel::INTERACTIVE_BASE + k as u64);
        let (input, output) = (load.input_tokens, load.output_tokens);
        let req = LlmRequest::new(id, u32::MAX, 0, input, output, CallKind::Converse);
        (at, req.interactive())
    };
    let stream: Vec<_> = load.arrivals().into_iter().enumerate().map(turn).collect();
    let mut outcome = kernel::run(scheduler, workload, server, &stream, cfg)?;
    let latencies = std::mem::take(&mut outcome.interactive_latencies_us);
    let report = outcome.report("hybrid".to_string(), scheduler.stats(), None);
    Ok((report, InteractiveReport::from_latencies(latencies)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Step;
    use crate::policy::DependencyPolicy;
    use crate::rules::RuleParams;
    use crate::space::{GridSpace, Point};
    use crate::workload::testutil::TableWorkload;
    use crate::workload::CallSpec;
    use aim_llm::{presets, ServerConfig};
    use aim_store::Db;
    use std::sync::Arc;

    fn mk_sched(initial: &[Point], target: u32) -> Scheduler<GridSpace> {
        Scheduler::new(
            Arc::new(GridSpace::new(500, 500)),
            RuleParams::genagent(),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            initial,
            Step(target),
        )
        .unwrap()
    }

    fn busy_workload(steps: u32) -> TableWorkload {
        let mut w = TableWorkload::stationary(
            vec![Point::new(0, 0), Point::new(200, 200), Point::new(400, 0)],
            steps,
        );
        for s in 0..steps {
            for a in 0..3 {
                w = w.with_call(a, s, CallSpec::new(300, 60, CallKind::Plan));
            }
        }
        w
    }

    fn run(server_cfg: ServerConfig, load: InteractiveLoad) -> (RunReport, InteractiveReport) {
        let (report, chat, _) = run_with(server_cfg, load, &SimConfig::default());
        (report, chat)
    }

    /// Also returns the drained server.
    fn run_with(
        server_cfg: ServerConfig,
        load: InteractiveLoad,
        cfg: &SimConfig,
    ) -> (RunReport, InteractiveReport, SimServer) {
        let w = busy_workload(6);
        let mut sched = mk_sched(&w.initial, 6);
        let mut server = SimServer::new(server_cfg);
        let (report, chat) = run_hybrid_sim(&mut sched, &w, &mut server, &load, cfg).unwrap();
        (report, chat, server)
    }

    fn recording(cfg: SimConfig) -> SimConfig {
        SimConfig {
            record_timeline: true,
            ..cfg
        }
    }

    #[test]
    fn empty_load_reports_zeros() {
        let cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let load = InteractiveLoad::chat(1, 0, 1);
        assert!(load.arrivals().is_empty());
        let (report, ir) = run(cfg, load);
        assert_eq!(ir.count, 0);
        assert_eq!(ir.p99_us, 0);
        assert_eq!(ir.mean_us, 0.0);
        assert!(
            report.makespan > VirtualTime::ZERO,
            "the simulation still runs"
        );
    }

    #[test]
    fn arrivals_are_deterministic_and_increasing() {
        let load = InteractiveLoad::chat(50_000, 200, 42);
        let a = load.arrivals();
        let b = load.arrivals();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Mean interarrival lands in the right ballpark (±50%).
        let mean = a.last().unwrap().as_micros() as f64 / a.len() as f64;
        assert!((25_000.0..75_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn all_interactive_requests_are_served() {
        let cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let load = InteractiveLoad::chat(20_000, 50, 7);
        let (report, ir) = run(cfg, load);
        assert_eq!(ir.count, 50);
        assert!(ir.p50_us <= ir.p95_us && ir.p95_us <= ir.p99_us && ir.p99_us <= ir.max_us);
        assert!(ir.mean_us > 0.0);
        assert!(report.makespan > VirtualTime::ZERO);
        assert_eq!(
            report.total_calls, 18,
            "3 agents x 6 steps, interactive not counted"
        );
    }

    #[test]
    fn lane_qos_cuts_interactive_tail_latency() {
        // Saturate a single small replica with background work and a
        // steady interactive stream; the lane-aware server with reserved
        // slots must deliver a far better interactive p95.
        let load = InteractiveLoad::chat(15_000, 60, 11);
        let fifo = ServerConfig::from_preset(presets::tiny_test(), 1, false);
        let lane =
            ServerConfig::from_preset(presets::tiny_test(), 1, true).with_interactive_lane(2);
        let (_, ir_fifo) = run(fifo, load);
        let (_, ir_lane) = run(lane, load);
        assert!(
            ir_lane.p95_us < ir_fifo.p95_us,
            "lane QoS must cut tail latency: {} vs {}",
            ir_lane.p95_us,
            ir_fifo.p95_us
        );
    }

    #[test]
    fn background_pays_a_bounded_price_for_qos() {
        let load = InteractiveLoad::chat(15_000, 60, 11);
        let plain = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let lane =
            ServerConfig::from_preset(presets::tiny_test(), 1, true).with_interactive_lane(2);
        let (bg_plain, _) = run(plain, load);
        let (bg_lane, _) = run(lane, load);
        // QoS may slow the simulation, but not catastrophically (< 2x).
        assert!(
            bg_lane.makespan.as_secs_f64() < bg_plain.makespan.as_secs_f64() * 2.0,
            "{} vs {}",
            bg_lane.makespan,
            bg_plain.makespan
        );
    }

    #[test]
    fn deterministic_hybrid_runs() {
        let cfg = ServerConfig::from_preset(presets::tiny_test(), 2, true).with_interactive_lane(1);
        let load = InteractiveLoad::chat(10_000, 40, 3);
        let (r1, i1) = run(cfg.clone(), load);
        let (r2, i2) = run(cfg, load);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(i1, i2);
    }

    #[test]
    fn interactive_stream_outliving_simulation_is_drained() {
        // Sparse arrivals stretching far past the short simulation.
        let cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let load = InteractiveLoad::chat(2_000_000, 10, 5);
        let (report, ir) = run(cfg, load);
        assert_eq!(ir.count, 10, "post-simulation arrivals still served");
        assert!(report.makespan > VirtualTime::ZERO);
    }

    #[test]
    fn utilisation_is_taken_over_the_served_interval() {
        // 400 chat turns keep one replica busy for seconds after a
        // half-second simulation; whole-run server metrics divided by the
        // makespan used to report 15 GPUs' worth of utilisation.
        let cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let load = InteractiveLoad::chat(20_000, 400, 5);
        let (report, chat, server) = run_with(cfg, load, &SimConfig::default());
        assert_eq!(chat.count, 400);
        assert!(
            server.now() > report.makespan,
            "the stream must outlive the simulation"
        );
        assert!(
            report.gpu_utilization <= 1.0,
            "utilisation {}",
            report.gpu_utilization
        );
        let m = report.server.as_ref().unwrap();
        assert_eq!(report.gpu_utilization, m.utilization(server.now()));
        assert_eq!(
            report.achieved_parallelism,
            m.achieved_parallelism(server.now())
        );
    }

    #[test]
    fn empty_load_report_equals_run_sim_except_mode() {
        let server_cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let cfg = recording(SimConfig::default());
        let (hybrid, _, _) = run_with(server_cfg.clone(), InteractiveLoad::chat(1, 0, 1), &cfg);
        let w = busy_workload(6);
        let mut sched = mk_sched(&w.initial, 6);
        let mut server = SimServer::new(server_cfg);
        let mut plain = crate::exec::sim::run_sim(&mut sched, &w, &mut server, &cfg).unwrap();
        assert_eq!(plain.mode, "metropolis");
        plain.mode = "hybrid".to_string();
        assert_eq!(hybrid, plain);
    }

    #[test]
    fn recorded_timeline_has_background_spans_only() {
        let server_cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let load = InteractiveLoad::chat(20_000, 50, 7);
        let (report, chat, _) = run_with(server_cfg, load, &recording(SimConfig::default()));
        assert_eq!(chat.count, 50);
        let tl = report.timeline.expect("record_timeline is honoured");
        assert_eq!(tl.spans.len() as u64, report.total_calls);
        assert!(tl.spans.iter().all(|s| s.agent.0 < 3), "no chat spans");
        assert_eq!(tl.commits.len(), 18, "3 singleton clusters x 6 steps");
    }

    #[test]
    fn single_thread_never_overlaps_background_spans() {
        let server_cfg = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let load = InteractiveLoad::chat(20_000, 50, 7);
        let cfg = recording(SimConfig::single_thread());
        let (report, _, _) = run_with(server_cfg, load, &cfg);
        let tl = report.timeline.unwrap();
        assert_eq!(tl.spans.len(), 18);
        assert!(
            tl.spans.windows(2).all(|w| w[0].end <= w[1].start),
            "one background call at a time: {:?}",
            tl.spans
        );
    }
}
