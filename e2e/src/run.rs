//! One benchmark run: set-up, reference pass, timed reps, and the
//! metric rows that come out.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aim_core::dist::{codec, CtrlMsg, Probe as RelinkProbe, ShardMsg, WireEdge};
use aim_core::prelude::*;
use aim_llm::{LlmRequest, RequestId, VirtualTime};
use aim_store::Snapshot;
use aim_world::pathfind::path_len;
use bytes::BytesMut;

use crate::calib::{calibrated_seconds, Bracket, Sample, CALIB_REF_S};
use crate::host::peak_rss_mib;
use crate::json::Value;
use crate::layers::{Clock, Layer, Probe, RepLayers, Tracer};
use crate::stats::{iqr_frac, median, quartiles};
use crate::workload::{self, Arm, Inputs, Mode, Rep, WorkloadDef};

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, the same seven on every workload.
///
/// The bounds are set from spreads measured over ten seeds per workload
/// (README, "Bounds"): the acceptance rule takes each spread *across
/// seeds*, and one bound serves all five workloads, so the smallest
/// workloads set the `sim_*` bounds. Same-seed runs repeat the `sim_*`
/// rows exactly.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_completion_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_speedup_vs_sync",
        unit: "x",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_frac_of_oracle",
        unit: "ratio",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "host_agent_steps_per_s",
        unit: "agent-steps/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_allocs_per_agent_step",
        unit: "count",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// The per-layer metrics of the traced run: `(name, unit, better)`.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("world.gen_s", "s", "lower"),
    ("world.capture_s", "s", "lower"),
    ("world.pathfind_us_per_query", "us", "lower"),
    ("world.agent_step_share", "ratio", "lower"),
    ("world.agent_step_us_p50", "us", "lower"),
    ("world.agent_step_us_p99", "us", "lower"),
    ("world.commit_share", "ratio", "lower"),
    ("trace.mine_s", "s", "lower"),
    ("trace.critical_s", "s", "lower"),
    ("trace.lookup_share", "ratio", "lower"),
    ("exec.nodep_us_per_agent_step", "us", "lower"),
    ("exec.sim_residual_share", "ratio", "lower"),
    ("exec.threaded_residual_share", "ratio", "lower"),
    ("sched.drain_us_per_agent_step", "us", "lower"),
    ("sched.clusters_per_agent_step", "count", "lower"),
    ("sched.blocked_evals_per_agent_step", "count", "lower"),
    ("sched.watcher_wakes_per_agent_step", "count", "lower"),
    ("sched.max_step_skew", "count", "higher"),
    ("sched.max_cluster_size", "count", "lower"),
    ("tracker.advance_share", "ratio", "lower"),
    ("tracker.advance_us_p50", "us", "lower"),
    ("tracker.advance_us_p99", "us", "lower"),
    ("tracker.advance_calls", "count", "lower"),
    ("tracker.query_share", "ratio", "lower"),
    ("tracker.query_calls", "count", "lower"),
    ("dist.commits", "count", "lower"),
    ("dist.codec_ns_per_msg", "ns", "lower"),
    ("spec.squashed_steps", "count", "lower"),
    ("spec.waste_token_frac", "ratio", "lower"),
    ("spec.host_x_metropolis", "x", "lower"),
    ("store.txn_commits_per_agent_step", "count", "lower"),
    ("store.writes_per_agent_step", "count", "lower"),
    ("store.gets_per_agent_step", "count", "lower"),
    ("store.txn_conflicts", "count", "lower"),
    ("store.checkpoint_share", "ratio", "lower"),
    ("store.snapshot_encode_ms", "ms", "lower"),
    ("store.snapshot_decode_ms", "ms", "lower"),
    ("store.snapshot_bytes", "bytes", "lower"),
    ("store.evict_ms", "ms", "lower"),
    ("store.resident_records", "count", "lower"),
    ("server.gpu_util", "ratio", "higher"),
    ("server.parallelism", "x", "higher"),
    ("server.calls", "count", "lower"),
    ("server.us_per_call", "us", "lower"),
    ("fleet.call_share", "ratio", "lower"),
    ("fleet.call_us_p50", "us", "lower"),
    ("fleet.call_us_p99", "us", "lower"),
    ("fleet.prefix_hit_rate", "ratio", "higher"),
    ("fleet.failed", "count", "lower"),
    ("fleet.retries", "count", "lower"),
    ("telemetry.overhead_frac", "ratio", "lower"),
    ("sim.sync_completion_s", "s", "lower"),
    ("sim.oracle_completion_s", "s", "lower"),
    ("sim.nodep_completion_s", "s", "lower"),
    ("sim.x_critical", "x", "lower"),
    ("bench.pairs", "count", "higher"),
    ("bench.calib_ms_p50", "ms", "lower"),
    ("bench.ratio_iqr_frac", "ratio", "lower"),
    ("bench.rep_raw_s_min", "s", "lower"),
    ("bench.rep_raw_s_p25", "s", "lower"),
    ("bench.rep_raw_s_p50", "s", "lower"),
    ("bench.rep_raw_s_p75", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.spans_dropped", "count", "lower"),
];

/// How long one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u32 = 10;

/// Timed reps a run takes at least, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// Iterations of each isolated layer driver (the median is reported).
const DRIVER_ITERS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: &'static WorkloadDef,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub out_dir: std::path::PathBuf,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every rep produced the lock-step world and the reference arms
    /// are ordered as the paper says.
    pub correct: bool,
    /// Agent-steps attempted.
    pub attempted: u64,
    /// Agent-steps of reps that failed the correctness gate.
    pub failed: u64,
    /// `(name, value, unit)` rows.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the run is not correct, when it is not.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result object printed as the run's last line.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let row = Value::Obj(vec![
                    ("value".to_string(), Value::Num(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), row)
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
    }
}

/// Tallies reps against the correctness gate.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn admit(&mut self, rep: &Rep, agent_steps: u64) {
        self.attempted += agent_steps;
        if !rep.failures.is_empty() {
            self.failed += agent_steps;
            self.failures.extend(rep.failures.iter().cloned());
        }
    }
}

/// The virtual-time arms behind the `sim_*` rows, each run once.
#[derive(Debug)]
pub struct Reference {
    /// Parallel-sync (lock-step) on the capture.
    pub sync: RunReport,
    /// The mined-oracle arm on the capture.
    pub oracle: RunReport,
    /// The product arm, every commit checked against the capture.
    pub product: Rep,
    /// Live city only: one untimed live rep with every world commit
    /// checked against the capture (its `product` is a replay).
    pub live: Option<Rep>,
}

impl Reference {
    /// Runs the three arms on `inputs`.
    pub fn run(w: &WorkloadDef, inputs: &Inputs) -> Self {
        let sync = workload::run_policy(inputs, DependencyPolicy::GlobalSync);
        let oracle =
            workload::run_policy(inputs, DependencyPolicy::Oracle(Arc::clone(&inputs.oracle)));
        let mut product = w.sim_product(inputs);
        // Out of order is never slower than lock-step. (It *can* beat the
        // mined oracle by a hair when the GPUs are saturated, because the
        // oracle barriers whole interaction components.)
        if self::makespan(&product) > sync.makespan.as_secs_f64() {
            product
                .failures
                .push("out-of-order is slower than parallel-sync".to_string());
        }
        let live = (w.arm == Arm::CityLive).then(|| w.rep(inputs, &Mode::Checked));
        Reference {
            sync,
            oracle,
            product,
            live,
        }
    }

    /// The reps whose every commit was checked, for the gate.
    pub fn checked(&self) -> impl Iterator<Item = &Rep> {
        std::iter::once(&self.product).chain(&self.live)
    }

    /// `sim_completion_s`, `sim_speedup_vs_sync`, `sim_frac_of_oracle`.
    pub fn sim_rows(&self) -> [f64; 3] {
        let p = makespan(&self.product);
        [
            p,
            self.sync.makespan.as_secs_f64() / p,
            self.oracle.makespan.as_secs_f64() / p,
        ]
    }
}

fn makespan(product: &Rep) -> f64 {
    let report = product.report.as_ref().expect("a virtual-time arm");
    report.makespan.as_secs_f64()
}

/// Plain timed reps for `budget`, after one discarded warm-up rep.
fn timed_reps(
    w: &WorkloadDef,
    inputs: &Inputs,
    mode: impl Fn(u32) -> Mode,
    budget: Duration,
    bracket: &mut Bracket,
    gate: &mut Gate,
) -> Vec<(Rep, Sample)> {
    let warm = w.rep(inputs, &mode(0));
    gate.admit(&warm, inputs.agent_steps());
    // The warm-up's calibration bracket is stale by the time it ends.
    *bracket = Bracket::open();
    let deadline = Instant::now() + budget;
    let mut out = Vec::new();
    while out.len() < MIN_REPS || Instant::now() < deadline {
        let rep = w.rep(inputs, &mode(out.len() as u32 + 1));
        let sample = bracket.close(rep.work_s);
        gate.admit(&rep, inputs.agent_steps());
        out.push((rep, sample));
    }
    out
}

fn samples_of(reps: &[(Rep, Sample)]) -> Vec<Sample> {
    reps.iter().map(|(_, s)| *s).collect()
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Returns an error when the host refuses an OS facility the benchmark
/// needs, or the trace file cannot be written.
pub fn run(args: &Args) -> Result<Outcome, String> {
    crate::host::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut bracket = Bracket::open();
    let mut gate = Gate::default();

    // Set-up, repeated: three passes when one takes a second or more,
    // five otherwise; the median is the metric.
    let mut setups = Vec::new();
    let mut inputs = None;
    let mut passes = 5;
    while setups.len() < passes {
        drop(inputs.take()); // free the previous pass before building the next
        let (i, times) = workload::setup(w, args.seed, &mut bracket);
        if setups.is_empty() && times.calibrated_s() >= 1.0 {
            passes = 3;
        }
        setups.push(times.calibrated_s());
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up pass");

    let refs = Reference::run(w, &inputs);
    for rep in refs.checked() {
        gate.admit(rep, inputs.agent_steps());
    }
    let reps = timed_reps(
        w,
        &inputs,
        |_| Mode::Plain,
        Duration::from_secs_f64(args.seconds),
        &mut bracket,
        &mut gate,
    );

    let steps = inputs.agent_steps() as f64;
    let [completion, speedup, frac_of_oracle] = refs.sim_rows();
    let allocs: u64 = reps.iter().map(|(r, _)| r.allocs).sum();
    let rss = peak_rss_mib().map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let values = [
        median(&setups),
        completion,
        speedup,
        frac_of_oracle,
        steps / calibrated_seconds(&samples_of(&reps)),
        allocs as f64 / (reps.len() as f64 * steps),
        rss,
    ];
    Ok(Outcome {
        correct: gate.failures.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        failures: gate.failures,
    })
}

/// Median over reps of one layer's self time in calibrated seconds.
fn layer_s(traced: &[(RepLayers, Sample)], layer: Layer) -> f64 {
    let v: Vec<f64> = traced
        .iter()
        .map(|(l, s)| l.self_s[layer as usize] / s.calib_s() * CALIB_REF_S)
        .collect();
    median(&v)
}

fn layer_calls(traced: &[(RepLayers, Sample)], layer: Layer) -> f64 {
    let v: Vec<f64> = traced
        .iter()
        .map(|(l, _)| l.calls[layer as usize] as f64)
        .collect();
    median(&v)
}

/// Median raw wall time of `DRIVER_ITERS` runs of `f`, seconds.
fn drive(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..DRIVER_ITERS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Drives a scheduler directly — `ready_clusters` → `complete` with the
/// capture's positions — with no event kernel and no server.
fn drain<G: DepTracker<GridSpace>>(graph: G, inputs: &Inputs) {
    let trace = &*inputs.trace;
    let mut sched = Scheduler::from_graph(
        graph,
        DependencyPolicy::Spatiotemporal,
        Step(trace.meta().num_steps),
    );
    let mut pos = Vec::new();
    while !sched.is_done() {
        for c in sched.ready_clusters() {
            pos.clear();
            pos.extend(
                c.members
                    .iter()
                    .map(|m| (*m, trace.position_after(m.0, c.step.0))),
            );
            sched
                .complete(&c.id, &pos)
                .expect("commit to a private store");
        }
    }
}

fn drain_spec(inputs: &Inputs) {
    let trace = &*inputs.trace;
    let mut sched = workload::spec_scheduler(trace);
    while !sched.is_done() {
        for c in sched.ready_clusters().expect("private store") {
            let pos: Vec<(AgentId, Point)> = c
                .members
                .iter()
                .map(|a| (*a, trace.position_after(a.0, c.step.0)))
                .collect();
            sched.complete(&c.id, &pos).expect("private store");
        }
    }
}

/// `sched.drain_us_per_agent_step` on the workload's own tracker.
fn drain_us_per_agent_step(w: &WorkloadDef, inputs: &Inputs) -> f64 {
    let trace = &*inputs.trace;
    let secs = match w.arm {
        Arm::DepGraph => drive(|| drain(workload::depgraph(trace), inputs)),
        Arm::Spec => drive(|| drain_spec(inputs)),
        Arm::Dist => drive(|| drain(workload::dist_tracker(trace), inputs)),
        Arm::CityLive => drive(|| drain(workload::sharded_graph(trace), inputs)),
    };
    secs * 1e6 / inputs.agent_steps() as f64
}

/// The live city's tracker cost, measured where a wrapper can go: the
/// capture drained through a traced `ShardedDepGraph`. (The checkpoint
/// hook needs the concrete tracker type, so the live run cannot carry a
/// tracker wrapper.) Returns what each drain cost per layer, with its
/// calibration bracket, and the tracer holding the per-call durations.
fn city_tracker(inputs: &Inputs) -> (Vec<(RepLayers, Sample)>, Arc<Tracer>) {
    let tracer = Tracer::new(Clock::Wall);
    let mut bracket = Bracket::open();
    let runs = (0..DRIVER_ITERS as u32)
        .map(|i| {
            let ((), layers) = tracer.rep(i, || {
                let graph = workload::sharded_graph(&inputs.trace);
                drain(Probe::tracing(graph, Arc::clone(&tracer)), inputs);
            });
            (layers, bracket.close(layers.wall_s))
        })
        .collect();
    (runs, tracer)
}

/// `server.us_per_call`: a `SimServer` fed the capture's call stream
/// alone, one step's calls at a time.
fn server_us_per_call(inputs: &Inputs) -> f64 {
    let calls = inputs.trace.calls();
    if calls.is_empty() {
        return 0.0;
    }
    let secs = drive(|| {
        let mut server = workload::sim_server();
        let mut now = VirtualTime::ZERO;
        let mut i = 0;
        while i < calls.len() {
            let step = calls[i].step;
            while i < calls.len() && calls[i].step == step {
                let c = calls[i];
                server.submit(
                    now,
                    LlmRequest::new(
                        RequestId(i as u64),
                        c.agent,
                        step as u64,
                        c.input_tokens,
                        c.output_tokens,
                        c.kind,
                    ),
                );
                i += 1;
            }
            black_box(server.drain());
            now = server.now();
        }
    });
    secs * 1e6 / calls.len() as f64
}

/// `dist.codec_ns_per_msg`: AIMMSG encode + decode of the controller
/// and worker messages a commit of the capture's first steps produces.
fn codec_ns_per_msg(inputs: &Inputs) -> f64 {
    let trace = &*inputs.trace;
    let m = trace.meta();
    let space = GridSpace::new(m.map_width, m.map_height);
    let agents = m.num_agents.min(8);
    let mut ctrl = Vec::new();
    let mut shard = Vec::new();
    for step in 0..m.num_steps.min(64) {
        let at = |a: u32| trace.position_after(a, step);
        ctrl.push(CtrlMsg::Commit {
            updates: (0..agents).map(|a| (a, at(a))).collect(),
        });
        ctrl.push(CtrlMsg::RelinkQuery {
            probes: (0..agents)
                .map(|a| RelinkProbe {
                    agent: a,
                    step: step + 1,
                    pos: at(a),
                })
                .collect(),
        });
        shard.push(ShardMsg::Done);
        shard.push(ShardMsg::Edges {
            edges: (1..agents)
                .map(|a| WireEdge {
                    coupled: a % 2 == 0,
                    a: a - 1,
                    b: a,
                })
                .collect(),
        });
    }
    let msgs = (ctrl.len() + shard.len()) as f64;
    let secs = drive(|| {
        for _ in 0..64 {
            let mut buf = BytesMut::new();
            for msg in &ctrl {
                codec::encode_ctrl(&space, msg, &mut buf);
            }
            let mut frames = buf.freeze();
            for _ in &ctrl {
                black_box(codec::decode_ctrl(&space, &mut frames).expect("own frame"));
            }
            let mut buf = BytesMut::new();
            for msg in &shard {
                codec::encode_shard(&space, msg, &mut buf);
            }
            let mut frames = buf.freeze();
            for _ in &shard {
                black_box(codec::decode_shard(&space, &mut frames).expect("own frame"));
            }
        }
    });
    secs * 1e9 / (64.0 * msgs)
}

/// `world.pathfind_us_per_query`: 64 fixed-seed `path_len` queries
/// between walkable tiles of the workload's map.
fn pathfind_us_per_query(inputs: &Inputs) -> f64 {
    let map = &inputs.map;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut tile = || loop {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let p = Point::new(
            (x % map.width() as u64) as i32,
            ((x >> 32) % map.height() as u64) as i32,
        );
        if map.is_walkable(p) {
            return p;
        }
    };
    let pairs: Vec<(Point, Point)> = (0..64).map(|_| (tile(), tile())).collect();
    let secs = drive(|| {
        for &(from, to) in &pairs {
            black_box(path_len(map, from, to));
        }
    });
    secs * 1e6 / pairs.len() as f64
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut bracket = Bracket::open();
    let mut gate = Gate::default();
    let (inputs, setup) = workload::setup(w, args.seed, &mut bracket);
    let refs = Reference::run(w, &inputs);
    for rep in refs.checked() {
        gate.admit(rep, inputs.agent_steps());
    }
    let steps = inputs.agent_steps() as f64;

    // Untraced reps first: the baseline of the tracing overhead and of
    // every layer that is driven alone.
    let plain = timed_reps(
        w,
        &inputs,
        |_| Mode::Plain,
        Duration::from_secs_f64(args.seconds * 0.3),
        &mut bracket,
        &mut gate,
    );
    let plain_samples = samples_of(&plain);
    let plain_s = calibrated_seconds(&plain_samples);

    // Traced reps. Threads of the live city share the one pinned CPU,
    // so its spans are taken on the thread CPU clock.
    let clock = if w.arm == Arm::CityLive {
        Clock::ThreadCpu
    } else {
        Clock::Wall
    };
    let tracer = Tracer::new(clock);
    let traced_reps = timed_reps(
        w,
        &inputs,
        |i| Mode::Traced(Arc::clone(&tracer), i),
        Duration::from_secs_f64(args.seconds * 0.4),
        &mut bracket,
        &mut gate,
    );
    let traced_s = calibrated_seconds(&samples_of(&traced_reps));
    // What each traced rep cost per layer, beside its calibration.
    let traced: Vec<(RepLayers, Sample)> = tracer
        .take_reps()
        .into_iter()
        .skip(1) // the warm-up rep
        .zip(samples_of(&traced_reps))
        .collect();

    let mut row = [0.0f64; PER_LAYER.len()];
    let mut set = |name: &str, v: f64| {
        let i = PER_LAYER
            .iter()
            .position(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        row[i] = v;
    };

    // Set-up stages.
    set("world.gen_s", setup.gen.calibrated_s());
    set("world.capture_s", setup.capture.calibrated_s());
    set("trace.mine_s", setup.mine.calibrated_s());
    set("trace.critical_s", setup.critical.calibrated_s());
    set(
        "world.pathfind_us_per_query",
        pathfind_us_per_query(&inputs),
    );

    // A layer's share: its self time over the wall time of the traced
    // rep it ran in, so the shares and the residual partition one and
    // the same interval whatever the neighbours did meanwhile.
    let share = |layer: Layer| {
        let v: Vec<f64> = traced
            .iter()
            .map(|(l, _)| l.self_s[layer as usize] / l.wall_s)
            .collect();
        median(&v)
    };
    let last = &plain.last().expect("MIN_REPS reps").0;
    if w.arm == Arm::CityLive {
        let (drains, tracker_spans) = city_tracker(&inputs);
        let advance = layer_s(&drains, Layer::TrackerAdvance) / plain_s;
        let query = layer_s(&drains, Layer::TrackerQuery) / plain_s;
        let checkpoint = share(Layer::StoreEvict) + share(Layer::SnapshotEncode);
        let (agent, commit, fleet) = (
            share(Layer::AgentStep),
            share(Layer::WorldCommit),
            share(Layer::FleetCall),
        );
        set("world.agent_step_share", agent);
        set("world.commit_share", commit);
        set("fleet.call_share", fleet);
        set("tracker.advance_share", advance);
        set("tracker.query_share", query);
        set("store.checkpoint_share", checkpoint);
        set(
            "exec.threaded_residual_share",
            1.0 - agent - commit - fleet - advance - query - checkpoint,
        );
        set(
            "tracker.advance_calls",
            layer_calls(&drains, Layer::TrackerAdvance),
        );
        set(
            "tracker.query_calls",
            layer_calls(&drains, Layer::TrackerQuery),
        );
        set(
            "tracker.advance_us_p50",
            tracker_spans.quantile_us(Layer::TrackerAdvance, 0.5),
        );
        set(
            "tracker.advance_us_p99",
            tracker_spans.quantile_us(Layer::TrackerAdvance, 0.99),
        );
        set(
            "world.agent_step_us_p50",
            tracer.quantile_us(Layer::AgentStep, 0.5),
        );
        set(
            "world.agent_step_us_p99",
            tracer.quantile_us(Layer::AgentStep, 0.99),
        );
        set(
            "fleet.call_us_p50",
            tracer.quantile_us(Layer::FleetCall, 0.5),
        );
        set(
            "fleet.call_us_p99",
            tracer.quantile_us(Layer::FleetCall, 0.99),
        );
        set("store.evict_ms", layer_s(&traced, Layer::StoreEvict) * 1e3);
        set(
            "store.snapshot_encode_ms",
            layer_s(&traced, Layer::SnapshotEncode) * 1e3,
        );
        let snapshot = last.last_snapshot.clone().expect("checked by the gate");
        set(
            "store.snapshot_decode_ms",
            drive(|| {
                black_box(Snapshot::from_bytes(snapshot.clone()).expect("own snapshot"));
            }) * 1e3,
        );
        set("store.snapshot_bytes", snapshot.len() as f64);
        set("store.resident_records", last.stats.resident_records as f64);
        let fleet = last
            .stats
            .fleet
            .as_ref()
            .expect("city reps report the fleet");
        let attempts: u64 = fleet.replicas.iter().map(|r| r.attempts).sum();
        set("fleet.prefix_hit_rate", fleet.hit_rate());
        set("fleet.failed", fleet.total_failed() as f64);
        set("fleet.retries", (attempts - fleet.total_served()) as f64);
        // The same rep with an enabled telemetry sink.
        bracket = Bracket::open();
        let observed: Vec<Sample> = (0..DRIVER_ITERS)
            .map(|_| {
                let rep = w.rep(&inputs, &Mode::Observed);
                gate.admit(&rep, inputs.agent_steps());
                bracket.close(rep.work_s)
            })
            .collect();
        set(
            "telemetry.overhead_frac",
            calibrated_seconds(&observed) / plain_s - 1.0,
        );
    } else {
        let (advance, query, lookup) = (
            share(Layer::TrackerAdvance),
            share(Layer::TrackerQuery),
            share(Layer::TraceLookup),
        );
        set("tracker.advance_share", advance);
        set("tracker.query_share", query);
        set("trace.lookup_share", lookup);
        set("exec.sim_residual_share", 1.0 - advance - query - lookup);
        set(
            "tracker.advance_calls",
            layer_calls(&traced, Layer::TrackerAdvance),
        );
        set(
            "tracker.query_calls",
            layer_calls(&traced, Layer::TrackerQuery),
        );
        set(
            "tracker.advance_us_p50",
            tracer.quantile_us(Layer::TrackerAdvance, 0.5),
        );
        set(
            "tracker.advance_us_p99",
            tracer.quantile_us(Layer::TrackerAdvance, 0.99),
        );
    }

    // Public stats of the product arm.
    let s = &last.stats;
    set(
        "sched.clusters_per_agent_step",
        s.sched.clusters_emitted as f64 / steps,
    );
    set(
        "sched.blocked_evals_per_agent_step",
        s.sched.blocked_evals as f64 / steps,
    );
    set(
        "sched.watcher_wakes_per_agent_step",
        s.sched.watcher_wakes as f64 / steps,
    );
    set("sched.max_step_skew", s.sched.max_step_skew as f64);
    set("sched.max_cluster_size", s.sched.max_cluster_size as f64);
    set(
        "store.txn_commits_per_agent_step",
        s.db.txn_commits as f64 / steps,
    );
    set("store.writes_per_agent_step", s.db.writes as f64 / steps);
    set("store.gets_per_agent_step", s.db.gets as f64 / steps);
    set("store.txn_conflicts", s.db.txn_conflicts as f64);
    set("dist.commits", s.dist_commits as f64);
    set("spec.squashed_steps", s.spec_squashed as f64);
    set("spec.waste_token_frac", s.spec_waste_frac);

    // One layer driven alone on the workload's own inputs.
    set(
        "sched.drain_us_per_agent_step",
        drain_us_per_agent_step(w, &inputs),
    );
    set("server.us_per_call", server_us_per_call(&inputs));
    let mut nodep = None;
    let nodep_s = drive(|| {
        nodep = Some(workload::run_policy(
            &inputs,
            DependencyPolicy::NoDependency,
        ));
    });
    set("exec.nodep_us_per_agent_step", nodep_s * 1e6 / steps);
    if w.arm == Arm::Dist {
        set("dist.codec_ns_per_msg", codec_ns_per_msg(&inputs));
    }
    if w.arm == Arm::Spec {
        // The conservative engine on the same trace.
        bracket = Bracket::open();
        let metropolis: Vec<Sample> = (0..DRIVER_ITERS)
            .map(|_| {
                let rep = workload::rep_depgraph(&inputs, &Mode::Plain);
                gate.admit(&rep, inputs.agent_steps());
                bracket.close(rep.work_s)
            })
            .collect();
        set(
            "spec.host_x_metropolis",
            plain_s / calibrated_seconds(&metropolis),
        );
    }

    // The virtual-time arms behind the ratios.
    let product = refs.product.report.as_ref().expect("virtual-time arm");
    let nodep = nodep.expect("driven above");
    set("server.gpu_util", product.gpu_utilization);
    set("server.parallelism", product.achieved_parallelism);
    set("server.calls", product.total_calls as f64);
    set("sim.sync_completion_s", refs.sync.makespan.as_secs_f64());
    set(
        "sim.oracle_completion_s",
        refs.oracle.makespan.as_secs_f64(),
    );
    set("sim.nodep_completion_s", nodep.makespan.as_secs_f64());
    set(
        "sim.x_critical",
        product.makespan.as_secs_f64() / inputs.critical.time.as_secs_f64(),
    );

    // The measurement itself.
    let raw: Vec<f64> = plain_samples.iter().map(|s| s.work_s).collect();
    let ratios: Vec<f64> = plain_samples.iter().map(Sample::ratio).collect();
    let calib: Vec<f64> = plain_samples.iter().map(|s| s.calib_s() * 1e3).collect();
    let [p25, p50, p75] = quartiles(&raw);
    set("bench.pairs", plain_samples.len() as f64);
    set("bench.calib_ms_p50", median(&calib));
    set("bench.ratio_iqr_frac", iqr_frac(&ratios));
    set(
        "bench.rep_raw_s_min",
        raw.iter().copied().fold(f64::INFINITY, f64::min),
    );
    set("bench.rep_raw_s_p25", p25);
    set("bench.rep_raw_s_p50", p50);
    set("bench.rep_raw_s_p75", p75);
    set("bench.trace_overhead_frac", traced_s / plain_s - 1.0);
    set("bench.spans_dropped", tracer.dropped() as f64);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("{}.trace.json", w.name));
    let write = || -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_chrome_trace(&mut out)?;
        out.flush()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({} spans)", path.display(), tracer.kept());

    Ok(Outcome {
        correct: gate.failures.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: PER_LAYER
            .iter()
            .zip(row)
            .map(|(m, v)| (m.0, v, m.1))
            .collect(),
        failures: gate.failures,
    })
}
