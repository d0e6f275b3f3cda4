//! Per-layer tracing, done from the benchmark's side of each boundary:
//! delegating wrappers around the dependency tracker, the workload, the
//! world program and the serving backend record a span per call. A
//! layer's self time is its spans minus the spans nested in them.
//!
//! End-to-end rows are always taken with these wrappers absent.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aim_core::exec::threaded::ClusterProgram;
use aim_core::prelude::*;
use aim_core::workload::CallSpec;
use aim_llm::{LlmBackend, LlmRequest, LlmResponse};
use aim_store::StoreError;
use aim_trace::Trace;

use crate::host::thread_cpu_ns;
use crate::stats::Hist;

/// The boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One complete run of the product arm (the root span).
    Rep,
    /// `DepTracker::advance`.
    TrackerAdvance,
    /// `DepTracker::first_blocker` / `coupled_of`.
    TrackerQuery,
    /// `Workload::calls` / `pos_after`.
    TraceLookup,
    /// `ClusterProgram::agent_step`.
    AgentStep,
    /// `ClusterProgram::commit`.
    WorldCommit,
    /// `LlmBackend::call`.
    FleetCall,
    /// `evict_history` inside the checkpoint hook.
    StoreEvict,
    /// Snapshot encoding inside the checkpoint hook.
    SnapshotEncode,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 9;

impl Layer {
    /// Span name in `trace.json`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "rep",
            Layer::TrackerAdvance => "tracker.advance",
            Layer::TrackerQuery => "tracker.query",
            Layer::TraceLookup => "trace.lookup",
            Layer::AgentStep => "world.agent_step",
            Layer::WorldCommit => "world.commit",
            Layer::FleetCall => "fleet.call",
            Layer::StoreEvict => "store.evict",
            Layer::SnapshotEncode => "store.snapshot_encode",
        }
    }
}

/// Which clock span durations are taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time: right for a single-threaded run.
    Wall,
    /// The calling thread's CPU time: right when several threads share
    /// the one pinned CPU, where wall-clock spans overlap.
    ThreadCpu,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Identifier, unique in the run.
    pub id: u32,
    /// The span this one ran inside (the rep's root span for work on a
    /// spawned thread); `None` for a root.
    pub parent: Option<u32>,
    /// The rep it belongs to.
    pub rep: u32,
    /// The boundary it was recorded at.
    pub layer: Layer,
    /// Wall-clock start since the tracer's epoch, ns.
    pub start_ns: u64,
    /// Duration on the tracer's [`Clock`], ns.
    pub dur_ns: u64,
    /// OS-independent small integer naming the recording thread.
    pub thread: u32,
}

/// Spans kept for `trace.json`; later ones are counted, not kept.
const MAX_SPANS: usize = 100_000;

/// One call in this many is timed on the hot layers (edge queries and
/// trace look-ups: tens of nanoseconds each, millions per rep — timing
/// every one costs more than the calls do).
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Default)]
struct LayerAgg {
    /// Full call durations, all traced reps.
    calls: Hist,
    /// Self time (duration minus nested spans) in the current rep, ns.
    rep_self_ns: u64,
    /// Calls in the current rep.
    rep_calls: u64,
}

#[derive(Debug, Default)]
struct Inner {
    layers: [LayerAgg; LAYERS],
    spans: Vec<Span>,
    dropped: u64,
    /// The rep in progress and its root span.
    rep: u32,
    root: Option<u32>,
    /// What each finished rep cost, in order.
    reps: Vec<RepLayers>,
}

struct Frame {
    id: u32,
    child_ns: u64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Self time and call count of every layer over one rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepLayers {
    /// Wall time of the whole rep, seconds.
    pub wall_s: f64,
    /// Self time per layer (indexed by `Layer as usize`) on the
    /// tracer's clock, seconds.
    pub self_s: [f64; LAYERS],
    /// Calls per layer.
    pub calls: [u64; LAYERS],
}

/// Collects spans from every wrapper of a run.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    epoch: Instant,
    next_id: AtomicU32,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer whose span durations are taken on `clock`.
    pub fn new(clock: Clock) -> Arc<Self> {
        Arc::new(Tracer {
            clock,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            inner: Mutex::default(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update leaves `Inner` valid, so a panic elsewhere while
        // the lock was held loses at most one span.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `(wall time since the epoch, time on the tracer's clock)`, ns.
    fn now(&self) -> (u64, u64) {
        let wall = self.epoch.elapsed().as_nanos() as u64;
        match self.clock {
            Clock::Wall => (wall, wall),
            Clock::ThreadCpu => (wall, thread_cpu_ns()),
        }
    }

    /// Runs `f` as one span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.weighted_span(layer, 1, f)
    }

    /// Runs `f` as call number `nth` of a layer too hot to time every
    /// call of: one call in [`SAMPLE_EVERY`] is timed and stands for all
    /// of them; the others run bare.
    ///
    /// Only for layers whose calls nest in no span but the rep's root:
    /// an untimed call is not subtracted from the span around it.
    pub fn sampled_span<T>(&self, layer: Layer, nth: u64, f: impl FnOnce() -> T) -> T {
        if nth.is_multiple_of(SAMPLE_EVERY) {
            self.weighted_span(layer, SAMPLE_EVERY, f)
        } else {
            f()
        }
    }

    fn weighted_span<T>(&self, layer: Layer, weight: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with_borrow_mut(|s| {
            let parent = s.last().map(|f| f.id);
            s.push(Frame { id, child_ns: 0 });
            parent
        });
        let (start_ns, t0) = self.now();
        let out = f();
        let dur_ns = self.now().1.saturating_sub(t0);
        let child_ns = STACK.with_borrow_mut(|s| {
            let frame = s.pop().expect("pushed above");
            if let Some(outer) = s.last_mut() {
                outer.child_ns += dur_ns;
            }
            frame.child_ns
        });
        let mut inner = self.lock();
        let (rep, root) = (inner.rep, inner.root);
        let agg = &mut inner.layers[layer as usize];
        agg.calls.record(dur_ns);
        agg.rep_self_ns += dur_ns.saturating_sub(child_ns) * weight;
        agg.rep_calls += weight;
        if inner.spans.len() < MAX_SPANS {
            inner.spans.push(Span {
                id,
                parent: parent.or(root.filter(|_| layer != Layer::Rep)),
                rep,
                layer,
                start_ns,
                dur_ns,
                thread: THREAD.with(|t| *t),
            });
        } else {
            inner.dropped += 1;
        }
        out
    }

    /// Runs `f` as rep `rep`'s root span and returns what each layer
    /// cost inside it.
    pub fn rep<T>(&self, rep: u32, f: impl FnOnce() -> T) -> (T, RepLayers) {
        {
            let mut inner = self.lock();
            inner.rep = rep;
            // The root span's id is the next one `span` hands out: reps
            // start on the controller thread with no span open.
            inner.root = Some(self.next_id.load(Ordering::Relaxed));
        }
        let t0 = Instant::now();
        let out = self.span(Layer::Rep, f);
        let mut layers = RepLayers {
            wall_s: t0.elapsed().as_secs_f64(),
            ..RepLayers::default()
        };
        let mut inner = self.lock();
        for (i, agg) in inner.layers.iter_mut().enumerate() {
            layers.self_s[i] = std::mem::take(&mut agg.rep_self_ns) as f64 / 1e9;
            layers.calls[i] = std::mem::take(&mut agg.rep_calls);
        }
        inner.reps.push(layers);
        (out, layers)
    }

    /// What each rep run so far cost, in order; empties the list.
    pub fn take_reps(&self) -> Vec<RepLayers> {
        std::mem::take(&mut self.lock().reps)
    }

    /// The `q`-quantile of `layer`'s call durations over every traced
    /// rep, in microseconds.
    pub fn quantile_us(&self, layer: Layer, q: f64) -> f64 {
        self.lock().layers[layer as usize].calls.quantile_us(q)
    }

    /// Spans that did not fit in the kept set.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of spans kept.
    pub fn kept(&self) -> usize {
        self.lock().spans.len()
    }

    /// Writes the kept spans as a Chrome trace-event file (loadable in
    /// Perfetto / `chrome://tracing`): one complete event per span, with
    /// its id, parent and rep id as arguments.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        let inner = self.lock();
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            write!(
                w,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"rep\":{}}}}}",
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.thread,
                s.id,
                s.parent.map_or(-1, i64::from),
                s.rep,
            )?;
        }
        w.write_all(b"\n]}\n")
    }
}

fn traced<T>(tracer: &Option<Arc<Tracer>>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// A delegating [`DepTracker`]: records a span per `advance` and per
/// edge query, and — given the lock-step capture — checks every
/// committed `(agent, step, position)` against it, which is the per-step
/// history half of the correctness gate.
#[derive(Debug)]
pub struct Probe<G> {
    inner: G,
    tracer: Option<Arc<Tracer>>,
    lockstep: Option<Arc<Trace>>,
    diverged: u64,
    queries: std::cell::Cell<u64>,
}

impl<G: DepTracker<GridSpace>> Probe<G> {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn tracing(inner: G, tracer: Arc<Tracer>) -> Self {
        Probe {
            inner,
            tracer: Some(tracer),
            lockstep: None,
            diverged: 0,
            queries: std::cell::Cell::new(0),
        }
    }

    /// Wraps `inner`, checking each commit against `lockstep`.
    pub fn checking(inner: G, lockstep: Arc<Trace>) -> Self {
        Probe {
            inner,
            tracer: None,
            lockstep: Some(lockstep),
            diverged: 0,
            queries: std::cell::Cell::new(0),
        }
    }

    /// The wrapped tracker.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Committed agent-steps whose position differed from the lock-step
    /// capture's.
    pub fn diverged(&self) -> u64 {
        self.diverged
    }

    fn query<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => {
                let nth = self.queries.replace(self.queries.get() + 1);
                t.sampled_span(Layer::TrackerQuery, nth, f)
            }
            None => f(),
        }
    }
}

impl<G: DepTracker<GridSpace>> DepTracker<GridSpace> for Probe<G> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn step(&self, a: AgentId) -> Step {
        self.inner.step(a)
    }

    fn pos(&self, a: AgentId) -> Point {
        self.inner.pos(a)
    }

    fn min_step(&self) -> Step {
        self.inner.min_step()
    }

    fn max_step(&self) -> Step {
        self.inner.max_step()
    }

    fn advance(&mut self, updates: &[(AgentId, Point)]) -> Result<(), StoreError> {
        if let Some(lockstep) = &self.lockstep {
            for &(a, pos) in updates {
                let step = self.inner.step(a).0;
                if step >= lockstep.meta().num_steps || lockstep.position_after(a.0, step) != pos {
                    self.diverged += 1;
                }
            }
        }
        let inner = &mut self.inner;
        traced(&self.tracer, Layer::TrackerAdvance, || {
            inner.advance(updates)
        })
    }

    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.query(|| self.inner.first_blocker(a))
    }

    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.query(|| self.inner.coupled_of(a))
    }

    fn evict_history(&mut self) -> Result<u64, StoreError> {
        let inner = &mut self.inner;
        traced(&self.tracer, Layer::StoreEvict, || inner.evict_history())
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.inner.set_telemetry(telemetry);
    }

    fn harvest_telemetry(&mut self) {
        self.inner.harvest_telemetry();
    }
}

/// A delegating [`Workload`] over the recorded trace: one span per
/// `calls` / `pos_after` look-up.
#[derive(Debug)]
pub struct TracedWorkload<'a> {
    trace: &'a Trace,
    tracer: &'a Tracer,
    lookups: std::sync::atomic::AtomicU64,
}

impl<'a> TracedWorkload<'a> {
    /// Wraps `trace`, recording spans into `tracer`.
    pub fn new(trace: &'a Trace, tracer: &'a Tracer) -> Self {
        TracedWorkload {
            trace,
            tracer,
            lookups: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn lookup<T>(&self, f: impl FnOnce() -> T) -> T {
        // A statistic: it publishes no other data.
        let nth = self.lookups.fetch_add(1, Ordering::Relaxed);
        self.tracer.sampled_span(Layer::TraceLookup, nth, f)
    }
}

impl Workload<Point> for TracedWorkload<'_> {
    fn num_agents(&self) -> usize {
        self.trace.num_agents()
    }

    fn target_step(&self) -> Step {
        self.trace.target_step()
    }

    fn initial_pos(&self, agent: AgentId) -> Point {
        self.trace.initial_pos(agent)
    }

    fn calls(&self, agent: AgentId, step: Step) -> Vec<CallSpec> {
        self.lookup(|| Workload::calls(self.trace, agent, step))
    }

    fn pos_after(&self, agent: AgentId, step: Step) -> Point {
        self.lookup(|| self.trace.pos_after(agent, step))
    }

    fn total_calls(&self) -> u64 {
        self.trace.total_calls()
    }
}

/// A delegating [`ClusterProgram`]: one span per `agent_step` and per
/// `commit`, and — given the lock-step capture — a check of every
/// committed position against it.
pub struct ProbeProgram<P> {
    inner: Arc<P>,
    tracer: Option<Arc<Tracer>>,
    lockstep: Option<Arc<Trace>>,
    diverged: std::sync::atomic::AtomicU64,
}

impl<P> ProbeProgram<P> {
    /// Wraps `inner`; spans go to `tracer`, commits are checked against
    /// `lockstep`, each when given.
    pub fn new(inner: Arc<P>, tracer: Option<Arc<Tracer>>, lockstep: Option<Arc<Trace>>) -> Self {
        ProbeProgram {
            inner,
            tracer,
            lockstep,
            diverged: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Committed agent-steps whose position differed from the lock-step
    /// capture's.
    pub fn diverged(&self) -> u64 {
        self.diverged.load(Ordering::Relaxed)
    }
}

impl<P: ClusterProgram<GridSpace>> ClusterProgram<GridSpace> for ProbeProgram<P> {
    type Action = P::Action;

    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> P::Action {
        traced(&self.tracer, Layer::AgentStep, || {
            self.inner.agent_step(agent, step, llm)
        })
    }

    fn commit(
        &self,
        cluster: &Cluster,
        actions: Vec<(AgentId, P::Action)>,
    ) -> Vec<(AgentId, Point)> {
        let out = traced(&self.tracer, Layer::WorldCommit, || {
            self.inner.commit(cluster, actions)
        });
        if let Some(lockstep) = &self.lockstep {
            let step = cluster.step.0;
            let bad = out
                .iter()
                .filter(|&&(a, pos)| {
                    step >= lockstep.meta().num_steps || lockstep.position_after(a.0, step) != pos
                })
                .count();
            self.diverged.fetch_add(bad as u64, Ordering::Relaxed);
        }
        out
    }
}

/// A delegating [`LlmBackend`]: one span per `call`.
pub struct TracedBackend {
    inner: Arc<dyn LlmBackend>,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn new(inner: Arc<dyn LlmBackend>, tracer: Arc<Tracer>) -> Self {
        TracedBackend { inner, tracer }
    }
}

impl LlmBackend for TracedBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        self.tracer.span(Layer::FleetCall, || self.inner.call(req))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn fleet_metrics(&self) -> Option<aim_llm::FleetMetrics> {
        self.inner.fleet_metrics()
    }

    fn install_observer(&self, observer: Arc<dyn aim_llm::CallObserver>) -> bool {
        self.inner.install_observer(observer)
    }

    fn time_scale(&self) -> Option<f64> {
        self.inner.time_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_nested_spans_and_sums_to_the_rep() {
        let tracer = Tracer::new(Clock::Wall);
        let ((), layers) = tracer.rep(3, || {
            spin(2_000);
            tracer.span(Layer::AgentStep, || {
                spin(3_000);
                tracer.span(Layer::FleetCall, || spin(4_000));
            });
        });
        let s = |l: Layer| layers.self_s[l as usize];
        assert_eq!(layers.calls[Layer::AgentStep as usize], 1);
        assert_eq!(layers.calls[Layer::FleetCall as usize], 1);
        assert!(s(Layer::FleetCall) >= 0.004 && s(Layer::FleetCall) < 0.006);
        assert!(s(Layer::AgentStep) >= 0.003 && s(Layer::AgentStep) < 0.004 + 0.001);
        assert!(s(Layer::Rep) >= 0.002 && s(Layer::Rep) < 0.003 + 0.001);
        // Self times partition the rep: nothing is counted twice.
        let total: f64 = layers.self_s.iter().sum();
        assert!(
            (total - layers.wall_s).abs() < 0.0005,
            "{total} vs {}",
            layers.wall_s
        );
        // The next rep starts from zero.
        let ((), next) = tracer.rep(4, || ());
        assert_eq!(next.calls[Layer::AgentStep as usize], 0);
        assert_eq!(tracer.take_reps().len(), 2);
    }

    #[test]
    fn spans_carry_parent_and_rep_and_load_as_a_chrome_trace() {
        let tracer = Tracer::new(Clock::Wall);
        tracer.rep(7, || {
            tracer.span(Layer::TrackerAdvance, || ());
            // Work on a spawned thread hangs off the rep's root span.
            std::thread::scope(|s| {
                s.spawn(|| tracer.span(Layer::AgentStep, || ()));
            });
        });
        let spans = tracer.lock().spans.clone();
        let root = spans.iter().find(|s| s.layer == Layer::Rep).expect("root");
        assert_eq!(root.parent, None);
        for s in spans.iter().filter(|s| s.layer != Layer::Rep) {
            assert_eq!(s.parent, Some(root.id), "{:?}", s.layer);
            assert_eq!(s.rep, 7);
        }
        let mut out = Vec::new();
        tracer
            .write_chrome_trace(&mut out)
            .expect("in-memory write");
        let text = String::from_utf8(out).expect("ASCII");
        let events = aim_trace::telemetry::validate_chrome_trace(&text).expect("loadable trace");
        assert_eq!(events, 3);
    }

    #[test]
    fn a_checking_probe_counts_commits_off_the_lockstep_history() {
        use aim_core::depgraph::DepGraph;
        use aim_store::Db;
        use aim_trace::{TraceBuilder, TraceMeta};
        let meta = TraceMeta {
            name: "two-steps".to_string(),
            num_agents: 1,
            start_step: 0,
            num_steps: 2,
            map_width: 20,
            map_height: 20,
            radius_p: 4,
            max_vel: 1,
            seed: 0,
        };
        let mut b = TraceBuilder::new(meta, &[Point::new(1, 1)]);
        b.push_positions(&[Point::new(2, 1)]);
        b.push_positions(&[Point::new(3, 1)]);
        let lockstep = Arc::new(b.finish());
        let graph = DepGraph::new(
            Arc::new(GridSpace::new(20, 20)),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &[Point::new(1, 1)],
        )
        .expect("fresh store");
        let mut probe = Probe::checking(graph, lockstep);
        probe
            .advance(&[(AgentId(0), Point::new(2, 1))])
            .expect("commit");
        assert_eq!(probe.diverged(), 0);
        probe
            .advance(&[(AgentId(0), Point::new(2, 2))])
            .expect("commit");
        assert_eq!(
            probe.diverged(),
            1,
            "step 1 went somewhere lock-step did not"
        );
        probe
            .advance(&[(AgentId(0), Point::new(2, 3))])
            .expect("commit");
        assert_eq!(
            probe.diverged(),
            2,
            "a commit past the horizon is off the history"
        );
    }
}
