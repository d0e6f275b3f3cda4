//! [`RunStatus`]: live gauges for one observed run.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use aim_core::health::{HealthBoard, StallReport, Watchdog};
use aim_core::telemetry::{Counter, Telemetry};
use aim_llm::LlmBackend;
use aim_trace::telemetry::{json_escape, prometheus_sample, prometheus_text};

/// What the embedded HTTP server serves for one observed run: wraps the
/// run's telemetry sink plus whichever optional health-plane pieces the
/// run wired up. Everything is optional except the label — a threaded
/// run has no [`HealthBoard`], a replay has no fleet, a bare smoke run
/// may have no watchdog.
///
/// Every render happens on a scrape, from the server's accept loop; the
/// server's background ticker also checks the watchdog a few times per
/// second, scraped or not.
pub struct RunStatus {
    label: String,
    agents: u32,
    telemetry: Option<Arc<Telemetry>>,
    board: Option<Arc<HealthBoard>>,
    watchdog: Option<Arc<Watchdog>>,
    backend: Option<Arc<dyn LlmBackend>>,
    /// The one-shot stall report, cached once the watchdog fires so
    /// `/status` keeps showing it and `/healthz` flips to 503.
    stall: Mutex<Option<StallReport>>,
}

impl std::fmt::Debug for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStatus")
            .field("label", &self.label)
            .field("agents", &self.agents)
            .field("healthy", &self.healthy())
            .finish()
    }
}

impl RunStatus {
    /// A status source for the run labelled `label` over `agents` agents.
    pub fn new(label: impl Into<String>, agents: u32) -> RunStatus {
        RunStatus {
            label: label.into(),
            agents,
            telemetry: None,
            board: None,
            watchdog: None,
            backend: None,
            stall: Mutex::new(None),
        }
    }

    /// Attaches the run's telemetry sink (span/counter gauges, commit
    /// watermark, stall decomposition so far).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> RunStatus {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches the per-worker health board (distributed runs).
    #[must_use]
    pub fn with_board(mut self, board: Arc<HealthBoard>) -> RunStatus {
        self.board = Some(board);
        self
    }

    /// Attaches the stall watchdog, checked on every tick of the
    /// server's background ticker against the telemetry commit
    /// watermark.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Arc<Watchdog>) -> RunStatus {
        self.watchdog = Some(watchdog);
        self
    }

    /// Attaches the LLM backend so `/status` can report fleet gauges
    /// (hit rates, per-replica health) when the backend is a fleet.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn LlmBackend>) -> RunStatus {
        self.backend = Some(backend);
        self
    }

    /// Runs the watchdog check once; the first firing logs the report
    /// (to stderr, once) and caches it for `/status` and `/healthz`.
    /// Never panics (the watchdog guarantees this) and never fires
    /// twice.
    pub(crate) fn tick(&self) {
        let (Some(t), Some(dog)) = (self.telemetry.as_deref(), self.watchdog.as_deref()) else {
            return;
        };
        if let Some(report) = dog.check(t) {
            eprintln!("[aim-serve] stall watchdog fired: {report}");
            *self.stall.lock() = Some(report);
        }
    }

    /// The cached stall report, if the watchdog has fired.
    pub fn stall_report(&self) -> Option<StallReport> {
        self.stall.lock().clone()
    }

    /// Whether the run is healthy (`/healthz` → 200) or stalled (503).
    pub fn healthy(&self) -> bool {
        self.stall.lock().is_none()
    }

    /// The Prometheus text exposition for `/metrics`.
    pub fn metrics(&self) -> String {
        let mut out = String::new();
        if let Some(t) = self.telemetry.as_deref() {
            out.push_str(&prometheus_text(&t.snapshot()));
            out.push_str("# TYPE aim_flight_missed_total counter\n");
            let _ = writeln!(out, "aim_flight_missed_total {}", t.flight_missed());
            out.push_str("# TYPE aim_last_commit_age_microseconds gauge\n");
            let age = match t.last_commit() {
                Some((us, _)) => t.now_us().saturating_sub(us),
                None => t.now_us(),
            };
            let _ = writeln!(out, "aim_last_commit_age_microseconds {age}");
        }
        out.push_str("# TYPE aim_stalled gauge\n");
        let _ = writeln!(out, "aim_stalled {}", u64::from(!self.healthy()));
        if let Some(board) = self.board.as_deref() {
            let workers = board.workers();
            if !workers.is_empty() {
                let now = board.now_us();
                out.push_str("# TYPE aim_worker_alive gauge\n");
                out.push_str("# TYPE aim_worker_lag_microseconds gauge\n");
                out.push_str("# TYPE aim_worker_queue_depth gauge\n");
                out.push_str("# TYPE aim_worker_members gauge\n");
                out.push_str("# TYPE aim_worker_spans_dropped_total counter\n");
                for w in &workers {
                    let labels = [("worker", w.name.as_str())];
                    out.push_str(&prometheus_sample(
                        "aim_worker_alive",
                        &labels,
                        u64::from(w.alive),
                    ));
                    out.push_str(&prometheus_sample(
                        "aim_worker_lag_microseconds",
                        &labels,
                        now.saturating_sub(w.last_seen_us),
                    ));
                    out.push_str(&prometheus_sample(
                        "aim_worker_queue_depth",
                        &labels,
                        w.queue_depth,
                    ));
                    out.push_str(&prometheus_sample(
                        "aim_worker_members",
                        &labels,
                        u64::from(w.members),
                    ));
                    out.push_str(&prometheus_sample(
                        "aim_worker_spans_dropped_total",
                        &labels,
                        w.span_overflow,
                    ));
                }
            }
        }
        out
    }

    /// The JSON digest for `/status`.
    pub fn status_json(&self) -> String {
        // Hand-rolled JSON (the workspace has no serde_json); every
        // string is escaped with the exporter's json_escape.
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"label\":\"{}\",\"agents\":{},\"healthy\":{}",
            json_escape(&self.label),
            self.agents,
            self.healthy()
        );
        if let Some(t) = self.telemetry.as_deref() {
            let snap = t.snapshot();
            let _ = write!(
                out,
                ",\"uptime_us\":{},\"spans\":{},\"dropped\":{},\"flight_missed\":{}",
                snap.at_us,
                snap.spans,
                snap.dropped,
                t.flight_missed()
            );
            match t.last_commit() {
                Some((us, step)) => {
                    let _ = write!(out, ",\"last_commit\":{{\"us\":{us},\"step\":{step}}}");
                }
                None => out.push_str(",\"last_commit\":null"),
            }
            out.push_str(",\"counters\":{");
            for (i, c) in Counter::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", c.as_str(), t.counter(*c));
            }
            out.push('}');
            // Stall decomposition so far: derived from a copy of the
            // spans recorded up to this scrape (the buffers keep them
            // for the final rebased report).
            let rt = t.flight_report(self.agents);
            let d = &rt.decomposition;
            let _ = write!(
                out,
                ",\"decomposition\":{{\"llm\":{:.6},\"blocked\":{:.6},\"overhead\":{:.6},\"checkpoint\":{:.6}}}",
                d.llm_frac(),
                d.blocked_frac(),
                d.overhead_frac(),
                d.checkpoint_frac()
            );
        }
        match self.stall.lock().as_ref() {
            Some(report) => {
                let _ = write!(out, ",\"stall\":{{\"stalled_us\":{}", report.stalled_us);
                match report.last_step {
                    Some(step) => {
                        let _ = write!(out, ",\"last_step\":{step}");
                    }
                    None => out.push_str(",\"last_step\":null"),
                }
                out.push_str(",\"edges\":[");
                for (i, e) in report.edges.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"agent\":{},\"blocker\":{},\"reason\":\"{}\",\"count\":{},\"total_us\":{}}}",
                        e.agent,
                        e.blocker,
                        e.reason.as_str(),
                        e.count,
                        e.total_us
                    );
                }
                out.push_str("]}");
            }
            None => out.push_str(",\"stall\":null"),
        }
        match self.backend.as_deref().and_then(|b| b.fleet_metrics()) {
            Some(fleet) => {
                let _ = write!(
                    out,
                    ",\"fleet\":{{\"name\":\"{}\",\"policy\":\"{}\",\"served\":{},\"failed\":{},\"hit_rate\":{:.6},\"max_p99_us\":{},\"replicas\":[",
                    json_escape(&fleet.name),
                    json_escape(&fleet.policy),
                    fleet.total_served(),
                    fleet.total_failed(),
                    fleet.hit_rate(),
                    fleet.max_p99_us()
                );
                for (i, r) in fleet.replicas.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"replica\":{},\"served\":{},\"failed\":{},\"down\":{},\"hit_rate\":{:.6},\"p99_us\":{}}}",
                        r.replica,
                        r.served,
                        r.failed,
                        r.down,
                        r.hit_rate(),
                        r.p99_us
                    );
                }
                out.push_str("]}");
            }
            None => out.push_str(",\"fleet\":null"),
        }
        out.push_str(",\"workers\":[");
        if let Some(board) = self.board.as_deref() {
            let now = board.now_us();
            for (i, w) in board.workers().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"worker\":{},\"name\":\"{}\",\"alive\":{},\"lag_us\":{}",
                    w.worker,
                    json_escape(&w.name),
                    w.alive,
                    now.saturating_sub(w.last_seen_us)
                );
                match w.last_applied_step {
                    Some(step) => {
                        let _ = write!(out, ",\"last_applied_step\":{step}");
                    }
                    None => out.push_str(",\"last_applied_step\":null"),
                }
                let _ = write!(
                    out,
                    ",\"queue_depth\":{},\"members\":{},\"span_overflow\":{}}}",
                    w.queue_depth, w.members, w.span_overflow
                );
            }
        }
        out.push_str("]}");
        out
    }
}
