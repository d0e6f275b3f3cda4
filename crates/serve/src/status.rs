//! [`RunStatus`]: live gauges for one observed run, and the one writer
//! of the Prometheus text exposition `/metrics` serves.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use aim_core::health::{HealthBoard, StallReport, Watchdog};
use aim_core::telemetry::{Counter, MetricsSnapshot, Telemetry};
use aim_llm::LlmBackend;
use aim_trace::telemetry::json_escape;

/// What the embedded HTTP server serves for one observed run: the run's
/// telemetry sink, its per-worker [`HealthBoard`] (empty for a run with
/// no remote workers), its stall [`Watchdog`], and, optionally, the LLM
/// backend (fleet gauges when it is a fleet).
///
/// Every render happens on a scrape, from the server's accept loop; the
/// server's background ticker also checks the watchdog a few times per
/// second, scraped or not.
pub struct RunStatus {
    label: String,
    agents: u32,
    telemetry: Arc<Telemetry>,
    board: Arc<HealthBoard>,
    watchdog: Arc<Watchdog>,
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

/// The per-worker series of `/metrics` and their kinds, in exposition
/// order; `metrics` reads each [`aim_core::health::WorkerHealth`]'s
/// values in the same order.
const WORKER_SERIES: [(&str, &str); 5] = [
    ("aim_worker_alive", "gauge"),
    ("aim_worker_lag_microseconds", "gauge"),
    ("aim_worker_queue_depth", "gauge"),
    ("aim_worker_members", "gauge"),
    ("aim_worker_spans_dropped_total", "counter"),
];

impl RunStatus {
    /// A status source for the run labelled `label` over `agents`
    /// agents: `telemetry` feeds the span/counter gauges, the commit
    /// watermark and the stall decomposition so far; `board` the
    /// per-worker gauges; `watchdog` is checked on every tick of the
    /// server's background ticker against the commit watermark.
    pub fn new(
        label: impl Into<String>,
        agents: u32,
        telemetry: Arc<Telemetry>,
        board: Arc<HealthBoard>,
        watchdog: Arc<Watchdog>,
    ) -> RunStatus {
        RunStatus {
            label: label.into(),
            agents,
            telemetry,
            board,
            watchdog,
            backend: None,
            stall: Mutex::new(None),
        }
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
        if let Some(report) = self.watchdog.check(&self.telemetry) {
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
        let t = &self.telemetry;
        let mut out = prometheus_text(&t.snapshot());
        let missed = t.flight_missed();
        let age = match t.last_commit() {
            Some((us, _)) => t.now_us().saturating_sub(us),
            None => t.now_us(),
        };
        series(&mut out, "aim_flight_missed_total", "counter", missed);
        series(&mut out, "aim_last_commit_age_microseconds", "gauge", age);
        series(&mut out, "aim_stalled", "gauge", u64::from(!self.healthy()));
        let workers = self.board.workers();
        if !workers.is_empty() {
            let now = self.board.now_us();
            for (name, kind) in WORKER_SERIES {
                type_line(&mut out, name, kind);
            }
            for w in &workers {
                let labels = [("worker", w.name.as_str())];
                let values = [
                    u64::from(w.alive),
                    now.saturating_sub(w.last_seen_us),
                    w.queue_depth,
                    u64::from(w.members),
                    w.span_overflow,
                ];
                for ((name, _), value) in WORKER_SERIES.into_iter().zip(values) {
                    out.push_str(&prometheus_sample(name, &labels, value));
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
        let t = &self.telemetry;
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
        match self.stall.lock().as_ref() {
            Some(report) => {
                let _ = write!(out, ",\"stall\":{{\"stalled_us\":{}", report.stalled_us);
                json_step(&mut out, "last_step", report.last_step);
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
        let now = self.board.now_us();
        for (i, w) in self.board.workers().iter().enumerate() {
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
            json_step(&mut out, "last_applied_step", w.last_applied_step);
            let _ = write!(
                out,
                ",\"queue_depth\":{},\"members\":{},\"span_overflow\":{}}}",
                w.queue_depth, w.members, w.span_overflow
            );
        }
        out.push_str("]}");
        out
    }
}

/// Appends `,"key":step`, or `,"key":null` when there is no step.
fn json_step(out: &mut String, key: &str, step: Option<u32>) {
    let _ = match step {
        Some(step) => write!(out, ",\"{key}\":{step}"),
        None => write!(out, ",\"{key}\":null"),
    };
}

/// Appends `# TYPE <name> <kind>` (pieces, not a format string: a
/// scrape writes one per series).
fn type_line(out: &mut String, name: &str, kind: &str) {
    for piece in ["# TYPE ", name, " ", kind, "\n"] {
        out.push_str(piece);
    }
}

/// Appends one unlabeled series, its `# TYPE` line then its sample.
fn series(out: &mut String, name: &str, kind: &str, value: u64) {
    type_line(out, name, kind);
    out.push_str(name);
    let _ = writeln!(out, " {value}");
}

/// Renders a live [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4): one `# TYPE` line per series, counters
/// suffixed `_total`. The snapshot is sampled without quiescing, so the
/// values are monotone but may lag each other by a few microseconds —
/// fine for a scrape, not for invariant checks.
fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    series(&mut out, "aim_uptime_microseconds", "gauge", snap.at_us);
    series(&mut out, "aim_spans_total", "counter", snap.spans);
    series(&mut out, "aim_spans_dropped_total", "counter", snap.dropped);
    series(
        &mut out,
        "aim_span_buffers",
        "gauge",
        u64::from(snap.buffers),
    );
    for &(c, n) in &snap.counters {
        series(&mut out, &format!("aim_{}_total", c.as_str()), "counter", n);
    }
    out
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed must be escaped (`\\`, `\"`,
/// `\n`); everything else passes through verbatim.
fn prometheus_escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders one labeled Prometheus sample line,
/// `name{key="value",...} value`, escaping every label value
/// (backslash, double quote and newline, as the exposition format
/// requires). Label *names* are the caller's static
/// identifiers and are not escaped.
fn prometheus_sample(name: &str, labels: &[(&str, &str)], value: u64) -> String {
    let mut out = String::new();
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", prometheus_escape_label(v));
        }
        out.push('}');
    }
    let _ = write!(out, " {value}");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_exposition_is_typed_and_complete() {
        let snap = MetricsSnapshot {
            at_us: 1_234,
            spans: 10,
            dropped: 1,
            buffers: 3,
            counters: vec![(Counter::LlmCalls, 5), (Counter::BoundaryMessages, 7)],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE aim_spans_total counter"), "{text}");
        assert!(text.contains("aim_spans_total 10"), "{text}");
        assert!(text.contains("aim_spans_dropped_total 1"), "{text}");
        assert!(text.contains("aim_llm_calls_total 5"), "{text}");
        assert!(text.contains("aim_boundary_messages_total 7"), "{text}");
        // Every series line is `name value` and every value parses.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(!name.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        // Per the exposition format, only \, ", and newline are escaped
        // in label values; everything else passes through.
        assert_eq!(prometheus_escape_label("worker 3"), "worker 3");
        assert_eq!(
            prometheus_escape_label("worker \"3\" (remote)"),
            "worker \\\"3\\\" (remote)"
        );
        assert_eq!(prometheus_escape_label("a\\b"), "a\\\\b");
        assert_eq!(prometheus_escape_label("line\nbreak"), "line\\nbreak");
        let line = prometheus_sample(
            "aim_worker_spans_dropped_total",
            &[("worker", "evil\"name\\with\nnewline")],
            7,
        );
        assert_eq!(
            line,
            "aim_worker_spans_dropped_total{worker=\"evil\\\"name\\\\with\\nnewline\"} 7\n"
        );
        // The rendered line stays a single physical line: the raw
        // newline never survives into the exposition.
        assert_eq!(line.matches('\n').count(), 1);
        // No labels → no braces.
        assert_eq!(prometheus_sample("aim_up", &[], 1), "aim_up 1\n");
    }
}
