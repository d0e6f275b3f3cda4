//! Telemetry export: the `.telemetry` file format, Chrome/Perfetto
//! `trace.json`, and span JSONL.
//!
//! [`aim_core::telemetry::RunTelemetry`] is the in-memory unified report;
//! this module moves it across process boundaries:
//!
//! * [`save`]/[`load`] — the `AIMTEL v1` line-oriented file format, same
//!   philosophy as [`crate::codec`] and read by the same line-record
//!   reader: inspectable with a pager, parseable without external
//!   dependencies, exact round-trip of spans, counters, and scheduler
//!   stats. (Live-only fields — fleet and server metric structs — are not
//!   persisted; everything derived from spans, including the
//!   decomposition and per-phase histograms, is recomputed on load.)
//! * [`write_chrome_trace`] — Perfetto/`chrome://tracing` complete events
//!   (`"ph":"X"`, µs timestamps), one trace row per telemetry track:
//!   track 0 is the shared cross-thread buffer (controller, scheduler,
//!   backend, fleet), tracks 1.. are worker threads.
//! * [`write_jsonl`] — one flat JSON object per span, for ad-hoc
//!   `jq`-style analysis.
//!
//! No format here spells out a span kind's payload: an `S` record's
//! fields and a trace event's `args` are both walks over the span schema
//! in `aim-core` ([`SpanKind::write_fields`], read back through
//! [`SpanKind::read_fields`]), so a new or changed kind needs no edit in
//! this module. Only the Perfetto event names (`a4 blocked on a5`) are
//! written per kind, since they are presentation.
//!
//! * [`validate_chrome_trace`] — a minimal JSON parser (no serde_json in
//!   the workspace) that checks an exported `trace.json` is well-formed
//!   and shaped like a trace-event file; CI runs this on the `repro`
//!   telemetry arm.

use std::io::{BufRead, Write};

use aim_core::telemetry::{
    Counter, Field, FieldReader, MetricsSnapshot, Phase, RunTelemetry, Span, SpanKind, WorkerTrack,
};

use crate::lines::Lines;
use crate::TraceError;

const MAGIC: &str = "AIMTEL v1";

/// Serializes `rt` to `w` in the `AIMTEL v1` format.
///
/// ```text
/// AIMTEL v1
/// M wall_us=<u64> agents=<u32> dropped=<u64> critical_us=<u64|none>
/// K <counter-name> <u64>
/// D <clusters_emitted> <agent_steps> <watcher_wakes> <blocked_evals> <max_step_skew> <max_cluster_size>
/// W <track> <dropped> <name…>
/// S <track> <start_us> <end_us> <phase> <kind-fields…>
/// ```
///
/// `W` records name the per-worker tracks of a merged distributed run
/// and carry each worker's span-buffer overflow count (the name runs to
/// end of line). An `S` record's kind is its [`Phase`] name and its
/// fields are those of [`SpanKind::write_fields`], in order: decimal
/// integers, `0`/`1` flags, value names.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_telemetry(rt: &RunTelemetry, w: &mut impl Write) -> Result<(), TraceError> {
    writeln!(w, "{MAGIC}")?;
    write!(
        w,
        "M wall_us={} agents={} dropped={} critical_us=",
        rt.wall_us, rt.agents, rt.dropped
    )?;
    match rt.critical_path_us {
        Some(us) => writeln!(w, "{us}")?,
        None => writeln!(w, "none")?,
    }
    for (c, n) in &rt.counters {
        writeln!(w, "K {} {n}", c.as_str())?;
    }
    let d = &rt.sched;
    writeln!(
        w,
        "D {} {} {} {} {} {}",
        d.clusters_emitted,
        d.agent_steps,
        d.watcher_wakes,
        d.blocked_evals,
        d.max_step_skew,
        d.max_cluster_size
    )?;
    for t in &rt.worker_tracks {
        writeln!(w, "W {} {} {}", t.track, t.dropped, t.name)?;
    }
    for s in &rt.spans {
        let phase = s.kind.phase().as_str();
        write!(w, "S {} {} {} {phase}", s.track, s.start_us, s.end_us)?;
        s.kind.write_fields(|_, field| match field {
            Field::U32(v) => write!(w, " {v}"),
            Field::U64(v) => write!(w, " {v}"),
            Field::Flag(v) => write!(w, " {}", u8::from(v)),
            Field::Choice(_, name) => write!(w, " {name}"),
        })?;
        writeln!(w)?;
    }
    Ok(())
}

/// Deserializes a report written by [`write_telemetry`].
///
/// The decomposition, per-phase histograms, and span ordering are
/// recomputed through [`RunTelemetry::from_spans`], so a loaded report
/// answers the same queries as the live one (minus fleet/server structs).
///
/// # Errors
///
/// Returns [`TraceError::Parse`] on any malformed line — a missing,
/// out-of-range or unknown field, or one too many — and
/// [`TraceError::Io`] on read failures.
pub fn read_telemetry(r: &mut impl BufRead) -> Result<RunTelemetry, TraceError> {
    let mut lines = Lines::open(r, MAGIC)?;
    let mut wall_us = 0u64;
    let mut agents = 0u32;
    let mut dropped = 0u64;
    let mut critical: Option<u64> = None;
    let mut seen_meta = false;
    let mut counters: Vec<(Counter, u64)> = Vec::new();
    let mut sched = aim_core::scheduler::SchedStats::default();
    let mut worker_tracks: Vec<WorkerTrack> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();

    while let Some(mut rec) = lines.next_record()? {
        match rec.token("record tag")? {
            "M" => {
                seen_meta = true;
                while let Some((k, v)) = rec.pair()? {
                    match k {
                        "wall_us" => wall_us = rec.parse(k, v)?,
                        "agents" => agents = rec.parse(k, v)?,
                        "dropped" => dropped = rec.parse(k, v)?,
                        "critical_us" if v == "none" => critical = None,
                        "critical_us" => critical = Some(rec.parse(k, v)?),
                        other => return Err(rec.err(format_args!("unknown meta field {other}"))),
                    }
                }
            }
            "K" => {
                let c = rec.choice("counter", &Counter::ALL, Counter::as_str)?;
                counters.push((c, rec.next("counter value")?));
            }
            "D" => {
                sched.clusters_emitted = rec.next("clusters_emitted")?;
                sched.agent_steps = rec.next("agent_steps")?;
                sched.watcher_wakes = rec.next("watcher_wakes")?;
                sched.blocked_evals = rec.next("blocked_evals")?;
                sched.max_step_skew = rec.next("max_step_skew")?;
                sched.max_cluster_size = rec.next("max_cluster_size")?;
            }
            "W" => worker_tracks.push(WorkerTrack {
                track: rec.next("track")?,
                dropped: rec.next("dropped")?,
                name: rec.rest("track name")?.to_string(),
            }),
            "S" => {
                let track = rec.next("track")?;
                let start_us = rec.next("start_us")?;
                let end_us = rec.next("end_us")?;
                if end_us < start_us {
                    return Err(rec.err("span ends before it starts"));
                }
                let phase = rec.choice("span kind", &Phase::ALL, Phase::as_str)?;
                let kind = SpanKind::read_fields(phase, &mut rec)?;
                spans.push(Span {
                    start_us,
                    end_us,
                    track,
                    kind,
                });
            }
            other => return Err(rec.err(format_args!("unknown record tag {other}"))),
        }
        rec.end()?;
    }
    if !seen_meta {
        return Err(TraceError::Parse("missing M meta line".to_string()));
    }
    let mut rt = RunTelemetry::from_spans(spans, wall_us, agents, dropped, counters, sched, None);
    if let Some(us) = critical {
        rt.set_critical_path(us);
    }
    rt.set_worker_tracks(worker_tracks);
    Ok(rt)
}

/// Writes `rt` to a `.telemetry` file.
///
/// # Errors
///
/// Propagates I/O errors, including those of the final flush.
pub fn save(rt: &RunTelemetry, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_telemetry(rt, &mut w)?;
    Ok(w.flush()?)
}

/// Reads a `.telemetry` file written by [`save`].
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<RunTelemetry, TraceError> {
    let file = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(file);
    read_telemetry(&mut r)
}

/// Escapes `s` for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters; the result is safe to embed
/// between double quotes). Used by every JSON exporter here and by the
/// live `/status` endpoint in `aim-serve`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The span's Perfetto event name, e.g. `a4 blocked on a5`.
fn display_name(kind: &SpanKind) -> String {
    let phase = kind.phase().as_str();
    match *kind {
        SpanKind::Cluster { cluster, step, .. } | SpanKind::Commit { cluster, step, .. } => {
            format!("{phase} {cluster} @{step}")
        }
        SpanKind::LlmCall { agent, kind, .. } => format!("llm {} a{agent}", kind.as_str()),
        SpanKind::Blocked { agent, blocker, .. } => format!("a{agent} blocked on a{blocker}"),
        SpanKind::Relink { agents, .. } | SpanKind::Migrate { agents, .. } => {
            format!("{phase} ×{agents}")
        }
        SpanKind::Checkpoint { step } => format!("checkpoint @{step}"),
        SpanKind::FleetAttempt {
            request, replica, ..
        } => format!("attempt r{replica} req{request}"),
        SpanKind::Control { cluster, .. } => format!("control {cluster}"),
        SpanKind::Boundary { worker, op, .. } => format!("boundary {} w{worker}", op.as_str()),
    }
}

/// Writes the span's `args` object, the fields of
/// [`SpanKind::write_fields`] as `"name":value` members (flags as
/// `true`/`false`, value names quoted), and closes the event around it.
fn write_args_and_close(kind: &SpanKind, w: &mut impl Write) -> std::io::Result<()> {
    let mut sep = '{';
    kind.write_fields(|name, field| {
        write!(w, "{sep}\"{name}\":")?;
        sep = ',';
        match field {
            Field::U32(v) => write!(w, "{v}"),
            Field::U64(v) => write!(w, "{v}"),
            Field::Flag(v) => write!(w, "{v}"),
            Field::Choice(_, name) => write!(w, "\"{name}\""),
        }
    })?;
    w.write_all(b"}}")
}

/// Writes `rt` as a Chrome trace-event file (Perfetto,
/// `chrome://tracing`, and Speedscope all load it).
///
/// Every span becomes a complete event (`"ph":"X"`) with µs `ts`/`dur`;
/// `tid` is the telemetry track (0 = shared cross-thread buffer, 1.. =
/// workers), labeled via metadata events. The phase name goes in `cat`,
/// so Perfetto can filter by phase; `args` holds the span schema's
/// fields by name.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace(rt: &RunTelemetry, w: &mut impl Write) -> Result<(), TraceError> {
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut tracks: std::collections::BTreeSet<u32> = rt.spans.iter().map(|s| s.track).collect();
    // Registered worker tracks get a name row even if they shipped no
    // spans this run (their drop count may still be the story).
    tracks.extend(rt.worker_tracks.iter().map(|t| t.track));
    let mut first = true;
    let mut sep = |w: &mut dyn Write| -> std::io::Result<()> {
        if first {
            first = false;
            Ok(())
        } else {
            writeln!(w, ",")
        }
    };
    for t in tracks {
        let name = match rt.track_name(t) {
            Some(n) => n.to_string(),
            None if t == 0 => "shared (controller/backend/fleet)".to_string(),
            None => format!("worker {t}"),
        };
        sep(w)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&name)
        )?;
    }
    for s in &rt.spans {
        sep(w)?;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},\"args\":",
            json_escape(&display_name(&s.kind)),
            s.kind.phase().as_str(),
            s.start_us,
            s.end_us.saturating_sub(s.start_us),
            s.track,
        )?;
        write_args_and_close(&s.kind, w)?;
    }
    writeln!(w, "\n]}}")?;
    Ok(())
}

/// Writes one flat JSON object per span (JSONL) — `track`, `start_us`,
/// `end_us`, `phase`, plus the `args` of [`write_chrome_trace`].
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl(rt: &RunTelemetry, w: &mut impl Write) -> Result<(), TraceError> {
    for s in &rt.spans {
        write!(
            w,
            "{{\"track\":{},\"start_us\":{},\"end_us\":{},\"phase\":\"{}\",\"args\":",
            s.track,
            s.start_us,
            s.end_us,
            s.kind.phase().as_str(),
        )?;
        write_args_and_close(&s.kind, w)?;
        writeln!(w)?;
    }
    Ok(())
}

/// Renders a live [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4): one `# TYPE` line per series, counters
/// suffixed `_total`. The snapshot is sampled without quiescing, so the
/// values are monotone but may lag each other by a few microseconds —
/// fine for a heartbeat, not for invariant checks.
#[must_use]
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut series = |name: &str, kind: &str, value: u64| {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    };
    series("aim_uptime_microseconds", "gauge", snap.at_us);
    series("aim_spans_total", "counter", snap.spans);
    series("aim_spans_dropped_total", "counter", snap.dropped);
    series("aim_span_buffers", "gauge", u64::from(snap.buffers));
    for &(c, n) in &snap.counters {
        let name = format!("aim_{}_total", c.as_str());
        series(&name, "counter", n);
    }
    out
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed must be escaped (`\\`, `\"`,
/// `\n`); everything else passes through verbatim.
#[must_use]
pub fn prometheus_escape_label(s: &str) -> String {
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
/// `name{key="value",...} value`, escaping every label value with
/// [`prometheus_escape_label`]. Label *names* are the caller's static
/// identifiers and are not escaped.
#[must_use]
pub fn prometheus_sample(name: &str, labels: &[(&str, &str)], value: u64) -> String {
    use std::fmt::Write as _;
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

// ---------------------------------------------------------------------
// Minimal JSON validation (the workspace has no serde_json).
// ---------------------------------------------------------------------

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json offset {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Parses one JSON value, returning how many values it contained
    /// (itself plus descendants); object keys are validated as strings.
    fn value(&mut self) -> Result<u64, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut n = 1;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(n);
                }
                loop {
                    self.string()?;
                    self.expect(b':')?;
                    n += self.value()?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(n);
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut n = 1;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(n);
                }
                loop {
                    n += self.value()?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(n);
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => {
                self.string()?;
                Ok(1)
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
                Ok(1)
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<u64, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(1)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 2; // escape + escaped byte
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected a number"))
        } else {
            Ok(())
        }
    }
}

/// Validates that `text` is one complete well-formed JSON value with no
/// trailing data (the workspace has no serde_json; this is the same
/// hand-rolled parser behind [`validate_chrome_trace`]). Used by the
/// `aim-serve` tests to prove the `/status` payload parses.
///
/// # Errors
///
/// Returns a description with byte offset of the first problem.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut p = JsonParser::new(text);
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    Ok(())
}

/// Validates that `text` is well-formed JSON shaped like a Chrome
/// trace-event file: a top-level object with a `"traceEvents"` array whose
/// complete events carry `ts`/`dur`/`pid`/`tid`. Returns the event count.
///
/// # Errors
///
/// Returns a description with byte offset of the first problem.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let mut p = JsonParser::new(text);
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    if !text.contains("\"traceEvents\"") {
        return Err("no \"traceEvents\" key".to_string());
    }
    // Count complete events and spot-check their required keys with a
    // cheap scan (structure already proven well-formed above).
    let mut events = 0usize;
    for chunk in text.split("\"ph\":\"X\"").skip(1) {
        events += 1;
        let head = &chunk[..chunk.len().min(160)];
        for key in ["\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"] {
            if !head.contains(key) {
                return Err(format!("complete event #{events} missing {key}"));
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_core::scheduler::SchedStats;
    use aim_core::telemetry::{BlockReason, BoundaryOp};
    use aim_llm::{AttemptOutcome, CallKind};

    fn sample() -> RunTelemetry {
        let spans = vec![
            Span {
                start_us: 0,
                end_us: 50,
                track: 1,
                kind: SpanKind::Cluster {
                    cluster: 7,
                    step: 2,
                    members: 3,
                },
            },
            Span {
                start_us: 5,
                end_us: 25,
                track: 1,
                kind: SpanKind::LlmCall {
                    agent: 4,
                    step: 2,
                    request: 99,
                    kind: CallKind::Plan,
                },
            },
            Span {
                start_us: 25,
                end_us: 40,
                track: 1,
                kind: SpanKind::Blocked {
                    agent: 4,
                    blocker: 5,
                    step: 2,
                    reason: BlockReason::Barrier,
                },
            },
            Span {
                start_us: 40,
                end_us: 48,
                track: 1,
                kind: SpanKind::Commit {
                    cluster: 7,
                    step: 2,
                    members: 3,
                },
            },
            Span {
                start_us: 10,
                end_us: 22,
                track: 0,
                kind: SpanKind::FleetAttempt {
                    request: 99,
                    replica: 1,
                    hedge: true,
                    outcome: AttemptOutcome::Served,
                },
            },
            Span {
                start_us: 50,
                end_us: 55,
                track: 0,
                kind: SpanKind::Control {
                    cluster: 7,
                    members: 3,
                },
            },
            Span {
                start_us: 60,
                end_us: 80,
                track: 0,
                kind: SpanKind::Checkpoint { step: 3 },
            },
            Span {
                start_us: 56,
                end_us: 59,
                track: 0,
                kind: SpanKind::Relink {
                    agents: 12,
                    workers: 2,
                },
            },
            Span {
                start_us: 55,
                end_us: 56,
                track: 0,
                kind: SpanKind::Migrate {
                    agents: 12,
                    crossings: 1,
                },
            },
            Span {
                start_us: 81,
                end_us: 90,
                track: 0,
                kind: SpanKind::Boundary {
                    worker: 3,
                    op: BoundaryOp::Wait,
                    messages: 4,
                },
            },
        ];
        let mut sched = SchedStats::default();
        sched.clusters_emitted = 1;
        sched.agent_steps = 3;
        sched.watcher_wakes = 2;
        sched.blocked_evals = 4;
        sched.max_step_skew = 1;
        sched.max_cluster_size = 3;
        let counters = vec![(Counter::LlmCalls, 1), (Counter::FleetHedges, 1)];
        let mut rt = RunTelemetry::from_spans(spans, 100, 6, 2, counters, sched, None);
        rt.set_critical_path(42);
        rt.set_worker_tracks(vec![WorkerTrack {
            track: 1,
            name: "worker 0 (remote)".to_string(),
            dropped: 2,
        }]);
        rt
    }

    #[test]
    fn telemetry_roundtrip_exact() {
        let rt = sample();
        let mut buf = Vec::new();
        write_telemetry(&rt, &mut buf).unwrap();
        let back = read_telemetry(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(rt, back);
    }

    /// A write error that only surfaces when the buffer is flushed (a
    /// small file on a full device) is the caller's error, not lost.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_reports_a_late_write_error() {
        assert!(save(&sample(), "/dev/full").is_err());
    }

    #[test]
    fn telemetry_text_is_human_readable() {
        let rt = sample();
        let mut buf = Vec::new();
        write_telemetry(&rt, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("AIMTEL v1\n"), "{text}");
        assert!(text.contains("K llm_calls 1"), "{text}");
        assert!(text.contains("blocked 4 5 2 barrier"), "{text}");
        assert!(text.contains("attempt 99 1 1 served"), "{text}");
        assert!(text.contains("boundary 3 wait 4"), "{text}");
        assert!(text.contains("W 1 2 worker 0 (remote)"), "{text}");
    }

    #[test]
    fn worker_track_names_reach_chrome_trace() {
        let rt = sample();
        let mut buf = Vec::new();
        write_chrome_trace(&rt, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("worker 0 (remote)"), "{text}");
        assert!(text.contains("shared (controller/backend/fleet)"), "{text}");
    }

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

    #[test]
    fn corrupt_lines_are_located() {
        let rt = sample();
        let mut buf = Vec::new();
        write_telemetry(&rt, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("S 0 5 3 checkpoint 1\n"); // ends before it starts
        let err = read_telemetry(&mut std::io::Cursor::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("line"), "{err}");
    }

    #[test]
    fn out_of_range_and_leftover_fields_are_rejected() {
        // A reader that parsed every integer as `u64` and cast it down
        // loaded the first line as `Checkpoint { step: 1 }` and the meta
        // line as `agents = 2`, and never looked past a record's last
        // field.
        for bad in [
            "S 0 0 1 checkpoint 4294967297 99 extra",
            "S 0 0 1 checkpoint 4294967297",
            "S 0 0 1 checkpoint 1 99 extra",
            "M wall_us=10 agents=4294967298 dropped=0 critical_us=none",
        ] {
            let text =
                format!("AIMTEL v1\nM wall_us=10 agents=1 dropped=0 critical_us=none\n{bad}\n");
            let err = read_telemetry(&mut std::io::Cursor::new(text)).unwrap_err();
            assert!(
                matches!(&err, TraceError::Parse(msg) if msg.starts_with("line 3: ")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut cur = std::io::Cursor::new(b"NOTTEL\n".to_vec());
        assert!(matches!(
            read_telemetry(&mut cur),
            Err(TraceError::Parse(_))
        ));
    }

    #[test]
    fn chrome_trace_validates_and_counts_events() {
        let rt = sample();
        let mut buf = Vec::new();
        write_chrome_trace(&rt, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let events = validate_chrome_trace(&text).expect("well-formed");
        assert_eq!(events, rt.spans.len());
    }

    #[test]
    fn chrome_trace_rejects_garbage() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "no traceEvents key");
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
    }

    #[test]
    fn jsonl_one_line_per_span() {
        let rt = sample();
        let mut buf = Vec::new();
        write_jsonl(&rt, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), rt.spans.len());
        for line in text.lines() {
            let mut p = JsonParser::new(line);
            p.value().expect("each line is one json object");
        }
    }

    #[test]
    fn file_roundtrip() {
        let rt = sample();
        let dir = std::env::temp_dir().join("aim-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.telemetry");
        save(&rt, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(rt, back);
        std::fs::remove_file(&path).ok();
    }
}
