//! The per-run sink ([`Telemetry`]), its per-thread [`TelemetryRecorder`]s
//! and the live [`MetricsSnapshot`]. Every span, from either handle,
//! goes through one record path, and every producer track — shared,
//! per-worker or remote — is one entry of one list.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aim_llm::FleetMetrics;
use parking_lot::Mutex;

use super::buf::SpanBuf;
use super::flight::FlightRing;
use super::report::{RunTelemetry, WorkerTrack};
use super::schema::{Counter, Span, SpanKind};
use crate::scheduler::SchedStats;

/// Default per-buffer capacity: 64Ki spans ≈ 2.5 MiB. A 10k-agent,
/// 6-step city run emits roughly `agent_steps × 3` spans across all
/// buffers, so the default absorbs it with room; overflow is counted,
/// never blocking.
pub const DEFAULT_BUFFER_SPANS: usize = 1 << 16;

/// The per-run telemetry sink: a shared clock, an enabled flag, and the
/// set of span buffers feeding one [`RunTelemetry`].
///
/// Construction does not start a run — the threaded executor rebases all
/// timestamps onto its own start when it [`finish`](Telemetry::finish)es
/// the report, so one `Telemetry` maps to one run.
///
/// When **disabled** ([`Telemetry::set_enabled`]), every entry point
/// short-circuits on one relaxed atomic load: [`Telemetry::start`]
/// returns `None` and recording helpers become no-ops. The bench gate
/// pins this path (`telemetry/disabled_start` and the `scheduler`
/// target).
pub struct Telemetry {
    enabled: AtomicBool,
    epoch: Instant,
    /// Track 0: the multi-producer buffer behind [`Telemetry::record`].
    shared: Arc<SpanBuf>,
    /// The always-on flight recorder fed by every buffer's overflow
    /// branch; crash dumps read its tail via
    /// [`flight_tail`](Telemetry::flight_tail).
    flight: Arc<FlightRing>,
    /// Commit watermark gauges for the stall watchdog: total commits
    /// seen, plus the end timestamp and step of the latest one.
    commits: AtomicU64,
    last_commit_us: AtomicU64,
    last_commit_step: AtomicU64,
    /// Every producer track, indexed by track id, `shared` first.
    /// Registration appends under the lock (never on the span hot
    /// path); drains, drop accounting and the report walk it.
    tracks: Mutex<Vec<Track>>,
    counters: [AtomicU64; Counter::ALL.len()],
}

/// One producer track: its buffer, plus, for a remote producer (a
/// `dist` worker in another thread or process, merged by
/// [`Telemetry::ingest`]), the Perfetto track name and the drop count
/// the worker reported for its own local buffer — spans lost before
/// they reached the wire, distinct from drops in `buf`, which mean the
/// ingest buffer here overflowed.
struct Track {
    buf: Arc<SpanBuf>,
    name: Option<String>,
    reported_dropped: u64,
}

impl Track {
    fn new(buf: Arc<SpanBuf>, name: Option<&str>) -> Track {
        Track {
            buf,
            name: name.map(str::to_owned),
            reported_dropped: 0,
        }
    }

    fn dropped(&self) -> u64 {
        self.buf.dropped() + self.reported_dropped
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("buffers", &self.tracks.lock().len())
            .field("capacity", &self.shared.capacity())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An enabled sink with [`DEFAULT_BUFFER_SPANS`] slots per buffer.
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_BUFFER_SPANS)
    }

    /// An enabled sink with `capacity` span slots per buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Telemetry {
        let flight = Arc::new(FlightRing::new());
        let shared = Arc::new(SpanBuf::new(0, capacity, Arc::clone(&flight)));
        Telemetry {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            tracks: Mutex::new(vec![Track::new(Arc::clone(&shared), None)]),
            shared,
            flight,
            commits: AtomicU64::new(0),
            last_commit_us: AtomicU64::new(0),
            last_commit_step: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The one record path behind both handles' `record` / `record_at`:
    /// a no-op when disabled; otherwise ends the span now (`end_us` is
    /// `None`) or at `end_us` clamped to the start, moves the commit
    /// watermark, and pushes the span into `buf`.
    fn record_into(&self, buf: &SpanBuf, start_us: u64, end_us: Option<u64>, kind: SpanKind) {
        if !self.is_enabled() {
            return;
        }
        let end_us = end_us.map_or_else(|| self.now_us(), |end| end.max(start_us));
        self.note(&kind, end_us);
        buf.push(Span {
            start_us,
            end_us,
            track: buf.track(),
            kind,
        });
    }

    /// Updates the commit watermark when `kind` is a commit span, so the
    /// stall watchdog sees progress whichever buffer the span landed in
    /// — two relaxed stores, nothing else.
    fn note(&self, kind: &SpanKind, end_us: u64) {
        if let SpanKind::Commit { step, .. } = kind {
            self.commits.fetch_add(1, Ordering::Relaxed);
            self.last_commit_us.fetch_max(end_us, Ordering::Relaxed);
            self.last_commit_step
                .fetch_max(*step as u64, Ordering::Relaxed);
        }
    }

    /// The commit watermark: `(end_us, step)` of the latest commit span
    /// recorded through this sink, or `None` when no agent has committed
    /// yet. The watchdog treats `None` as "stalled since the epoch".
    pub fn last_commit(&self) -> Option<(u64, u32)> {
        (self.commits.load(Ordering::Relaxed) > 0).then(|| {
            (
                self.last_commit_us.load(Ordering::Relaxed),
                self.last_commit_step.load(Ordering::Relaxed) as u32,
            )
        })
    }

    /// Overflow spans the flight recorder could not retain because its
    /// ring was contended at offer time.
    pub fn flight_missed(&self) -> u64 {
        self.flight.missed()
    }

    /// The retained tail of recent spans: everything still held in the
    /// buffers plus the flight ring's overflow tail, sorted by start
    /// time, truncated to the *last* `limit` spans. This is the crash
    /// dump's source — even after long overflow the latest activity is
    /// here.
    pub fn flight_tail(&self, limit: usize) -> Vec<Span> {
        let mut spans = self.published();
        spans.extend(self.flight.tail());
        spans.sort_by_key(|s| (s.start_us, s.end_us));
        if spans.len() > limit {
            spans.drain(..spans.len() - limit);
        }
        spans
    }

    /// Builds a best-effort [`RunTelemetry`] from the flight tail for a
    /// crash dump: timestamps are rebased to the earliest retained span
    /// and the wall clock is the retained extent. Never panics — an
    /// empty tail yields an empty report.
    pub fn flight_report(&self, agents: u32) -> RunTelemetry {
        let spans = self.flight_tail(usize::MAX);
        let base = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end_us).max().unwrap_or(base);
        let spans: Vec<Span> = spans
            .into_iter()
            .map(|s| Span {
                start_us: s.start_us - base,
                end_us: s.end_us - base,
                ..s
            })
            .collect();
        let mut counters = self.counters();
        counters.retain(|&(_, n)| n > 0);
        RunTelemetry::from_spans(
            spans,
            end.saturating_sub(base),
            agents,
            self.dropped(),
            counters,
            SchedStats::default(),
            None,
        )
    }

    /// Toggles recording at runtime. Spans already recorded are kept.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// µs since this sink's epoch (the shared clock all spans use).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span: returns the current clock when enabled, `None`
    /// when disabled (the caller then skips its matching
    /// [`record`](Telemetry::record) entirely).
    pub fn start(&self) -> Option<u64> {
        self.is_enabled().then(|| self.now_us())
    }

    /// Closes a span opened at `start_us` into the shared buffer, ending
    /// now. Multi-producer safe; intended for the controller and for
    /// cross-thread producers without a recorder of their own.
    pub fn record(&self, start_us: u64, kind: SpanKind) {
        self.record_into(&self.shared, start_us, None, kind);
    }

    /// Records a span with explicit endpoints into the shared buffer.
    pub fn record_at(&self, start_us: u64, end_us: u64, kind: SpanKind) {
        self.record_into(&self.shared, start_us, Some(end_us), kind);
    }

    /// Bumps a counter by `n` (no-op when disabled).
    pub fn counter_add(&self, counter: Counter, n: u64) {
        if self.is_enabled() {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Appends a track and returns its buffer — or, for a `name` already
    /// registered, that track's buffer. The one registration path behind
    /// [`recorder`](Telemetry::recorder) and
    /// [`remote_track`](Telemetry::remote_track).
    fn register(&self, name: Option<&str>) -> Arc<SpanBuf> {
        let mut tracks = self.tracks.lock();
        if let Some(t) = name.and_then(|n| tracks.iter().find(|t| t.name.as_deref() == Some(n))) {
            return Arc::clone(&t.buf);
        }
        let buf = Arc::new(SpanBuf::new(
            tracks.len() as u32,
            self.shared.capacity(),
            Arc::clone(&self.flight),
        ));
        tracks.push(Track::new(Arc::clone(&buf), name));
        buf
    }

    /// Registers a new per-thread buffer and returns its recorder. Call
    /// once per worker at thread start (registration locks; recording
    /// never does).
    pub fn recorder(self: &Arc<Self>) -> TelemetryRecorder {
        TelemetryRecorder {
            buf: self.register(None),
            telemetry: Arc::clone(self),
        }
    }

    /// Registers (or looks up) a named track for spans harvested from a
    /// remote producer — a `dist` worker in another thread or OS
    /// process. Idempotent by name, so harvesting the same worker
    /// repeatedly keeps appending to one track. Registration locks;
    /// never call it on a span hot path.
    pub fn remote_track(&self, name: &str) -> u32 {
        self.register(Some(name)).track()
    }

    /// Merges spans harvested from the remote producer registered as
    /// `track`, rebasing each timestamp from the remote clock onto this
    /// sink's by `offset_us` (`local ≈ remote + offset`; see the
    /// harvest handshake in `dist::DistTracker` for how the offset is
    /// estimated). Unknown tracks are ignored; overflow is counted in
    /// the track's buffer, never silent.
    pub fn ingest(&self, track: u32, spans: &[Span], offset_us: i64) {
        let tracks = self.tracks.lock();
        let Some(t) = tracks.get(track as usize).filter(|t| t.name.is_some()) else {
            return;
        };
        let rebase = |us: u64| -> u64 { (us as i64).saturating_add(offset_us).max(0) as u64 };
        for s in spans {
            let start_us = rebase(s.start_us);
            t.buf.push(Span {
                start_us,
                end_us: rebase(s.end_us).max(start_us),
                track,
                kind: s.kind,
            });
        }
    }

    /// Records the drop count a remote producer reported for its own
    /// local buffer. The count is absolute (a running total on the
    /// worker side), so repeated harvests keep the maximum.
    pub fn set_remote_dropped(&self, track: u32, dropped: u64) {
        let mut tracks = self.tracks.lock();
        if let Some(t) = tracks.get_mut(track as usize).filter(|t| t.name.is_some()) {
            t.reported_dropped = t.reported_dropped.max(dropped);
        }
    }

    /// Spans dropped to overflow across all buffers so far, plus every
    /// drop a remote producer reported for its own local buffer.
    pub fn dropped(&self) -> u64 {
        self.tracks.lock().iter().map(Track::dropped).sum()
    }

    /// Copies every published span out of every buffer, sorted by start
    /// time. Non-destructive; safe concurrently with producers.
    pub fn drain_spans(&self) -> Vec<Span> {
        let mut out = self.published();
        out.sort_unstable_by_key(|s| (s.start_us, s.end_us, s.track));
        out
    }

    /// Every published span of every track, in track order.
    fn published(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for t in self.tracks.lock().iter() {
            t.buf.drain_into(&mut out);
        }
        out
    }

    /// Incremental drain for harvests: copies only spans recorded since
    /// the previous call with the same `cursor` (one watermark per
    /// buffer; start from an empty vec). A slot still being written is
    /// left for the next harvest rather than skipped, so no span is ever
    /// lost between harvests. Spans come back sorted by start time.
    pub fn drain_new_spans(&self, cursor: &mut Vec<usize>) -> Vec<Span> {
        let mut out = Vec::new();
        let tracks = self.tracks.lock();
        cursor.resize(tracks.len(), 0);
        for (t, from) in tracks.iter().zip(cursor.iter_mut()) {
            *from = t.buf.drain_range_into(*from, &mut out);
        }
        drop(tracks);
        out.sort_unstable_by_key(|s| (s.start_us, s.end_us, s.track));
        out
    }

    /// Snapshot of all counters in display order.
    pub fn counters(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .into_iter()
            .map(|c| (c, self.counter(c)))
            .collect()
    }

    /// A cheap point-in-time sample for live surfaces (the `aim-serve`
    /// `/metrics` and `/status` routes): counts only — no span copying,
    /// no quiesce — safe to take from any thread mid-run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tracks = self.tracks.lock();
        MetricsSnapshot {
            at_us: self.now_us(),
            spans: tracks.iter().map(|t| t.buf.used() as u64).sum(),
            dropped: tracks.iter().map(|t| t.buf.dropped()).sum(),
            buffers: tracks.len() as u32,
            counters: self.counters(),
        }
    }

    /// Assembles the unified report for a run spanning
    /// `[run_start_us, run_end_us]` on this sink's clock (both from
    /// [`Telemetry::now_us`]). Span timestamps are rebased so the run
    /// starts at 0; it copies the spans published so far, so a span
    /// recorded after this call is not included.
    pub fn finish(
        &self,
        run_start_us: u64,
        run_end_us: u64,
        agents: u32,
        sched: SchedStats,
        fleet: Option<FleetMetrics>,
    ) -> RunTelemetry {
        let wall_us = run_end_us.saturating_sub(run_start_us).max(1);
        let spans: Vec<Span> = self
            .drain_spans()
            .into_iter()
            .map(|mut s| {
                s.start_us = s.start_us.saturating_sub(run_start_us);
                s.end_us = s.end_us.saturating_sub(run_start_us);
                s
            })
            .collect();
        let worker_tracks: Vec<WorkerTrack> = self
            .tracks
            .lock()
            .iter()
            .filter_map(|t| {
                Some(WorkerTrack {
                    track: t.buf.track(),
                    name: t.name.clone()?,
                    dropped: t.dropped(),
                })
            })
            .collect();
        let mut rt = RunTelemetry::from_spans(
            spans,
            wall_us,
            agents,
            self.dropped(),
            self.counters(),
            sched,
            fleet,
        );
        rt.worker_tracks = worker_tracks;
        rt
    }
}

/// A cheap statistics sample taken mid-run without quiescing — what the
/// `aim-serve` `/metrics` exposition renders. Everything here is a
/// counter read; taking one never copies spans or perturbs producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sample time, µs on the sink's clock.
    pub at_us: u64,
    /// Spans published across all buffers so far.
    pub spans: u64,
    /// Spans dropped to buffer overflow so far.
    pub dropped: u64,
    /// Buffers registered (shared + per-worker + remote tracks).
    pub buffers: u32,
    /// Counter snapshot, display order.
    pub counters: Vec<(Counter, u64)>,
}

impl MetricsSnapshot {
    /// Value of `counter` (0 when never bumped).
    pub fn counter(&self, counter: Counter) -> u64 {
        counter.value_in(&self.counters)
    }
}

/// A per-thread handle: one lock-free [`SpanBuf`] plus the shared sink.
/// Cheap to clone the `Arc`s it holds; create via [`Telemetry::recorder`].
pub struct TelemetryRecorder {
    telemetry: Arc<Telemetry>,
    buf: Arc<SpanBuf>,
}

impl std::fmt::Debug for TelemetryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRecorder")
            .field("track", &self.buf.track())
            .finish()
    }
}

impl TelemetryRecorder {
    /// Opens a span (see [`Telemetry::start`]).
    pub fn start(&self) -> Option<u64> {
        self.telemetry.start()
    }

    /// µs since the sink's epoch.
    pub fn now_us(&self) -> u64 {
        self.telemetry.now_us()
    }

    /// Closes a span opened at `start_us` into this thread's buffer,
    /// ending now. Lock-free (see [`SpanBuf`] invariants).
    pub fn record(&self, start_us: u64, kind: SpanKind) {
        self.telemetry.record_into(&self.buf, start_us, None, kind);
    }

    /// Records a span with explicit endpoints into this thread's buffer.
    pub fn record_at(&self, start_us: u64, end_us: u64, kind: SpanKind) {
        self.telemetry
            .record_into(&self.buf, start_us, Some(end_us), kind);
    }

    /// The owning sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }
}
