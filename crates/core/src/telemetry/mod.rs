//! Unified runtime telemetry: low-overhead span tracing and stall
//! attribution for the out-of-order engine.
//!
//! The paper's whole argument is a wall-clock decomposition — out-of-order
//! execution wins because agents stop waiting on *false* dependencies —
//! so the engine must be able to show where a run's time goes. This
//! module provides that as always-compiled, runtime-toggled
//! infrastructure:
//!
//! * [`Telemetry`] — the per-run sink. Worker threads obtain a
//!   [`TelemetryRecorder`] (one lock-free [`SpanBuf`] each); the
//!   controller and cross-thread producers (LLM backends, fleet
//!   observers) share a multi-producer buffer. When disabled, the hot
//!   path is a single relaxed atomic load.
//! * [`Span`]/[`SpanKind`] — what is recorded: cluster lifecycle
//!   (dispatch → LLM call(s) → commit), dependency-blocked waits with the
//!   blocking agent attached, intra-cluster barrier waits with the
//!   straggler attached, per-shard relink/migration work, quiesce +
//!   checkpoint barriers, and per-replica fleet call attempts
//!   (retry/hedge linked to the issuing request id). Each kind's payload
//!   is described once, as named, typed fields tagged by its [`Phase`]
//!   ([`SpanKind::write_fields`] / [`SpanKind::read_fields`]); the
//!   `AIMMSG` frames, the `AIMTEL` file and the Perfetto/JSONL `args`
//!   all walk that one description.
//! * [`RunTelemetry`] — the unified report: the four existing metric
//!   structs ([`SchedStats`](crate::scheduler::SchedStats),
//!   [`crate::metrics::Timeline`] (derivable via
//!   [`RunTelemetry::timeline`]), [`ServerMetrics`](aim_llm::ServerMetrics),
//!   [`FleetMetrics`](aim_llm::FleetMetrics)) plus per-phase log₂-bucket
//!   histograms ([`PhaseHistogram`]) and the paper-shaped
//!   [`Decomposition`] of wall time into {running LLM, blocked on
//!   dependency, controller/relink overhead, checkpoint stall}, per agent
//!   and fleet-wide, with an optional speedup-vs-critical-path ratio.
//!
//! Recording is wired through [`crate::exec::threaded::run_threaded_observed`];
//! export (Perfetto `trace.json`, JSONL, the `.telemetry` file format)
//! lives in `aim-trace`, downstream of this crate.
//!
//! # Layout
//!
//! One file per seam: `schema` (span kinds, phases, payload fields,
//! counters), `buf` ([`SpanBuf`]), `flight` ([`FlightRing`]), `sink`
//! ([`Telemetry`], its recorders, [`MetricsSnapshot`]), `report`
//! ([`RunTelemetry`]) and `observe` ([`TelemetryBackend`],
//! [`TelemetryObserver`]). Both handles record through one path into
//! one list of tracks. `buf` is the one module of `aim-core` allowed
//! `unsafe` code; its claim/publish argument is stated once, on
//! [`SpanBuf`].
//!
//! # Overhead contract
//!
//! The subsystem is benchmarked (`cargo bench --bench telemetry`) and the
//! CI bench gate enforces that the *disabled* path leaves the scheduler
//! hot loop inside the existing 5% regression budget. The design rules
//! that make that hold are documented on [`SpanBuf`]: pre-allocated
//! slots, one atomic fetch-add per span, and **no allocation, lock, or
//! syscall while a span is open on the hot path**.

#[allow(unsafe_code)]
mod buf;
mod flight;
mod observe;
mod report;
mod schema;
mod sink;
#[cfg(test)]
mod tests;

pub use buf::SpanBuf;
pub use flight::{FlightRing, DEFAULT_FLIGHT_SPANS};
pub use observe::{TelemetryBackend, TelemetryObserver};
pub(crate) use report::stall_edges;
pub use report::{Decomposition, PhaseHistogram, RunTelemetry, StallEdge, WorkerTrack};
pub use schema::{BlockReason, BoundaryOp, Counter, Field, FieldReader, Phase, Span, SpanKind};
pub use sink::{MetricsSnapshot, Telemetry, TelemetryRecorder, DEFAULT_BUFFER_SPANS};

/// Every handle producers share across threads stays `Send + Sync`:
/// removing or loosening an impl fails the build here.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Telemetry>();
    send_sync::<TelemetryRecorder>();
    send_sync::<SpanBuf>();
};
