//! # aim-trace
//!
//! Workload traces for LLM multi-agent simulation.
//!
//! The AI Metropolis paper benchmarks in **replay mode** (§4.1): traces
//! collected from the original GenAgent implementation (56.7k LLM calls per
//! simulated day, mean 642.6 input / 21.9 output tokens, plus an agent
//! movement log) are replayed so that every scheduler processes identical
//! work. Those GPT-3.5 traces are not public, so this crate also *produces*
//! statistically matching traces via [`gen`] — self-play of the
//! [`aim_world`] substrate with its scripted decision model.
//!
//! * [`Trace`] — the in-memory format: per-`(agent, step)` call chains plus
//!   a dense position matrix; implements
//!   [`aim_core::workload::Workload`] so executors replay it directly.
//! * [`codec`] — a self-contained line-oriented file format (no external
//!   parser dependencies) with exact round-tripping.
//! * [`gen`] — synthetic GenAgent-style trace generation (whole days,
//!   busy/quiet hour windows, multi-ville concatenation).
//! * [`stats`] — aggregate statistics: hourly call histogram (Fig. 4c),
//!   token means, per-kind mix, imbalance.
//! * [`oracle`] — mining ground-truth dependencies from trajectories
//!   (the `oracle` baseline of §4.2) and the §2.2 "1.85 dependencies per
//!   agent" statistic.
//! * [`critical`] — token- and time-weighted critical paths (the
//!   `critical` lower bound of §4.2).
//! * [`latency`] — mining [`aim_llm::LatencyProfile`]s from traces so a
//!   [`aim_llm::ReplayBackend`] (or a whole heterogeneous fleet replica)
//!   can serve the latency distribution a reference deployment measured.
//! * [`telemetry`] — exporting [`aim_core::telemetry::RunTelemetry`]
//!   reports: the `AIMTEL v1` `.telemetry` file format, Perfetto/Chrome
//!   `trace.json`, and span JSONL (see `trace_tool timeline` / `stalls`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod critical;
mod format;
pub mod gen;
pub mod latency;
mod lines;
pub mod oracle;
pub mod serving;
pub mod stats;
pub mod telemetry;

pub use format::{CallEvent, Trace, TraceBuilder, TraceMeta};

/// Errors reading or writing trace files.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid trace (message explains where).
    Parse(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse(msg) => write!(f, "trace parse error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
