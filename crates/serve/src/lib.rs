//! # aim-serve
//!
//! The live health plane for a running simulation: a dependency-free
//! embedded HTTP server exposing `/metrics`, `/status`, and `/healthz`;
//! the glue that drives the [`aim_core::health`] stall watchdog off the
//! hot path; and the crash flight recorder that turns a panic or a
//! severed worker link into loadable `crash.telemetry` +
//! `crash.trace.json` dumps.
//!
//! Finished-run telemetry (PR 9's harvest + exporters) explains a run
//! after it ends; this crate makes the *running* city scrapeable — the
//! serving-style operational surface the paper's OOO controller needs at
//! scale (you operate a 10k-agent simulation like a service, not a
//! batch job).
//!
//! The three pieces compose but don't require each other:
//!
//! - [`RunStatus`] + [`StatusServer`] — the server renders one run's
//!   [`RunStatus`], which wraps a
//!   [`Telemetry`](aim_core::telemetry::Telemetry) sink, a
//!   [`HealthBoard`](aim_core::health::HealthBoard) (empty when the run
//!   has no remote workers), a [`Watchdog`](aim_core::health::Watchdog),
//!   and an optional LLM backend (for fleet gauges). `RunStatus` is also
//!   the one place the Prometheus text exposition of `/metrics` is
//!   spelled.
//! - The server's background ticker checks the watchdog a few times a
//!   second, which is what lets it fire within its budget even when
//!   nobody is scraping.
//! - [`flight::write_crash_dump`] / [`flight::install_panic_hook`] dump
//!   the telemetry sink's retained span tail on the way down.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod flight;
mod http;
mod status;

pub use http::StatusServer;
pub use status::RunStatus;
