//! # aim-llm
//!
//! LLM serving for AI Metropolis: request/response types, an analytical
//! cost model, a **virtual-time continuous-batching serving simulator**, and
//! the [`LlmBackend`] trait for plugging real engines into the threaded
//! runtime.
//!
//! The AI Metropolis paper (§4.1) evaluates against SGLang running Llama-3
//! 8B/70B and Mixtral 8×7B on NVIDIA L4 and A100 GPUs. Those GPUs are not
//! available here, so this crate substitutes a *simulated* serving engine
//! ([`SimServer`]) that reproduces the performance characteristics the
//! scheduler interacts with:
//!
//! * **iteration-level continuous batching** (Orca/vLLM/SGLang style): each
//!   engine iteration decodes every running sequence once and processes a
//!   bounded chunk of pending prefill;
//! * a **concave throughput-vs-batch curve**: iterations have a latency
//!   floor (weight streaming, [`CostModel::iter_floor_us`]) so small batches
//!   underutilize the GPU and throughput saturates around
//!   [`CostModel::saturation_batch`] — this is exactly why the paper's
//!   out-of-order scheduling wins by raising concurrency;
//! * **priority admission without preemption** (§3.5): pending requests are
//!   admitted lowest-simulation-step first when priorities are enabled,
//!   FIFO otherwise;
//! * **data parallelism** across replicas with shortest-queue routing, and
//!   tensor-parallel presets whose cost models fold in TP efficiency;
//! * **KV-cache capacity** limits with reserve-on-admit accounting.
//!
//! The simulator reports *runs*, not iterations: a pure-decode batch with
//! nothing admissible at its boundaries repeats the same iteration until
//! its first sequence completes, so the whole run is one event
//! ([`SimServer::next_event`]), cut short only by a submit that could join
//! the batch. Its driver advances to each `next_event` before submitting
//! later; a boundary at or before the last `advance` has passed, so a
//! request submitted there waits for the next one. Every completion,
//! admission and counter is what stepping one iteration at a time would
//! produce.
//!
//! Calibrated hardware/model presets live in [`presets`]; each documents the
//! arithmetic tying it to public hardware numbers.
//!
//! # Serving fleets
//!
//! Beyond the single simulated engine, this crate models **heterogeneous
//! serving fleets** — the deployment shape massive-agent workloads
//! actually run on. The layering is:
//!
//! 1. **backend trait** — [`LlmBackend`] is the unit of serving capacity:
//!    [`InstantBackend`], [`RealtimeSimBackend`] (a [`SimServer`] paced
//!    against the wall clock), and [`ReplayBackend`] (latencies sampled
//!    from a recorded [`LatencyProfile`], e.g. exported by `trace_tool
//!    latency`);
//! 2. **replica** — a [`ReplicaSpec`] wraps one backend plus fleet-level
//!    tags (e.g. `interactive` for dedicated player-facing capacity) and
//!    an optional `fail_after` budget ([`ReplicaSpec::fail_after`]: the
//!    replica fails for good after N attempts, checked at the fleet layer
//!    *before* the backend runs so retries are always state-safe);
//! 3. **router** — a [`RoutePolicyKind`] (round-robin, least-outstanding,
//!    token-weighted, lane-aware, prefix-affinity) picks the replica for
//!    each request from live [`ReplicaView`]s (which carry availability,
//!    so failed replicas shed load);
//! 4. **fleet** — [`Fleet`] owns the replicas and the policy, re-routes
//!    the attempt that takes a replica down, keeps per-replica prefix-cache
//!    ([`PrefixTracker`]) and latency counters, and is itself an
//!    [`LlmBackend`], so the threaded runtime drives a mixed fleet
//!    exactly like a single engine.
//!
//! # Example: a mixed fleet of a simulated engine and a latency replay
//!
//! ```
//! use aim_llm::{
//!     presets, CallKind, FleetConfig, LatencyProfile, LlmBackend, LlmRequest, ReplicaSpec,
//!     RequestId, RoutePolicyKind, ServerConfig,
//! };
//!
//! let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
//! let fleet = FleetConfig::new("demo", RoutePolicyKind::RoundRobin)
//!     .with_replica(ReplicaSpec::sim(sim, 1_000_000.0))
//!     .with_replica(ReplicaSpec::replay(LatencyProfile::constant("prod", 50), 7, None))
//!     .build();
//! for i in 0..4 {
//!     fleet.call(&LlmRequest::new(RequestId(i), i as u32, 0, 64, 8, CallKind::Plan));
//! }
//! let metrics = fleet.metrics();
//! assert_eq!(metrics.total_served(), 4);
//! assert!(metrics.all_replicas_served(), "round-robin hits every replica");
//! ```
//!
//! # Example: simulate a burst of requests
//!
//! ```
//! use aim_llm::{presets, CallKind, LlmRequest, RequestId, ServerConfig, SimServer, VirtualTime};
//!
//! let cfg = ServerConfig::from_preset(presets::l4_llama3_8b(), 1, true);
//! let mut server = SimServer::new(cfg);
//! for i in 0..8 {
//!     server.submit(
//!         VirtualTime::ZERO,
//!         LlmRequest::new(RequestId(i), i as u32, 0, 640, 22, CallKind::Plan),
//!     );
//! }
//! let mut done = Vec::new();
//! while let Some(t) = server.next_event() {
//!     server.advance(t, &mut done);
//! }
//! assert_eq!(done.len(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod backend;
mod cost;
mod fleet;
mod observer;
mod prefix;
pub mod presets;
mod replay;
mod request;
mod router;
mod server;
mod time;

pub use backend::{InstantBackend, LlmBackend, RealtimeSimBackend};
pub use cost::CostModel;
pub use fleet::{BackendSpec, Fleet, FleetConfig, FleetMetrics, FleetReplicaMetrics, ReplicaSpec};
pub use observer::{AttemptOutcome, CallObserver};
pub use prefix::{PrefixLru, PrefixStats, PrefixTracker};
pub use presets::Preset;
pub use replay::{LatencyProfile, ReplayBackend, ReplayMetrics};
pub use request::{CallKind, Lane, LlmRequest, LlmResponse, RequestId};
pub use router::{ReplicaView, RoutePolicyKind};
pub use server::{Completion, ReplicaMetrics, ServerConfig, ServerMetrics, SimServer};
pub use time::VirtualTime;
