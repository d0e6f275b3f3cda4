//! Distributed shards: isolated workers behind a typed message boundary.
//!
//! [`crate::shard::ShardedDepGraph`] shards the dependency graph inside
//! one address space — shard state lives behind `&mut self` and the
//! "protocol" in its module docs is an argument about which state each
//! boundary operation may touch. This module makes that protocol
//! **load-bearing**: each shard becomes a [`ShardWorker`] owning its
//! members and its *own* [`aim_store::Db`] instance, and the
//! controller-side [`DistTracker`] may only reach it
//! through the [`msg::CtrlMsg`] / [`msg::ShardMsg`] request–reply
//! protocol. No memory is shared between workers or with the controller
//! (the one observability-only exception is the [`SharedTelemetry`]
//! cell), so the exactness argument now rests on the message types
//! alone.
//!
//! Nothing of the tracker itself is re-implemented here: [`DistTracker`]
//! is the crate's one tracker — the committed-state mirror every tracker
//! keeps, answering every scheduling query and repairing edges exactly as
//! [`crate::depgraph::DepGraph`] does — with the workers' lanes as its
//! sink, and the mirror's partition following the workers' membership.
//! Each worker is a protocol shell around the store core the in-process
//! graph writes through: the core writes, rewrites on a squash and
//! evicts the authoritative records, and the shell keeps its members'
//! states and, per agent, the steps of the history records its store
//! holds, so a departure reads just the departing agents' records. It
//! answers relink probes by classifying every member with the same rule
//! classification, which the invariant check uses to hold the mirror's
//! adjacency to the workers' ground truth. The three trackers are
//! therefore edge-for-edge and record-for-record identical by
//! construction; what this module adds is the boundary.
//!
//! What the boundary costs is the wake-up of the thread (or process) on
//! the other side, not the bytes, and scheduling needs nothing a worker
//! knows, so workers only receive writes and the controller does not
//! wait for them. Writes queue per worker, with the controller's own
//! copy held in doubt, and cross in **hand-offs**: everything queued is
//! delivered as one unit, applied in order, and answered as one unit
//! ([`WorkerLink`]); the worker writes each run of consecutive commits
//! in it as one store batch ([`ShardWorker::handle_all`]). A worker is
//! handed its queue once it holds
//! [`WINDOW`] requests, when one of its agents migrates out (the one
//! blocking round: the controller needs the departed records), and at
//! the quiesce points — eviction, harvest, heartbeat polls, the
//! invariant check, a respawn, the store readers and `Drop` (see
//! [`DistTracker`] for the rule and for what a failed call leaves
//! behind).
//!
//! Two transports implement the boundary:
//!
//! - **Phase 1 (always on):** [`ChannelLink`] — each worker is a thread
//!   driven over in-process channels. [`DistTracker`] implements
//!   [`crate::depgraph::DepTracker`], so
//!   [`crate::scheduler::Scheduler`] and both executors drive it
//!   unchanged;
//!   the property suite proves it world-for-world equal to the
//!   single-shard oracle.
//! - **Phase 2 (`dist-socket` feature):** the [`codec`] module frames
//!   every message as `AIMMSG v1` bytes, and the feature-gated `socket`
//!   module carries those frames over a TCP stream so a worker can run
//!   in a **separate process** (`socket::SocketLink` on the controller
//!   side, `socket::serve_connection` worker side).
//!
//! Because every worker keeps the authoritative `dagt`/`dhst` records
//! for its members in its own store (byte-identical to the single-shard
//! layout), a crashed worker is recoverable from its database alone:
//! [`DistTracker::kill_worker`] severs a link,
//! [`DistTracker::respawn_worker`] heals it through the
//! [`msg::CtrlMsg::Recover`] handshake.

pub mod codec;
pub mod msg;
#[cfg(feature = "dist-socket")]
pub mod socket;
mod tracker;
pub(crate) mod worker;

pub use msg::{CtrlMsg, NodeRecord, Probe, ShardMsg, WireEdge};
pub use tracker::{DistTracker, WINDOW};
pub use worker::{
    ChannelLink, SeveredLink, ShardWorker, SharedTelemetry, TelemetryCell, WorkerLink,
};
