//! # aim-core
//!
//! The AI Metropolis engine: **out-of-order execution scheduling for
//! LLM-powered multi-agent simulation** (MLSys 2025 reproduction).
//!
//! Traditional agent simulations advance in lock step: every agent's step
//! must finish before anyone starts the next (Algorithm 1 of the paper),
//! which creates *false dependencies* between agents that could not
//! possibly observe each other, starving the LLM serving engine of
//! concurrent requests. AI Metropolis removes those false dependencies by
//! tracking agents' *spatiotemporal* relationships at runtime — like a
//! scoreboard in an out-of-order processor — and letting sufficiently
//! isolated agents run ahead in simulation time without ever violating
//! temporal causality.
//!
//! The crate is organized around five mechanisms, each mapping to a paper
//! section:
//!
//! | module | paper | provides |
//! |---|---|---|
//! | [`rules`] | §3.2, App. A | the coupled/blocked predicates and validity condition |
//! | [`depgraph`] | §3.3 | store-backed spatiotemporal dependency graph |
//! | [`shard`] | scale-out | spatially sharded dependency tracking for 10k+ agents |
//! | [`scheduler`] | §3.1, §3.4 | the controller state machine; grows each ready cluster of coupled agents from the tracker's coupling edges |
//! | [`exec`] | §3.5–3.6 | discrete-event (replay) and threaded (live) drivers |
//!
//! plus [`policy`] (the evaluation's baselines: `parallel-sync`, `oracle`,
//! `no-dependency`), [`cluster`] (the union-find behind the oracle's
//! interaction components), [`space`] (grid and social-network metrics),
//! [`workload`] (trace replay interface), [`metrics`] (run reports),
//! [`spec`] (the §6 future-work design: speculative execution with race
//! detection and rollback), and [`engine`] (a one-stop facade).
//!
//! # Scaling past 1k agents
//!
//! The dependency-tracking loop stays sub-quadratic through two
//! structures documented in their modules: the uniform-grid spatial
//! index of [`space`] (the multi-resolution [`space::SpatialIndex`]
//! behind every neighbourhood query) and the incremental blocked/coupled
//! edge maintenance of [`depgraph`] (only edges incident to agents that
//! moved are repaired per commit; queries serve from adjacency without
//! allocating). Both preserve *exactness* — every index candidate is
//! re-checked with [`space::Space::within_units`], so spatial indexing
//! can never flip a scheduling decision, only make it cheaper.
//!
//! Past 10k agents, [`shard`] partitions the tracker itself:
//! [`shard::ShardedDepGraph`] owns agents by spatial region (strips,
//! rebalanced on migration), keeps per-shard indexes and *step bounds*,
//! prunes relink queries with them — a spatially local straggler no
//! longer inflates every query radius on the map — and relinks large
//! batches in parallel across shards. The [`scheduler::Scheduler`] is
//! generic over its [`depgraph::DepTracker`], so both trackers drive
//! the same state machine and executors unchanged.
//!
//! # Quick start
//!
//! ```
//! use aim_core::prelude::*;
//! use aim_llm::{presets, ServerConfig};
//! use aim_core::workload::CallSpec;
//! use aim_llm::CallKind;
//!
//! // A trivial replayable workload: two far-apart agents, two steps, one
//! // call each step.
//! struct Demo;
//! impl Workload<Point> for Demo {
//!     fn num_agents(&self) -> usize { 2 }
//!     fn target_step(&self) -> Step { Step(2) }
//!     fn initial_pos(&self, a: AgentId) -> Point { Point::new(a.0 as i32 * 60, 0) }
//!     fn calls(&self, _: AgentId, _: Step) -> Vec<CallSpec> {
//!         vec![CallSpec::new(128, 16, CallKind::Plan)]
//!     }
//!     fn pos_after(&self, a: AgentId, _: Step) -> Point { self.initial_pos(a) }
//! }
//!
//! # fn main() -> Result<(), EngineError> {
//! let engine = Engine::builder(GridSpace::new(100, 140))
//!     .policy(DependencyPolicy::Spatiotemporal)
//!     .server(ServerConfig::from_preset(presets::tiny_test(), 1, true))
//!     .build();
//! let report = engine.run_replay(&Demo)?;
//! assert_eq!(report.total_calls, 4);
//! println!("finished in {} with parallelism {:.2}",
//!          report.makespan, report.achieved_parallelism);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod cluster;
pub mod depgraph;
pub mod dist;
mod edges;
pub mod engine;
mod error;
pub mod exec;
pub mod health;
mod ids;
pub mod metrics;
pub mod policy;
pub mod rules;
pub mod scheduler;
pub mod shard;
pub mod space;
pub mod spec;
mod step_counts;
pub mod telemetry;
pub mod workload;

pub use engine::{Engine, EngineBuilder};
pub use error::EngineError;
pub use ids::{AgentId, ClusterId, Step};

/// The commonly used names, for glob import in examples and tests.
pub mod prelude {
    pub use crate::checkpoint::CheckpointMeta;
    pub use crate::depgraph::DepTracker;
    pub use crate::dist::{DistTracker, ShardWorker};
    pub use crate::engine::{Engine, EngineBuilder};
    pub use crate::error::EngineError;
    pub use crate::exec::hybrid::{run_hybrid_sim, InteractiveLoad, InteractiveReport};
    pub use crate::exec::sim::{run_sim, SimConfig};
    pub use crate::exec::threaded::{
        run_threaded_observed, CheckpointHook, ClusterProgram, ThreadedConfig, ThreadedReport,
    };
    pub use crate::health::{HealthBoard, StallReport, Watchdog, WorkerHealth};
    pub use crate::ids::{AgentId, ClusterId, Step};
    pub use crate::metrics::{RunReport, Timeline};
    pub use crate::policy::{DependencyPolicy, OracleGraph};
    pub use crate::rules::RuleParams;
    pub use crate::scheduler::{Cluster, Scheduler};
    pub use crate::shard::{ShardMap, ShardedDepGraph, StripShardMap};
    pub use crate::space::{GridSpace, NodeId, Point, SocialSpace, Space};
    pub use crate::spec::{run_spec_sim, SpecParams, SpecReport, SpecScheduler, SpecStats};
    pub use crate::telemetry::{
        Decomposition, Phase, PhaseHistogram, RunTelemetry, Span, SpanKind, StallEdge, Telemetry,
    };
    pub use crate::workload::Workload;
}
