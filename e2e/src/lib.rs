//! End-to-end benchmark of the AI Metropolis reproduction.
//!
//! One run executes one workload for a given seed and run length, checks
//! that the out-of-order engine produced the lock-step world, and prints
//! either the end-to-end metrics or (traced) the per-layer metrics. See
//! `README.md` for the metrics, the workloads and the measurement method.

pub mod agree;
pub mod alloc;
pub mod calib;
pub mod host;
pub mod json;
pub mod layers;
pub mod run;
pub mod stats;
pub mod workload;

/// Every heap allocation of the process goes through the counting
/// allocator, so `host_allocs_per_agent_step` needs no PMU.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
