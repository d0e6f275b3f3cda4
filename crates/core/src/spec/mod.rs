//! Speculative execution with race detection and rollback (paper §6).
//!
//! The conservative rules of §3.2 *over-approximate* dependencies: an
//! agent is blocked whenever a lagging agent **could** reach its read
//! region, even though most laggards never do. The paper leaves closing
//! that gap as future work ("introducing speculative execution with race
//! detection could potentially bridge this gap") and quantifies the
//! available headroom with its `oracle` arm. This module implements that
//! future-work design as an optimistic, Time-Warp-style scheduler:
//!
//! * **Run ahead.** A cluster that the conservative rules would block may
//!   execute anyway, up to [`SpecParams::max_runahead`] unvalidated steps
//!   per agent. Each optimistic execution is recorded as a *speculative
//!   entry* carrying the positions it read and the cluster it ran in.
//! * **Detect races.** Whenever a lagging cluster commits step `s`, every
//!   live speculative entry at step `≥ s` whose read region (perception
//!   ball of radius `radius_p`) overlaps the committed write region
//!   (movement ball of radius `max_vel`) has consumed stale state — a
//!   read-after-write hazard materialized. Reads of *future* state
//!   (an agent perceiving a neighbor that speculatively ran ahead) are
//!   prevented at emission time by squashing run-ahead state out of the
//!   reader's perception region first.
//! * **Squash and re-execute.** A raced entry is discarded: the agent's
//!   dependency-graph state rolls back to the raced step, cluster
//!   partners of discarded steps roll back with it, and executions that
//!   *observed* discarded state are invalidated transitively (the
//!   anti-message cascade of optimistic PDES). In-flight executions hit
//!   by a squash are poisoned and their results dropped on completion —
//!   never preempted mid-inference, matching §3.5.
//! * **Retire.** An entry becomes final once no agent at a step `≤` its
//!   own can still write into its read region — exactly the §3.2
//!   blocking clearance — and all state it read has itself retired. Once
//!   every agent reaches the target step with all entries retired, the
//!   simulation outcome is identical to the conservative schedule's.
//!
//! The hazard model matches §3.2 and Appendix A: during step `s` an agent
//! reads `ball(start, radius_p)` and writes `ball(start, max_vel)`, so
//! two executions at steps `s_w < s_r` conflict iff their start positions
//! are within `radius_p + max_vel` — the same threshold as coupling.
//!
//! # What this layer adds
//!
//! Speculation is not a second scheduler. Agent states, the dirty set,
//! the watcher table, cluster growth, emission, the completion check and
//! requeue-and-wake are the conservative [`crate::scheduler::Scheduler`]'s
//! own crate-private core, which [`SpecScheduler`] holds too; §6 changes
//! only what happens to a cluster the §3.2 rules would block. So this
//! module adds emission vetting, the in-flight index, the [`EntryTable`]
//! of unretired executions, the squash cascade, retirement and
//! [`SpecStats`] — and with [`SpecParams::conservative`] it emits the
//! conservative schedule verbatim. Like the conservative scheduler it is
//! generic over its [`DepTracker`](crate::depgraph::DepTracker):
//! [`SpecScheduler::new`] mounts a [`DepGraph`](crate::depgraph::DepGraph)
//! and [`SpecScheduler::from_graph`] any tracker that implements
//! [`rollback`](crate::depgraph::DepTracker::rollback) and answers
//! [`candidates_within`](crate::depgraph::DepTracker::candidates_within)
//! from its own index — the [`ShardedDepGraph`](crate::shard::ShardedDepGraph)
//! among them, with an identical schedule.
//!
//! Replayed workloads ([`crate::workload::Workload`]) are deterministic,
//! so re-execution reproduces the conservative outcome bit-for-bit and
//! the *cost* of speculation is isolated: wasted LLM calls for squashed
//! work against shorter completion time from the extra parallelism.
//! [`run_spec_sim`] measures both, on the same virtual-time event loop
//! as the conservative [`crate::exec::sim::run_sim`] — speculation is
//! two accounting hooks in that loop, not a loop of its own.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use aim_core::prelude::*;
//! use aim_core::spec::{SpecParams, SpecScheduler};
//! use aim_store::Db;
//!
//! # fn main() -> Result<(), aim_store::StoreError> {
//! let space = Arc::new(GridSpace::new(100, 140));
//! // Two agents 10 apart: decoupled, but close enough that the
//! // conservative rules would soon block the one running ahead.
//! let initial = vec![Point::new(0, 0), Point::new(10, 0)];
//! let mut sched = SpecScheduler::new(
//!     space,
//!     RuleParams::genagent(),
//!     SpecParams::new(4),
//!     Arc::new(Db::new()),
//!     &initial,
//!     Step(8),
//! )?;
//! let ready = sched.ready_clusters()?;
//! assert_eq!(ready.len(), 2, "both agents start out ready");
//! # Ok(())
//! # }
//! ```

mod scheduler;
mod table;

pub use scheduler::{CommitOutcome, SpecScheduler};
pub use table::{EntryTable, SpecEntry};

#[doc(inline)]
pub use crate::exec::spec_sim::run_spec_sim;

use serde::{Deserialize, Serialize};

/// Tuning knobs of the speculative scheduler.
///
/// # Example
///
/// ```
/// use aim_core::spec::SpecParams;
///
/// let p = SpecParams::new(4);
/// assert_eq!(p.max_runahead, 4);
/// assert!(p.speculation_enabled());
/// assert!(!SpecParams::conservative().speculation_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpecParams {
    /// Maximum *unretired* speculative entries an agent may accumulate
    /// before a blocked cluster must wait instead of running ahead.
    /// `0` disables speculation entirely, reproducing the conservative
    /// §3.2 schedule.
    pub max_runahead: u32,
}

impl SpecParams {
    /// Creates parameters with the given run-ahead budget.
    pub fn new(max_runahead: u32) -> Self {
        SpecParams { max_runahead }
    }

    /// Speculation disabled: behaves like [`crate::scheduler::Scheduler`]
    /// with [`crate::policy::DependencyPolicy::Spatiotemporal`].
    pub fn conservative() -> Self {
        SpecParams { max_runahead: 0 }
    }

    /// Whether blocked clusters may run ahead at all.
    pub fn speculation_enabled(&self) -> bool {
        self.max_runahead > 0
    }
}

impl Default for SpecParams {
    /// A moderate budget (4 steps) that captures most of the oracle gap
    /// in the GenAgent workloads without unbounded rollback exposure.
    fn default() -> Self {
        SpecParams { max_runahead: 4 }
    }
}

/// Counters describing a speculative run (see [`SpecScheduler::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SpecStats {
    /// Clusters emitted while unblocked (the conservative path).
    pub emitted_firm: u64,
    /// Clusters emitted while blocked (optimistic run-ahead).
    pub emitted_spec: u64,
    /// Total members across emitted clusters (= agent-step executions,
    /// including executions later squashed and re-run).
    pub agent_steps: u64,
    /// Committed agent-step executions discarded by a squash.
    pub squashed_steps: u64,
    /// In-flight executions whose results were dropped on completion.
    pub poisoned_clusters: u64,
    /// Total member agent-steps across poisoned executions (each re-runs).
    pub poisoned_steps: u64,
    /// Agent-step executions validated as final.
    pub retired_steps: u64,
    /// Emissions deferred because a same-step cluster was already in
    /// flight within coupling range.
    pub deferrals: u64,
    /// Blocked clusters denied speculation (budget exhausted or post-
    /// squash cooldown) that had to wait conservatively.
    pub spec_denied: u64,
    /// Largest number of live (unretired) entries observed at once.
    pub max_live_entries: u32,
    /// Maximum observed step skew (max step − min step over agents).
    pub max_step_skew: u32,
    /// Largest cluster emitted.
    pub max_cluster_size: u32,
}

/// Speculation outcome of one executed run: scheduler counters plus the
/// executor-side accounting of wasted LLM work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SpecReport {
    /// Scheduler-side counters.
    pub stats: SpecStats,
    /// LLM calls issued for executions that were later discarded.
    pub wasted_calls: u64,
    /// Prompt tokens of discarded executions.
    pub wasted_input_tokens: u64,
    /// Generated tokens of discarded executions.
    pub wasted_output_tokens: u64,
}

impl SpecReport {
    /// Wasted fraction of all issued tokens (prompt + generation).
    pub fn waste_fraction(&self, total_input: u64, total_output: u64) -> f64 {
        let total = total_input + total_output;
        if total == 0 {
            return 0.0;
        }
        (self.wasted_input_tokens + self.wasted_output_tokens) as f64 / total as f64
    }
}

impl SpecStats {
    /// Fraction of emitted executions that were later discarded
    /// (squashed commits plus poisoned in-flight results).
    pub fn waste_ratio(&self) -> f64 {
        if self.agent_steps == 0 {
            return 0.0;
        }
        (self.squashed_steps + self.poisoned_clusters) as f64 / self.agent_steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_constructors() {
        assert_eq!(SpecParams::default().max_runahead, 4);
        assert_eq!(SpecParams::conservative(), SpecParams::new(0));
        assert!(SpecParams::new(1).speculation_enabled());
    }

    #[test]
    fn waste_ratio_counts_squashed_and_poisoned() {
        let mut s = SpecStats::default();
        assert_eq!(s.waste_ratio(), 0.0);
        s.agent_steps = 10;
        s.squashed_steps = 1;
        s.poisoned_clusters = 1;
        assert!((s.waste_ratio() - 0.2).abs() < 1e-12);
    }
}
