//! Execution drivers for the scheduler state machine.
//!
//! Virtual time has **one** event loop, the crate-private `kernel`
//! module, whose module doc holds the event-order contract every report
//! is a function of. Three entry points mount it:
//!
//! * [`sim`] — the conservative [`crate::scheduler::Scheduler`] against
//!   [`aim_llm::SimServer`]; this is the paper's replay-mode benchmark
//!   path (§4.1) and what all experiments use.
//! * [`spec_sim`] — the *speculative* scheduler ([`crate::spec`]):
//!   poisoned results are discarded and re-executed, and the wasted LLM
//!   work is accounted in the report.
//! * [`hybrid`] — background replay plus an injected latency-critical
//!   interactive request stream on the same serving engine (§6's hybrid
//!   interactive/offline deployment).
//!
//! Wall-clock time has its own driver:
//!
//! * [`threaded`] — a real controller/worker runtime over OS threads and
//!   blocking [`aim_llm::LlmBackend`] calls; Algorithm 3 in the flesh
//!   (workers pull ready clusters, run the members' steps, commit,
//!   acknowledge). Every member of a cluster can be blocked in the
//!   backend at the same time, each on its own thread; steps that do not
//!   block share threads, so nothing is spawned per agent-step.

mod crew;
pub mod hybrid;
pub(crate) mod kernel;
pub mod sim;
pub mod spec_sim;
pub mod threaded;
