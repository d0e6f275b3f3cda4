//! Call-attempt observation: the hook a telemetry layer uses to watch
//! fleet traffic without this crate depending on it.
//!
//! `aim-llm` sits *below* the engine crates in the dependency order, so
//! the fleet cannot record into `aim-core`'s telemetry buffers directly.
//! Instead it exposes [`CallObserver`]: the engine installs an observer
//! via [`crate::LlmBackend::install_observer`], and the fleet reports
//! every *claimed attempt* — primaries, retries after a refusal, and
//! hedge backups alike — as a begin/end pair. The observer sees attempts
//! at the same granularity the fault gate does, so refused attempts
//! (which never reach a backend) are visible too.

use crate::request::LlmRequest;

/// How one claimed fleet attempt resolved (the observer-facing mirror of
/// [`crate::FaultOutcome`], after the backend ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AttemptOutcome {
    /// The backend ran and returned a response.
    Served,
    /// The fault gate failed the attempt permanently (replica down).
    Failed,
    /// The fault gate refused the attempt — a transient window, or a
    /// replica a racing claim has just taken down (retry elsewhere).
    Refused,
}

impl AttemptOutcome {
    /// Every outcome, in wire-index order (the telemetry codecs code an
    /// outcome by its position here).
    pub const ALL: [AttemptOutcome; 3] = [
        AttemptOutcome::Served,
        AttemptOutcome::Failed,
        AttemptOutcome::Refused,
    ];

    /// Stable lowercase name (used by telemetry exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptOutcome::Served => "served",
            AttemptOutcome::Failed => "failed",
            AttemptOutcome::Refused => "refused",
        }
    }
}

/// Observes every attempt a [`crate::Fleet`] claims against a replica.
///
/// `begin_attempt` runs *before* the fault gate and returns an opaque
/// token (typically a timestamp on the observer's own clock); the same
/// token comes back in `end_attempt` once the attempt resolves. Both
/// hooks run on the calling worker thread — or on a detached hedge
/// thread, possibly *after* the run that issued the call has finished —
/// so implementations must be lock-free or nearly so, and must tolerate
/// late calls.
pub trait CallObserver: Send + Sync {
    /// An attempt on `replica` was claimed for `req`; `hedge` marks
    /// attempts made on behalf of a hedge backup. Returns a token passed
    /// back to [`CallObserver::end_attempt`].
    fn begin_attempt(&self, req: &LlmRequest, replica: u32, hedge: bool) -> u64;

    /// The attempt begun with `token` resolved with `outcome`.
    fn end_attempt(
        &self,
        token: u64,
        req: &LlmRequest,
        replica: u32,
        hedge: bool,
        outcome: AttemptOutcome,
    );
}
