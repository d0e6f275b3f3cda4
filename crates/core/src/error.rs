use std::error::Error;
use std::fmt;

use aim_store::StoreError;

/// Errors surfaced by the engine's execution drivers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// A dependency-graph database operation failed.
    Store(StoreError),
    /// The scheduler stalled with unfinished agents — by construction this
    /// indicates a bug (the rules guarantee the minimum-step cluster is
    /// always eventually ready), so it is reported loudly rather than
    /// swallowed.
    Deadlock {
        /// Diagnostic description of the stalled state.
        detail: String,
    },
    /// Invalid engine configuration.
    Config(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "dependency store error: {e}"),
            EngineError::Deadlock { detail } => write!(f, "scheduler deadlock: {detail}"),
            EngineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Checkpoint hooks do snapshot file I/O; route those failures through
/// the store's error type so `?` works inside the hook.
impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Store(StoreError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EngineError::from(StoreError::Codec("bad record".into()));
        assert!(e.to_string().contains("dependency store error"));
        assert!(e.source().is_some());
        let d = EngineError::Deadlock { detail: "x".into() };
        assert!(d.to_string().contains("deadlock"));
        assert!(d.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<EngineError>();
    }
}
