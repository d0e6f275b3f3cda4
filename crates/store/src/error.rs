use std::error::Error;
use std::fmt;

/// Errors returned by store operations.
///
/// All public fallible operations in this crate return [`StoreError`].
/// The type is `Send + Sync + 'static` so it can cross thread boundaries
/// and be boxed into `std::io::Error` if needed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An operation was refused with a message, applying nothing.
    ///
    /// A [`crate::Db::transaction`] body may return it to discard its
    /// batch; callers outside the store use it for operations they do not
    /// support (a dependency tracker without rollback refuses a squash
    /// with it).
    TxnAborted(String),
    /// A value could not be decoded as the requested type (e.g. an `incr`
    /// on a non-integer value).
    Codec(String),
    /// A filesystem operation on a snapshot file failed.
    ///
    /// Carries the rendered [`std::io::Error`]; the store keeps its error
    /// type `Clone + PartialEq`, which the raw `io::Error` is not.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TxnAborted(msg) => write!(f, "transaction aborted: {msg}"),
            StoreError::Codec(msg) => write!(f, "value codec error: {msg}"),
            StoreError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = StoreError::TxnAborted("no rollback".into());
        let s = e.to_string();
        assert!(s.starts_with("transaction aborted"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<StoreError>();
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", StoreError::Codec("x".into())).is_empty());
    }
}
