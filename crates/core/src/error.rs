//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, RocError>;

/// Errors surfaced by the I/O libraries, the data format, the component
/// framework, and the simulation substrates.
#[derive(Debug, Clone, PartialEq)]
pub enum RocError {
    /// A named entity (window, attribute, pane, dataset, file…) was not found.
    NotFound(String),
    /// An entity was registered twice under the same name/id.
    AlreadyExists(String),
    /// Structural mismatch: wrong dtype, wrong shape, schema violation.
    Mismatch(String),
    /// Malformed bytes while decoding a file or a wire message.
    Corrupt(String),
    /// An operation was invoked in a state that does not permit it.
    InvalidState(String),
    /// The communication fabric failed (peer gone, communicator torn down).
    Comm(String),
    /// The storage layer failed (no such file, out of space in a quota'd run).
    Storage(String),
    /// Configuration rejected (e.g. zero servers requested for Rocpanda).
    Config(String),
    /// A structured multi-tenant service failure: admission, quota, drain.
    ///
    /// Carries the tenant and a typed kind so callers can distinguish
    /// "quota exceeded" from "fabric fault" without string matching.
    Service(crate::tenant::ServiceError),
}

impl RocError {
    /// The structured service failure inside, if this is one.
    pub fn as_service(&self) -> Option<&crate::tenant::ServiceError> {
        match self {
            RocError::Service(se) => Some(se),
            _ => None,
        }
    }
}

impl fmt::Display for RocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RocError::NotFound(s) => write!(f, "not found: {s}"),
            RocError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            RocError::Mismatch(s) => write!(f, "mismatch: {s}"),
            RocError::Corrupt(s) => write!(f, "corrupt data: {s}"),
            RocError::InvalidState(s) => write!(f, "invalid state: {s}"),
            RocError::Comm(s) => write!(f, "communication error: {s}"),
            RocError::Storage(s) => write!(f, "storage error: {s}"),
            RocError::Config(s) => write!(f, "configuration error: {s}"),
            RocError::Service(se) => write!(f, "service error: {se}"),
        }
    }
}

impl std::error::Error for RocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_detail() {
        let e = RocError::NotFound("window 'fluid'".into());
        assert_eq!(e.to_string(), "not found: window 'fluid'");
        let e = RocError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("corrupt"));
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RocError>();
    }

    #[test]
    fn result_alias_works() {
        fn f(ok: bool) -> Result<u32> {
            if ok {
                Ok(7)
            } else {
                Err(RocError::InvalidState("nope".into()))
            }
        }
        assert_eq!(f(true).unwrap(), 7);
        assert!(f(false).is_err());
    }
}
