//! The service's error type: one enum covering every way a request can
//! fail, so callers (and load generators) can branch on kind without
//! string matching.

use adp_core::error::{QueryError, SolveError};
use adp_engine::error::AdpError;
use std::fmt;

/// Errors returned by [`Service`](crate::Service) entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request's query text failed to parse or validate.
    Query(QueryError),
    /// The solver rejected or failed the request.
    Solve(SolveError),
    /// Admission control shed the request
    /// ([`AdpError::Overloaded`]): the bounded queue was full, so the
    /// request was rejected immediately instead of queued behind an
    /// unbounded backlog. Retry later or raise
    /// [`ServiceConfig::max_in_flight`](crate::ServiceConfig::max_in_flight).
    Admission(AdpError),
    /// Malformed request parameters (e.g. a non-finite removal ratio)
    /// or an epoch batch referencing an unknown relation / out-of-range
    /// tuple. The message names the offending value.
    BadRequest(String),
    /// The mutation log refused a batch
    /// ([`Service::apply_logged`](crate::Service::apply_logged)), so
    /// the batch was not applied. The message is the log's error.
    Log(String),
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Query(e)
    }
}

impl From<SolveError> for ServiceError {
    fn from(e: SolveError) -> Self {
        ServiceError::Solve(e)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Query(e) => write!(f, "bad query: {e}"),
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
            ServiceError::Admission(e) => write!(f, "{e}"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Log(msg) => write!(f, "mutation log failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// True if this is the admission-control shed
    /// ([`AdpError::Overloaded`]); such requests are safe to retry.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServiceError::Admission(AdpError::Overloaded { .. }))
    }
}
