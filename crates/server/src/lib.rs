//! `adp-server`: a TCP front door for the ADP service.
//!
//! Three pieces, layered over [`adp_service::Service`]:
//!
//! - [`protocol`] — a length-prefixed, crc-checked binary wire format
//!   (magic `ADPW`) carrying solve, prepared-statement, mutation-batch,
//!   subscription, and stats traffic. Hand-rolled serialization on top
//!   of `adp_core::wire`; no external codec crates.
//! - [`server`] — a thread-per-connection TCP server with a bounded,
//!   blocking accept loop, per-request deadlines mapped onto
//!   `AdpOptions::deadline`, and mutations applied on the connection
//!   thread that received them, logged before the new epoch is
//!   visible. Overload, subscriber lag and a failed log append surface
//!   as typed error frames, not dropped connections.
//! - [`persist`] — an epoch-0 base snapshot plus a stable-id mutation
//!   log in a versioned, crc-checked binary format. Recovery replays
//!   the log through the ordinary O(Δ) apply path, so a restarted
//!   server resumes at the pre-crash epoch without re-ingesting base
//!   data.
//!
//! [`client`] is a small blocking client used by the test suites, the
//! open-loop load generator, and `adp-serverd --smoke`.

pub mod client;
pub mod persist;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, PushEvent};
pub use persist::{PersistError, Recovery, Store};
pub use protocol::{ErrorCode, ProtoError, Request, Response, WireSolve};
pub use server::{Server, ServerConfig};
