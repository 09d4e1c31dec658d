//! Process-wide counters for the query-text front door.
//!
//! The v2 prepared-statement contract promises that a bound
//! [`Statement`]'s hot path performs **zero** query-text work per call:
//! no parse, no normalization, no text fingerprint. Promises about
//! *absence* of work are easy to regress silently, so the three
//! text-path operations tick a relaxed atomic each time they run:
//!
//! * [`parses`] — [`parse_query`](super::parse_query) invocations;
//! * [`normalizations`] — [`Query::normalized_text`](super::Query::normalized_text)
//!   renders (including the one inside every fingerprint);
//! * [`fingerprints`] — [`Query::fingerprint`](super::Query::fingerprint)
//!   FNV-1a runs over the normalized text.
//!
//! The counters are monotone process-wide tallies (never reset, never
//! used for synchronization); consumers assert on **deltas** around a
//! region of interest. The `statement_hot_path` integration test pins
//! the zero-work contract with them; the repository benchmark's
//! `hot_read` workload times the statement path end to end. A relaxed
//! `fetch_add` on an uncontended cache line is a nanosecond-scale cost,
//! which is why they can stay always-on instead of feature-gated.
//!
//! [`Statement`]: https://docs.rs/adp-service

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) static PARSES: AtomicU64 = AtomicU64::new(0);
pub(crate) static NORMALIZATIONS: AtomicU64 = AtomicU64::new(0);
pub(crate) static FINGERPRINTS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Total [`parse_query`](super::parse_query) calls in this process.
pub fn parses() -> u64 {
    PARSES.load(Ordering::Relaxed)
}

/// Total [`Query::normalized_text`](super::Query::normalized_text)
/// renders in this process (fingerprinting normalizes too, so every
/// fingerprint also counts here).
pub fn normalizations() -> u64 {
    NORMALIZATIONS.load(Ordering::Relaxed)
}

/// Total [`Query::fingerprint`](super::Query::fingerprint) hashes in
/// this process.
pub fn fingerprints() -> u64 {
    FINGERPRINTS.load(Ordering::Relaxed)
}

/// One consistent snapshot of all three counters, for delta assertions:
/// `let before = text_work(); ...; assert_eq!(text_work(), before);`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TextWork {
    /// [`parses`] at snapshot time.
    pub parses: u64,
    /// [`normalizations`] at snapshot time.
    pub normalizations: u64,
    /// [`fingerprints`] at snapshot time.
    pub fingerprints: u64,
}

/// Snapshots the text-path counters.
pub fn text_work() -> TextWork {
    TextWork {
        parses: parses(),
        normalizations: normalizations(),
        fingerprints: fingerprints(),
    }
}
