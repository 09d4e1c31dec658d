//! Service-wide counters, updated with relaxed atomics on the request
//! path and snapshotted into a plain struct for callers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters. Relaxed ordering everywhere: the counters
/// are monotone tallies, never used to synchronize data.
#[derive(Default)]
pub(crate) struct StatsInner {
    pub requests: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub shed: AtomicU64,
    pub epoch_bumps: AtomicU64,
    pub invalidated: AtomicU64,
    pub evicted: AtomicU64,
    pub updates_pushed: AtomicU64,
    pub lagged_drops: AtomicU64,
    pub shared_delta_applications: AtomicU64,
    pub subscriptions_live: AtomicU64,
    pub solved: AtomicU64,
    pub truncated: AtomicU64,
    pub peak_queue_depth: AtomicU64,
}

impl StatsInner {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// For the gauge-style counters (currently only
    /// `subscriptions_live`), which go down as well as up.
    pub fn sub(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Raises `peak_queue_depth` to `depth` if it exceeds the recorded
    /// high-water mark. Called after every successful admission.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// `queue_now` is the caller-observed in-flight count at snapshot
    /// time; it lives on the `Service`, not in these counters.
    pub fn snapshot(&self, queue_now: u64) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            epoch_bumps: self.epoch_bumps.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            updates_pushed: self.updates_pushed.load(Ordering::Relaxed),
            lagged_drops: self.lagged_drops.load(Ordering::Relaxed),
            shared_delta_applications: self.shared_delta_applications.load(Ordering::Relaxed),
            subscriptions_live: self.subscriptions_live.load(Ordering::Relaxed),
            solved: self.solved.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            queue_depth_now: queue_now,
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the service counters.
///
/// Accounting invariant (asserted by the stress suite): every admitted
/// request performs exactly one plan lookup, so
/// `cache_hits + cache_misses == requests` whenever the service is
/// quiescent. Shed requests (`shed`) never reach a plan and are not
/// part of `requests`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted past the bounded queue (== plan lookups).
    pub requests: u64,
    /// Plan hits: the request reused the plan its query's record had
    /// bound at its epoch.
    pub cache_hits: u64,
    /// Plan misses: the request planned its epoch.
    pub cache_misses: u64,
    /// Requests shed by admission control with
    /// [`AdpError::Overloaded`](adp_engine::error::AdpError::Overloaded).
    pub shed: u64,
    /// Epoch bumps applied (delete/restore batches).
    pub epoch_bumps: u64,
    /// Epoch plans the post-bump sweep unbound as stale.
    pub invalidated: u64,
    /// Plan records dropped by LRU capacity pressure.
    pub evicted: u64,
    /// [`ViewUpdate`](crate::ViewUpdate)s successfully delivered to
    /// subscriber channels.
    pub updates_pushed: u64,
    /// Updates dropped because a subscriber's bounded buffer was full
    /// (the subscriber learns their `seq`s from the next delivered
    /// update's [`Lagged`](crate::Lagged) marker).
    pub lagged_drops: u64,
    /// Batch advances of pooled greedy states by subscription groups.
    /// Each row-producing group moves its statement's state (the one
    /// pull solves also use) to the new dead set once per effective
    /// batch, however many subscribers it has, so this grows by the
    /// number of row *groups*, not subscribers, per batch (asserted in
    /// tests). Boolean groups advance nothing.
    pub shared_delta_applications: u64,
    /// Currently registered subscriptions — a gauge, not a tally: it
    /// falls on [`unsubscribe`](crate::Service::unsubscribe) and when a
    /// dropped receiver is reaped.
    pub subscriptions_live: u64,
    /// Requests that completed with a full (non-truncated) outcome.
    /// With `truncated` and `shed` this partitions every request's
    /// fate, so a load generator can report shed rate and goodput
    /// without scraping individual responses.
    pub solved: u64,
    /// Requests that completed but hit their deadline/budget and
    /// returned a truncated outcome.
    pub truncated: u64,
    /// Requests in flight at the moment of the snapshot — an
    /// instantaneous gauge, not a counter.
    pub queue_depth_now: u64,
    /// High-water mark of concurrent in-flight requests since startup.
    pub peak_queue_depth: u64,
}
