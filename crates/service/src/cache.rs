//! The sharded LRU plan cache.
//!
//! Keys are `(normalized query text, db epoch)` — see
//! [`Query::normalized_text`](adp_core::query::Query::normalized_text)
//! for what normalization does (and deliberately does not) fold
//! together. The epoch in the key is what makes stale answers
//! *impossible by construction*: a request that snapshotted epoch `e`
//! can only ever hit entries built against epoch `e`'s database, so
//! invalidation after an epoch bump is memory hygiene, not a
//! correctness mechanism.
//!
//! Values are `Arc<PreparedQuery>`: concurrent requests for the same
//! key share one compiled plan, one set of join indexes, one root
//! evaluation, one provenance index, and one scored delta template —
//! the lazily built pieces live behind `OnceLock`s inside
//! [`PlannedEval`](adp_core::solver::PlannedEval), so racing first
//! users initialize them once and everyone else reuses them. An entry
//! for an epoch after 0 is [anchored](PreparedQuery::anchored) on the
//! query's epoch-0 base plan: its greedy solves run on the base plan's
//! pooled states, so evicting or invalidating the entry drops only the
//! epoch's lazily built pieces, never the base plan's join or scores.
//!
//! Sharding: the query fingerprint picks the shard, so distinct hot
//! queries contend on distinct mutexes. Insertion happens under the
//! shard lock, but only the *plan compilation* runs there
//! (`PreparedQuery::new` scans no data); the expensive evaluation is
//! deferred to the first solve, outside any cache lock.

use adp_core::solver::PreparedQuery;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: canonical query text plus the database epoch the plan was
/// compiled against.
pub(crate) type CacheKey = (String, u64);

struct Entry {
    prep: Arc<PreparedQuery>,
    /// Logical timestamp of the last hit (per-shard clock).
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// A sharded, capacity-bounded LRU map from [`CacheKey`] to shared
/// prepared queries.
pub(crate) struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    /// Minimum epoch still cacheable. Raised *before* an invalidation
    /// sweep, and checked under the shard lock on insert, so a solve
    /// that snapshotted a superseded epoch cannot park an unreachable
    /// entry (pinning the old database) after the sweep has passed its
    /// shard: either the insert happens before the sweep takes the
    /// shard lock (the sweep then removes it) or the inserter observes
    /// the raised floor and skips caching.
    floor: AtomicU64,
}

impl PlanCache {
    pub fn new(shards: usize, per_shard: usize) -> Self {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: per_shard.max(1),
            floor: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[(fingerprint % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up in the fingerprint's shard, building and caching
    /// the plan on a miss (`build` gets the key's normalized text).
    /// Returns `(plan, cache_hit, evicted)` where `evicted` counts
    /// entries dropped by LRU pressure during the insert.
    pub fn get_or_insert<F>(
        &self,
        fingerprint: u64,
        key: CacheKey,
        build: F,
    ) -> (Arc<PreparedQuery>, bool, u64)
    where
        F: FnOnce(&str) -> Arc<PreparedQuery>,
    {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let mut shard = self.shard(fingerprint).lock().unwrap();
        shard.clock += 1;
        let now = shard.clock;
        if let Some(e) = shard.entries.get_mut(&key) {
            e.last_used = now;
            return (Arc::clone(&e.prep), true, 0);
        }
        let prep = build(&key.0);
        if key.1 < self.floor.load(Ordering::SeqCst) {
            // The epoch was superseded while this request was in
            // flight: serve the plan (the answer is still consistent
            // with the snapshot it solves) but do not cache it — no
            // future request can key this epoch, and parking the entry
            // would pin the old snapshot until LRU pressure.
            return (prep, false, 0);
        }
        let mut evicted = 0;
        while shard.entries.len() >= self.per_shard {
            // O(n) LRU scan: shards are small by construction (tens of
            // entries), so a linked-list LRU would be pure overhead.
            let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            shard.entries.remove(&oldest);
            evicted += 1;
        }
        shard.entries.insert(
            key,
            Entry {
                prep: Arc::clone(&prep),
                last_used: now,
            },
        );
        (prep, false, evicted)
    }

    /// Drops every entry compiled against an epoch older than
    /// `current`, returning how many were removed. Correctness never
    /// depends on this (stale epochs can no longer be keyed), but the
    /// memory of a superseded epoch should not wait for LRU pressure.
    /// The floor is raised before the sweep so racing inserts for
    /// superseded epochs cannot re-park entries behind it.
    pub fn invalidate_before(&self, current: u64) -> u64 {
        self.floor.fetch_max(current, Ordering::SeqCst);
        let mut dropped = 0;
        for shard in &self.shards {
            // adp-lint: allow(panic-path) -- lock poisoning requires a
            // prior panic while holding the lock; holders run no user
            // code, and propagating beats serving torn state.
            let mut shard = shard.lock().unwrap();
            let before = shard.entries.len();
            shard.entries.retain(|(_, epoch), _| *epoch >= current);
            dropped += (before - shard.entries.len()) as u64;
        }
        dropped
    }

    /// Total cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            // adp-lint: allow(panic-path) -- lock poisoning requires a
            // prior panic while holding the lock; propagating beats
            // serving torn state.
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_core::query::parse_query;
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;

    fn prep(_: &str) -> Arc<PreparedQuery> {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        Arc::new(PreparedQuery::new(
            parse_query("Q(A) :- R(A)").unwrap(),
            Arc::new(db),
        ))
    }

    /// Regression (insert/invalidation race): a request that snapshotted
    /// a superseded epoch must not park its plan after the invalidation
    /// sweep has passed — the entry would be unreachable (the epoch can
    /// no longer be keyed) yet pin the old snapshot until LRU pressure.
    #[test]
    fn superseded_epochs_are_served_but_not_cached() {
        let cache = PlanCache::new(2, 4);
        cache.invalidate_before(5);
        // A straggler keyed below the floor: served, never cached.
        let (_, hit, evicted) = cache.get_or_insert(0, ("q".into(), 3), prep);
        assert!(!hit);
        assert_eq!(evicted, 0);
        assert_eq!(cache.len(), 0, "stale-epoch insert must be skipped");
        // Current-epoch keys cache normally.
        let (_, hit, _) = cache.get_or_insert(0, ("q".into(), 5), prep);
        assert!(!hit);
        assert_eq!(cache.len(), 1);
        let (_, hit, _) = cache.get_or_insert(0, ("q".into(), 5), prep);
        assert!(hit);
    }
}
