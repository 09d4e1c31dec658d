//! One plan record per normalized query.
//!
//! A query's only expensive state is its epoch-0 *base plan* (join,
//! evaluation, scored greedy states); every later epoch's plan is
//! [anchored](PreparedQuery::anchored) on it. A [`QueryPlans`] record
//! holds the base plan and one epoch binding `(epoch, plan)` under one
//! lock, and [`plan_at`](QueryPlans::plan_at) is how every caller — the
//! text path, statements and subscription groups — gets an epoch plan:
//!
//! * at the bound epoch, the bound plan (a hit);
//! * at a newer epoch, the base itself at epoch 0 or a plan anchored on
//!   it later, which becomes the binding;
//! * at an older epoch (a request that snapshotted an epoch a bump has
//!   since superseded), an anchored plan that is served but not bound,
//!   so it cannot pin the old snapshot.
//!
//! A request that snapshotted epoch `e` is thus only ever handed a plan
//! over epoch `e`'s database. The sweep after a bump moves every binding
//! forward and unbinds the superseded epoch plans (memory hygiene),
//! never a base plan. The [`PlanRegistry`] maps normalized text to
//! records, LRU-bounded; eviction skips records that statements or
//! groups hold.

use crate::EpochState;
use adp_core::query::Query;
use adp_core::solver::PreparedQuery;
use adp_engine::database::Database;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything the service keeps for one normalized query.
pub(crate) struct QueryPlans {
    /// The canonical query text, the record's registry key.
    normalized: String,
    base: Arc<PreparedQuery>,
    bound: Mutex<Binding>,
}

#[derive(Default)]
struct Binding {
    epoch: u64,
    /// The plan at `epoch`; `None` until a solve plans for it.
    plan: Option<Arc<PreparedQuery>>,
    /// The plan the last sweep unbound, freed by the next hit or sweep.
    /// Freeing an epoch plan often frees the last reference to its
    /// snapshot, which costs several µs; the sweep runs inside the
    /// mutation, before its ack, and the next hit does not.
    retired: Option<Arc<PreparedQuery>>,
}

impl QueryPlans {
    /// A record for `query` over the base database, bound at `epoch`
    /// with no plan yet. Compiling the base plan scans no data.
    pub fn new(normalized: String, query: Query, base: &Arc<Database>, epoch: u64) -> Self {
        QueryPlans {
            normalized,
            base: Arc::new(PreparedQuery::new(query, Arc::clone(base))),
            bound: Mutex::new(Binding {
                epoch,
                ..Binding::default()
            }),
        }
    }

    pub fn query(&self) -> &Query {
        self.base.query()
    }

    pub fn normalized_text(&self) -> &str {
        &self.normalized
    }

    /// The epoch-0 base plan.
    pub fn base(&self) -> &Arc<PreparedQuery> {
        &self.base
    }

    /// The plan at the epoch of `at`, and whether it was already bound
    /// there (the request's cache hit). See the module docs.
    pub fn plan_at(&self, at: &EpochState) -> (Arc<PreparedQuery>, bool) {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let mut bound = self.bound.lock().unwrap();
        if let Some(plan) = bound.plan.as_ref().filter(|_| bound.epoch == at.epoch) {
            let plan = Arc::clone(plan);
            let retired = bound.retired.take();
            drop(bound);
            drop(retired);
            return (plan, true);
        }
        let plan = if Arc::ptr_eq(&at.db, &at.base) {
            Arc::clone(&self.base)
        } else {
            let (db, dead) = (Arc::clone(&at.db), Arc::clone(&at.deleted));
            Arc::new(self.base.anchored(db, dead))
        };
        if at.epoch >= bound.epoch {
            // A plan still bound at an older epoch (a request between an
            // install and its sweep) is freed here, under the lock.
            bound.epoch = at.epoch;
            bound.plan = Some(Arc::clone(&plan));
        }
        (plan, false)
    }

    /// The bound epoch and its plan.
    pub fn bound(&self) -> (u64, Option<Arc<PreparedQuery>>) {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; propagating beats torn state.
        let bound = self.bound.lock().unwrap();
        (bound.epoch, bound.plan.clone())
    }
}

/// Records by normalized query text, each with the logical time of its
/// last lookup.
#[derive(Default)]
struct Records {
    map: HashMap<String, (Arc<QueryPlans>, u64)>,
    clock: u64,
}

/// The service's records, LRU-bounded at `capacity`.
pub(crate) struct PlanRegistry {
    records: Mutex<Records>,
    capacity: usize,
}

impl PlanRegistry {
    pub fn new(capacity: usize) -> Self {
        PlanRegistry {
            records: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    /// The record for `normalized`, built by `build` on a miss (under the
    /// registry lock). Returns `(record, evicted)`: the insert evicts
    /// least recently used records first, and only records held nowhere
    /// else.
    pub fn get_or_insert(
        &self,
        normalized: String,
        build: impl FnOnce(String) -> QueryPlans,
    ) -> (Arc<QueryPlans>, u64) {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let Records { map, clock } = &mut *self.records.lock().unwrap();
        *clock += 1;
        if let Some((plans, last_used)) = map.get_mut(&normalized) {
            *last_used = *clock;
            return (Arc::clone(plans), 0);
        }
        let mut evicted = 0;
        while map.len() >= self.capacity {
            // O(n) LRU scan: one record per distinct hot query.
            let Some(oldest) = map
                .iter()
                .filter(|(_, (plans, _))| Arc::strong_count(plans) == 1)
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            map.remove(&oldest);
            evicted += 1;
        }
        let plans = Arc::new(build(normalized.clone()));
        map.insert(normalized, (Arc::clone(&plans), *clock));
        (plans, evicted)
    }

    /// Moves every record bound before `current` forward to it,
    /// unbinding the superseded epoch plans, and returns how many it
    /// unbound.
    pub fn invalidate_before(&self, current: u64) -> u64 {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating beats serving torn state.
        let records = self.records.lock().unwrap();
        let mut dropped = 0;
        for (plans, _) in records.map.values() {
            // adp-lint: allow(panic-path) -- same poisoning rationale.
            let mut bound = plans.bound.lock().unwrap();
            if bound.epoch < current {
                bound.epoch = current;
                bound.retired = bound.plan.take();
                dropped += u64::from(bound.retired.is_some());
            }
        }
        dropped
    }

    /// Records with an epoch plan bound.
    pub fn bound_plans(&self) -> usize {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; propagating beats torn state.
        let records = self.records.lock().unwrap();
        let bound = records.map.values().filter(|(p, _)| p.bound().1.is_some());
        bound.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_core::query::parse_query;
    use adp_engine::schema::attrs;

    fn at(epoch: u64, db: &Arc<Database>, base: &Arc<Database>) -> EpochState {
        EpochState {
            epoch,
            db: Arc::clone(db),
            base: Arc::clone(base),
            deleted: Arc::new(vec![Default::default()]),
        }
    }

    fn base_db() -> Arc<Database> {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        Arc::new(db)
    }

    fn record(normalized: String, base: &Arc<Database>) -> QueryPlans {
        QueryPlans::new(normalized, parse_query("Q(A) :- R(A)").unwrap(), base, 0)
    }

    /// A request that snapshotted a superseded epoch must be served but
    /// must not bind its plan: the binding would pin the old snapshot
    /// until the next solve or sweep.
    #[test]
    fn superseded_epochs_are_served_but_not_bound() {
        let base = base_db();
        let later = Arc::new((*base).clone());
        let registry = PlanRegistry::new(4);
        let (plans, _) = registry.get_or_insert("q".into(), |n| record(n, &base));
        assert_eq!(registry.invalidate_before(5), 0, "nothing bound yet");
        let (_, hit) = plans.plan_at(&at(3, &later, &base));
        assert!(!hit);
        assert_eq!(plans.bound().0, 5);
        assert!(plans.bound().1.is_none(), "stale epoch must not bind");
        let (bound, hit) = plans.plan_at(&at(5, &later, &base));
        assert!(!hit);
        assert!(Arc::ptr_eq(bound.anchor().unwrap(), plans.base()));
        let (again, hit) = plans.plan_at(&at(5, &later, &base));
        assert!(hit && Arc::ptr_eq(&again, &bound));
        assert_eq!(registry.bound_plans(), 1);
        // The sweep unbinds the epoch plan and keeps the base.
        let unbound = Arc::downgrade(&bound);
        drop((bound, again));
        assert_eq!(registry.invalidate_before(6), 1);
        assert_eq!((plans.bound().0, registry.bound_plans()), (6, 0));
        assert!(plans.bound().1.is_none());
        // The unbound plan is freed by the first hit after the sweep (a
        // miss may run inside the mutation), or else by the next sweep.
        plans.plan_at(&at(6, &later, &base));
        assert!(unbound.upgrade().is_some(), "a miss leaves it parked");
        assert!(plans.plan_at(&at(6, &later, &base)).1);
        assert!(unbound.upgrade().is_none(), "the hit freed it");
        let unbound = Arc::downgrade(&plans.bound().1.unwrap());
        registry.invalidate_before(7);
        registry.invalidate_before(8);
        assert!(unbound.upgrade().is_none(), "the next sweep freed it");
    }

    /// Eviction takes the least recently used record that nothing else
    /// holds, and never one that a statement or group holds.
    #[test]
    fn eviction_skips_held_records() {
        let base = base_db();
        let registry = PlanRegistry::new(2);
        let (held, _) = registry.get_or_insert("a".into(), |n| record(n, &base));
        for key in ["b", "c", "d"] {
            let (_, evicted) = registry.get_or_insert(key.into(), |n| record(n, &base));
            assert_eq!(evicted, u64::from(key != "b"), "{key}");
        }
        // "a" is the oldest but held; "b" and "c" went in turn.
        let (again, evicted) = registry.get_or_insert("a".into(), |_| unreachable!());
        assert!(Arc::ptr_eq(&again, &held) && evicted == 0);
        drop((held, again));
        // Unheld now, but looked up more recently than "d".
        let (_, evicted) = registry.get_or_insert("e".into(), |n| record(n, &base));
        assert_eq!(evicted, 1);
        let (_, evicted) = registry.get_or_insert("a".into(), |_| unreachable!("d went first"));
        assert_eq!(evicted, 0);
    }
}
