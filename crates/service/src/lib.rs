//! # adp-service
//!
//! A std-only, in-process **serving layer** for ADP: the shared front
//! door that turns the plan-once/execute-many substrate
//! ([`PreparedQuery`], the [`adp_runtime`] pool, the O(Δ) delta
//! templates) into a concurrent request API. Before this crate every
//! caller hand-rolled `PreparedQuery` construction; now requests from
//! any number of threads share plans, and streaming updates can never
//! be answered with stale plans.
//!
//! Three pieces:
//!
//! * **Plan records** — one record per normalized query text, in an
//!   LRU registry. A record holds the query's epoch-0 *base plan* and
//!   its binding to the current epoch, `(epoch, Arc<PreparedQuery>)`.
//!   Concurrent requests for the same query share one plan, one root
//!   evaluation and one scored delta template (all lazily built behind
//!   `OnceLock`s). Plans for epochs after 0 are
//!   [anchored](PreparedQuery::anchored) on the base plan: their greedy
//!   solves advance the base plan's idle greedy state by the difference
//!   between dead sets instead of joining the epoch, so a greedy query
//!   pays its join and its scoring pass once per record, and each epoch
//!   after that costs `O(batch)`. The text path, statements and
//!   subscription groups all resolve epoch plans through the record.
//! * **Request API** — [`SolveRequest`] (`k` or ρ target, solver
//!   policy, wall-clock budget) → [`SolveResponse`] (deletion set,
//!   cost, and stats: cache hit, plan/solve microseconds, solver
//!   chosen, answering epoch). [`Service::solve`] runs on the calling
//!   thread behind a **bounded admission queue** that sheds load with
//!   [`AdpError::Overloaded`] instead of queuing unboundedly;
//!   [`Service::solve_batch`] fans a slice of requests out over the
//!   global [`adp_runtime`] pool.
//! * **Prepared statements** — [`Service::prepare`] runs the text path
//!   (parse, normalize, fingerprint) **once** and returns a
//!   [`Statement`] handle that holds its query's record, so its hot path
//!   performs zero query-text work and no registry lookup per call, and
//!   the record re-binds when the epoch moves. The "compile once, bind
//!   many times" contract of SQL prepared statements, for ADP.
//! * **Epoch management** — the service owns the database. Streaming
//!   delete/restore batches ([`Service::delete_tuples`] /
//!   [`Service::restore_tuples`]) atomically install a new snapshot and
//!   bump the epoch; because a record's binding names its epoch, a
//!   request that snapshotted epoch `e` only gets a plan over epoch
//!   `e` — **stale answers are impossible by construction**, and the
//!   post-bump sweep of epoch plans merely reclaims memory.
//!   Batches that change nothing (empty, or all no-ops) do **not** bump
//!   the epoch, so they cannot invalidate plans or wake subscribers.
//! * **Push subscriptions** — [`Service::subscribe`] registers a
//!   statement for incremental-view-maintenance updates: each effective
//!   batch advances the statement's pooled greedy state once, in O(Δ),
//!   answers each subscribed target through the pull path, and fans a
//!   minimal [`ViewUpdate`] (live-transition rows, cost drift,
//!   deletion-set churn) out to every subscriber over bounded channels
//!   that lag (typed [`Lagged`]) instead of ever blocking the mutation
//!   path. Push and pull share one maintained state per statement.
//!
//! Every answer is byte-identical to a direct
//! [`PreparedQuery::solve`](adp_core::solver::PreparedQuery::solve) on
//! the same `(Q, D, k)` — cache hit or cold miss, one client thread or
//! many. The `service_differential` proptest suite enforces it.
//!
//! [`PreparedQuery`]: adp_core::solver::PreparedQuery
//! [`AdpError::Overloaded`]: adp_engine::error::AdpError::Overloaded

#![forbid(unsafe_code)]

mod error;
mod plans;
mod request;
mod statement;
mod stats;
mod subscribe;

pub use error::ServiceError;
pub use request::{RequestStats, SolveRequest, SolveResponse, Target};
pub use statement::Statement;
pub use stats::ServiceStats;
pub use subscribe::{
    DeletionChurn, Lagged, OutputRow, SubscribeOptions, SubscriptionId, ViewUpdate,
};

use adp_core::query::{parse_query, Query};
use adp_core::solver::{
    solver_label, AdpOptions, AdpOutcome, Branch, DeadSet, Mode, PreparedQuery,
};
use adp_engine::catalog::RelId;
use adp_engine::database::Database;
use adp_engine::error::AdpError;
use adp_engine::provenance::TupleRef;
use plans::{PlanRegistry, QueryPlans};
use stats::StatsInner;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Tuning knobs for a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// How many queries keep a plan record (base plan plus current
    /// epoch plan). A new query past this evicts the least recently
    /// used record that no [`Statement`] or subscription holds; held
    /// records are never evicted, so the count can exceed this while
    /// they live.
    pub cache_entries: usize,
    /// Bounded admission queue: at most this many requests may be in
    /// flight; further requests are shed with [`AdpError::Overloaded`].
    pub max_in_flight: usize,
    /// Solver options used when a request does not carry its own.
    pub default_opts: AdpOptions,
    /// Segment size the owned database is sealed into at construction
    /// (see [`Database::seal_all`]). Sealing up front is what makes
    /// every later mutation batch O(Δ): the next epoch's snapshot
    /// shares all sealed segments by `Arc` and only materializes the
    /// batch's tombstones/restores.
    pub segment_target_rows: usize,
    /// Compaction trigger: after each batch, any segment whose
    /// tombstone count reaches this percentage of its rows is rewritten
    /// without the dead rows, bounding read amplification. `0` would
    /// compact on every tombstone; `100` effectively never compacts.
    pub compact_tombstone_pct: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_entries: 256,
            max_in_flight: 64,
            default_opts: AdpOptions::default(),
            segment_target_rows: 1 << 16,
            compact_tombstone_pct: 50,
        }
    }
}

/// One immutable database epoch. Readers clone the `Arc`s out under a
/// read lock and then work lock-free; writers derive the next snapshot
/// outside the lock (serialized by `Service::mutation`) by cloning the
/// current one — an `Arc` bump per sealed segment — and applying the
/// batch's tombstones/restores in O(Δ), then install it under a brief
/// write lock. `(epoch, db)` pairs are always consistent, old epochs
/// stay alive for whoever still holds their `Arc<Database>`, and
/// solves never wait behind snapshot construction.
#[derive(Clone)]
struct EpochState {
    epoch: u64,
    /// The snapshot requests solve against.
    db: Arc<Database>,
    /// The sealed original database. Its dense indices double as the
    /// engine's permanent *stable ids* (sealed at epoch 0 with nothing
    /// deleted, dense == stable), so base coordinates address tuples
    /// across every later epoch, and base values re-materialize tuples
    /// that compaction physically dropped.
    base: Arc<Database>,
    /// Per base-relation slot: base tuple indices currently deleted.
    /// Replaced (never mutated) by each effective batch, so epoch plans
    /// anchored on the base share it by `Arc`, and pooled greedy states
    /// tagged with it are recognized by pointer.
    deleted: Arc<DeadSet>,
}

/// A reserved slot in the bounded admission queue. Dropping it releases
/// the slot. Obtainable directly via [`Service::try_admit`] when a
/// caller wants to reserve capacity before building a request.
pub struct AdmissionPermit<'a> {
    svc: &'a Service,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.svc.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The concurrent, plan-cached ADP serving layer. See the crate docs
/// for the architecture. `Send + Sync`: share one instance behind an
/// `Arc` (or plain references) across any number of client threads.
pub struct Service {
    config: ServiceConfig,
    state: RwLock<EpochState>,
    /// Serializes epoch mutations so the O(Δ) overlay derivation can
    /// run *outside* the `state` write lock without writers racing each
    /// other; readers only ever wait for the brief install.
    mutation: Mutex<()>,
    plans: PlanRegistry,
    in_flight: AtomicUsize,
    stats: StatsInner,
    subscriptions: subscribe::Registry,
}

impl Service {
    /// Builds a service owning `db` at epoch 0, with default config.
    pub fn new(db: Database) -> Self {
        Self::with_config(db, ServiceConfig::default())
    }

    /// Builds a service owning `db` at epoch 0. The database is sealed
    /// into immutable segments up front
    /// ([`Database::seal_all`]), so every subsequent mutation batch
    /// derives its snapshot in O(Δ) instead of rebuilding O(n) rows.
    pub fn with_config(mut db: Database, config: ServiceConfig) -> Self {
        db.seal_all(config.segment_target_rows.max(1));
        let base = Arc::new(db);
        let slots = base.relations().len();
        Service {
            state: RwLock::new(EpochState {
                epoch: 0,
                db: Arc::clone(&base),
                base,
                deleted: Arc::new(vec![Default::default(); slots]),
            }),
            mutation: Mutex::new(()),
            plans: PlanRegistry::new(config.cache_entries),
            in_flight: AtomicUsize::new(0),
            stats: StatsInner::default(),
            subscriptions: subscribe::Registry::default(),
            config,
        }
    }

    /// The current database epoch.
    pub fn epoch(&self) -> u64 {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        self.state.read().unwrap().epoch
    }

    /// A consistent `(epoch, database)` snapshot — the same pair a
    /// concurrently admitted request would solve against.
    pub fn snapshot(&self) -> (u64, Arc<Database>) {
        let s = self.current();
        (s.epoch, s.db)
    }

    /// The whole current epoch state (a few `Arc` bumps).
    fn current(&self) -> EpochState {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        self.state.read().unwrap().clone()
    }

    /// The record of `query` (normalized to `normalized`), created over
    /// the base database on first use. Counts the records its creation
    /// evicted.
    pub(crate) fn record(&self, normalized: String, query: Query) -> Arc<QueryPlans> {
        let (plans, evicted) = self.plans.get_or_insert(normalized, |normalized| {
            let EpochState { epoch, base, .. } = self.current();
            // Bound at the live epoch, read under the registry lock: a
            // request that snapshotted an epoch the last sweep already
            // passed cannot bind (and pin) its superseded plan here.
            QueryPlans::new(normalized, query, &base, epoch)
        });
        StatsInner::add(&self.stats.evicted, evicted);
        plans
    }

    /// Counter snapshot (see [`ServiceStats`] for the invariants).
    pub fn stats(&self) -> ServiceStats {
        self.stats
            .snapshot(self.in_flight.load(Ordering::Relaxed) as u64)
    }

    /// Queries whose record has an epoch plan bound.
    pub fn cached_plans(&self) -> usize {
        self.plans.bound_plans()
    }

    /// Tries to reserve an admission slot, shedding with
    /// [`AdpError::Overloaded`] when `max_in_flight` requests are
    /// already running. Never blocks.
    pub fn try_admit(&self) -> Result<AdmissionPermit<'_>, ServiceError> {
        let limit = self.config.max_in_flight.max(1);
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= limit {
                StatsInner::bump(&self.stats.shed);
                return Err(ServiceError::Admission(AdpError::Overloaded {
                    in_flight: cur as u64,
                    limit: limit as u64,
                }));
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.stats.observe_queue_depth((cur + 1) as u64);
                    return Ok(AdmissionPermit { svc: self });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Serves one request on the calling thread: admission, epoch
    /// snapshot, plan-record lookup, solve. The solver itself may fan
    /// out over the global [`adp_runtime`] pool; results are
    /// byte-identical to a direct
    /// [`PreparedQuery::solve`](adp_core::solver::PreparedQuery::solve)
    /// on the snapshot.
    pub fn solve(&self, req: &SolveRequest) -> Result<SolveResponse, ServiceError> {
        let _permit = self.try_admit()?;
        self.solve_admitted(req)
    }

    /// Fans a slice of requests out over the global [`adp_runtime`]
    /// pool, one result per request in request order. Each request is
    /// individually admitted, so a batch larger than the admission
    /// limit sheds its overflow instead of deadlocking the pool.
    pub fn solve_batch(&self, reqs: &[SolveRequest]) -> Vec<Result<SolveResponse, ServiceError>> {
        adp_runtime::global().par_indexed(reqs.len(), |i| self.solve(&reqs[i]))
    }

    fn solve_admitted(&self, req: &SolveRequest) -> Result<SolveResponse, ServiceError> {
        // Reject malformed targets before any plan work: a bad request
        // must not compile (and cache) a plan, pollute the LRU, or
        // count as cache traffic.
        Self::validate_target(req.target)?;
        let current = self.current();

        let plan_start = Instant::now();
        let query = parse_query(&req.query).map_err(ServiceError::Query)?;
        let (prep, cache_hit) = self
            .record(query.normalized_text(), query)
            .plan_at(&current);
        self.count_lookup(cache_hit);
        let plan_micros = plan_start.elapsed().as_micros() as u64;

        self.execute(
            &prep,
            current.epoch,
            cache_hit,
            plan_micros,
            req.target,
            req.opts.as_ref(),
            req.budget,
        )
    }

    /// Counts one admitted request's plan lookup.
    pub(crate) fn count_lookup(&self, cache_hit: bool) {
        StatsInner::bump(&self.stats.requests);
        StatsInner::bump(if cache_hit {
            &self.stats.cache_hits
        } else {
            &self.stats.cache_misses
        });
    }

    /// Rejects malformed targets with a typed error (shared by the text
    /// and statement front doors so neither can cache a plan for a bad
    /// request).
    pub(crate) fn validate_target(target: Target) -> Result<(), ServiceError> {
        if let Target::Ratio(rho) = target {
            if !rho.is_finite() || !(0.0..=1.0).contains(&rho) {
                return Err(ServiceError::BadRequest(format!(
                    "removal ratio must be a finite value in [0, 1], got {rho}"
                )));
            }
        }
        Ok(())
    }

    /// The shared back half of every solve — text path and
    /// [`Statement`] path alike — so serving semantics (k resolution,
    /// clamping, budgets, stats labels) cannot drift between them.
    // The parameters are the request fields plus the resolved plan; a
    // carrier struct would just restate `SolveRequest` minus the text.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        prep: &PreparedQuery,
        epoch: u64,
        cache_hit: bool,
        plan_micros: u64,
        target: Target,
        opts_override: Option<&AdpOptions>,
        budget: Option<std::time::Duration>,
    ) -> Result<SolveResponse, ServiceError> {
        let mut opts = opts_override
            .cloned()
            .unwrap_or_else(|| self.config.default_opts.clone());
        if let Some(budget) = budget {
            opts.deadline = Some(Instant::now() + budget);
        }

        // On a cold plan, `output_count` triggers the one-time
        // evaluation; it is charged to the solve (it is solving work,
        // and every later request for this key gets it for free).
        let solve_start = Instant::now();
        let total = prep.output_count();
        // k = 0 is trivially satisfied; k > |Q(D)| clamps to full
        // deletion (the resilience-style request). Both are serving
        // semantics: the raw solver treats them as caller errors.
        let k = target.resolve(total);
        let outcome = if k == 0 {
            AdpOutcome {
                cost: 0,
                achieved: 0,
                exact: true,
                truncated: false,
                output_count: total,
                solution: (opts.mode == Mode::Report).then(Vec::new),
            }
        } else {
            prep.solve(k, &opts).map_err(ServiceError::Solve)?
        };
        let query = prep.query();
        let solver = solver_label(Branch::of(query, &opts), &outcome, &opts, query);
        let solve_micros = solve_start.elapsed().as_micros() as u64;
        if outcome.truncated {
            StatsInner::bump(&self.stats.truncated);
        } else {
            StatsInner::bump(&self.stats.solved);
        }

        Ok(SolveResponse {
            outcome,
            stats: RequestStats {
                epoch,
                cache_hit,
                plan_micros,
                solve_micros,
                solver,
            },
        })
    }

    /// Deletes a batch of base tuples (named by `(relation, base tuple
    /// index)`), installing a new snapshot and bumping the epoch.
    /// Validates the whole batch first: on any unknown relation or
    /// out-of-range index, nothing changes. Deleting an
    /// already-deleted tuple is a no-op within the batch, and a batch
    /// whose every entry is a no-op (or an empty batch) leaves the
    /// epoch untouched — no plan is invalidated and no subscriber is
    /// woken for a snapshot that did not change. Returns the epoch the
    /// batch's effect is visible at (the current epoch for no-ops).
    pub fn delete_tuples(&self, batch: &[(&str, u32)]) -> Result<u64, ServiceError> {
        self.apply_logged(batch, true, |_| Ok::<(), Infallible>(()))
    }

    /// Restores previously deleted base tuples (the inverse of
    /// [`delete_tuples`](Self::delete_tuples)); restoring a live tuple
    /// is a no-op within the batch, and fully no-op batches do not bump
    /// the epoch. Returns the epoch the batch's effect is visible at.
    pub fn restore_tuples(&self, batch: &[(&str, u32)]) -> Result<u64, ServiceError> {
        self.apply_logged(batch, false, |_| Ok::<(), Infallible>(()))
    }

    /// Applies a delete (`delete = true`) or restore batch like
    /// [`delete_tuples`](Self::delete_tuples) /
    /// [`restore_tuples`](Self::restore_tuples), handing its effective
    /// entries — `(relation slot, base tuple index)` pairs, slots in
    /// the base database's relation order, no-op entries dropped — to
    /// `log` before the new epoch becomes visible. `log` runs under the
    /// mutation lock, so log order is apply order; it is not called for
    /// a batch that changes nothing. If it fails, the batch is not
    /// applied: the epoch, the snapshot and every subscriber stay where
    /// they were, and the error comes back as [`ServiceError::Log`].
    pub fn apply_logged<E: fmt::Display>(
        &self,
        batch: &[(&str, u32)],
        delete: bool,
        log: impl FnOnce(&[(u32, u32)]) -> Result<(), E>,
    ) -> Result<u64, ServiceError> {
        // Writers serialize on `mutation`, so the read-modify-write
        // below cannot lose updates even though the O(Δ) overlay build
        // runs without the `state` lock — concurrent solves keep
        // snapshotting the previous epoch until the brief install at
        // the end.
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let _writer = self.mutation.lock().unwrap();
        let EpochState {
            base,
            db: cur,
            deleted,
            ..
        } = self.current();
        // Validate before mutating: a bad batch must not half-apply.
        let mut resolved = Vec::with_capacity(batch.len());
        for &(name, index) in batch {
            let Some(rel_id) = base.rel_id(name) else {
                return Err(ServiceError::BadRequest(format!(
                    "unknown relation {name:?} in epoch batch"
                )));
            };
            let len = base.relation_by_id(rel_id).len();
            if index as usize >= len {
                return Err(ServiceError::BadRequest(format!(
                    "tuple index {index} out of range for relation {name:?} (len {len})"
                )));
            }
            resolved.push((rel_id, index));
        }
        // Keep only the entries that actually change the deletion set:
        // deleting a dead tuple / restoring a live one is a no-op, and a
        // batch of nothing but no-ops must not bump the epoch — a bump
        // would invalidate every cached plan and wake every subscriber
        // for a byte-identical snapshot. The next epoch's dead set is
        // copied from the current one only once something changes.
        let mut next_deleted: Option<DeadSet> = None;
        let mut effective = Vec::with_capacity(resolved.len());
        for (rel, index) in resolved {
            let slot = rel.index();
            let now = next_deleted.as_ref().unwrap_or(&deleted);
            if now[slot].contains(&index) == delete {
                continue;
            }
            let next = next_deleted.get_or_insert_with(|| (*deleted).clone());
            if delete {
                next[slot].insert(index);
            } else {
                next[slot].remove(&index);
            }
            effective.push((rel.0, index));
        }
        let Some(next_deleted) = next_deleted else {
            // adp-lint: allow(panic-path) -- lock poisoning requires a prior
            // panic while holding the lock; holders run no user code, and
            // propagating the original crash beats serving torn state.
            return Ok(self.state.read().unwrap().epoch);
        };
        // Log before visible: a batch the log refused is never
        // installed, so no reader or subscriber sees an epoch that
        // recovery cannot reproduce.
        log(&effective).map_err(|e| ServiceError::Log(e.to_string()))?;
        // O(Δ) snapshot derivation: cloning the current snapshot is an
        // `Arc` bump per sealed segment (the tail is empty — everything
        // was sealed at construction or compacted since), and each
        // effective entry touches exactly one tombstone. Base dense
        // indices are the engine's stable ids, so they address tuples
        // directly in any epoch; restores of compacted-away rows
        // re-materialize from base values in stable order.
        let mut next = (*cur).clone();
        for &(slot, index) in &effective {
            let rel = RelId(slot);
            let changed = if delete {
                next.relation_mut_by_id(rel).delete_stable(index)
            } else {
                let values = base.relation_by_id(rel).tuple_vec(index);
                next.relation_mut_by_id(rel).restore_stable(index, &values)
            };
            debug_assert!(changed, "effective entries must change the snapshot");
        }
        if delete {
            // Rewrite segments whose tombstone ratio crossed the
            // threshold, bounding read amplification; live rows keep
            // their stable ids so the dense view is unchanged.
            next.maybe_compact_all(self.config.compact_tombstone_pct);
        }
        let db = Arc::new(next);
        let next_deleted = Arc::new(next_deleted);
        let epoch = {
            // adp-lint: allow(panic-path) -- lock poisoning requires a prior
            // panic while holding the lock; holders run no user code, and
            // propagating the original crash beats serving torn state.
            let mut state = self.state.write().unwrap();
            state.db = db;
            state.deleted = Arc::clone(&next_deleted);
            state.epoch += 1;
            state.epoch
        };
        StatsInner::bump(&self.stats.epoch_bumps);
        StatsInner::add(&self.stats.invalidated, self.plans.invalidate_before(epoch));
        // Fan the batch out to subscribers while still holding the
        // mutation lock: every registered view advances through exactly
        // this batch before the next one can install.
        self.notify_subscribers(epoch, &deleted, &next_deleted);
        Ok(epoch)
    }

    /// Maps a deletion set reported against the **current** epoch's
    /// snapshot (a [`SolveResponse`] whose `stats.epoch` equals
    /// [`Service::epoch`]) back to `(relation name, base tuple index)`
    /// pairs — the coordinates [`delete_tuples`](Self::delete_tuples)
    /// consumes. This is the safe way to act on a served answer:
    /// snapshot indices are densely re-numbered per epoch, so feeding
    /// them to `delete_tuples` directly would delete the wrong base
    /// tuples after any bump.
    ///
    /// `query_text` must be the request's query (its atom order names
    /// the relations `TupleRef.atom` indexes). Fails with
    /// [`ServiceError::BadRequest`] if `epoch` is not the current epoch
    /// (the mapping for superseded snapshots is gone — re-solve and map
    /// the fresh answer) or if a tuple reference is out of range.
    pub fn to_base_tuples(
        &self,
        query_text: &str,
        epoch: u64,
        deletions: &[TupleRef],
    ) -> Result<Vec<(String, u32)>, ServiceError> {
        let query = parse_query(query_text).map_err(ServiceError::Query)?;
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let state = self.state.read().unwrap();
        if state.epoch != epoch {
            return Err(ServiceError::BadRequest(format!(
                "deletion set from epoch {epoch} cannot be mapped at epoch {}; \
                 re-solve against the current snapshot",
                state.epoch
            )));
        }
        let mut out = Vec::with_capacity(deletions.len());
        for t in deletions {
            let Some(atom) = query.atoms().get(t.atom) else {
                return Err(ServiceError::BadRequest(format!(
                    "tuple ref atom {} out of range for {query_text:?}",
                    t.atom
                )));
            };
            let name = atom.name();
            let Some(rel_id) = state.base.rel_id(name) else {
                return Err(ServiceError::BadRequest(format!(
                    "unknown relation {name:?} in tuple ref"
                )));
            };
            let rel = state.db.relation_by_id(rel_id);
            if t.index as usize >= rel.len() {
                return Err(ServiceError::BadRequest(format!(
                    "tuple index {} out of range for relation {name:?} at epoch {epoch}",
                    t.index
                )));
            }
            // Stable ids are base dense indices (the base was sealed
            // with nothing deleted), so the snapshot's stable id *is*
            // the base coordinate.
            out.push((name.to_owned(), rel.stable_id_at(t.index)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_engine::schema::attrs;

    /// The direct solve the serving layer must match.
    fn direct(q: &Query, db: Arc<Database>, k: u64) -> AdpOutcome {
        PreparedQuery::new(q.clone(), db)
            .solve(k, &AdpOptions::default())
            .unwrap()
    }

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    const Q: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

    #[test]
    fn service_is_send_and_sync() {
        fn _assert<T: Send + Sync>() {}
        _assert::<Service>();
        _assert::<SolveRequest>();
        _assert::<SolveResponse>();
        _assert::<ServiceError>();
    }

    #[test]
    fn solve_matches_direct_compute_and_caches_the_plan() {
        let svc = Service::new(chain_db());
        let (_, db) = svc.snapshot();
        let q = parse_query(Q).unwrap();
        for k in 1..=3u64 {
            let a = svc.solve(&SolveRequest::outputs(Q, k)).unwrap();
            let b = direct(&q, Arc::clone(&db), k);
            assert_eq!(a.outcome.cost, b.cost, "k={k}");
            assert_eq!(a.outcome.achieved, b.achieved, "k={k}");
            assert_eq!(a.outcome.solution, b.solution, "k={k}");
            assert_eq!(a.stats.epoch, 0);
            assert_eq!(a.stats.cache_hit, k > 1, "first request compiles, rest hit");
        }
        let s = svc.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(svc.cached_plans(), 1);
    }

    #[test]
    fn lexically_different_texts_share_one_plan() {
        let svc = Service::new(chain_db());
        svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        let noisy = "Other( B ,A ):-R1( A ), R2( A , B ),R3( B )";
        let r = svc.solve(&SolveRequest::outputs(noisy, 1)).unwrap();
        assert!(r.stats.cache_hit, "normalization must fold lexical noise");
        assert_eq!(svc.cached_plans(), 1);
    }

    /// Satellite (k = 0 edge case): trivially satisfied, never an error.
    #[test]
    fn k_zero_returns_empty_set_at_cost_zero() {
        let svc = Service::new(chain_db());
        let r = svc.solve(&SolveRequest::outputs(Q, 0)).unwrap();
        assert_eq!(r.outcome.cost, 0);
        assert_eq!(r.outcome.achieved, 0);
        assert!(r.outcome.exact);
        assert_eq!(r.deletion_set(), Some(&[][..]));
        assert_eq!(r.stats.solver, "trivial");
        // Ratio 0 is the same trivial request.
        let r = svc.solve(&SolveRequest::ratio(Q, 0.0)).unwrap();
        assert_eq!(r.outcome.cost, 0);
    }

    /// Satellite (k > |Q(D)| edge case): clamps to full deletion
    /// instead of erroring like the raw solver.
    #[test]
    fn k_beyond_output_count_clamps_to_full_deletion() {
        let svc = Service::new(chain_db());
        let (_, db) = svc.snapshot();
        let q = parse_query(Q).unwrap();
        let total = svc
            .solve(&SolveRequest::outputs(Q, 1))
            .unwrap()
            .outcome
            .output_count;
        let r = svc.solve(&SolveRequest::outputs(Q, total + 100)).unwrap();
        let full = direct(&q, db, total);
        assert_eq!(r.outcome.achieved, total, "everything must go");
        assert_eq!(r.outcome.cost, full.cost);
        assert_eq!(r.outcome.solution, full.solution);
        // Ratio 1.0 is the same full-deletion request.
        let r2 = svc.solve(&SolveRequest::ratio(Q, 1.0)).unwrap();
        assert_eq!(r2.outcome.cost, full.cost);
    }

    #[test]
    fn bad_requests_are_typed() {
        let svc = Service::new(chain_db());
        assert!(matches!(
            svc.solve(&SolveRequest::outputs("nonsense", 1)),
            Err(ServiceError::Query(_))
        ));
        for rho in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                svc.solve(&SolveRequest::ratio(Q, rho)),
                Err(ServiceError::BadRequest(_))
            ));
        }
        assert!(matches!(
            svc.delete_tuples(&[("NoSuchRel", 0)]),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            svc.delete_tuples(&[("R1", 99)]),
            Err(ServiceError::BadRequest(_))
        ));
        // a bad batch must not half-apply or bump the epoch
        assert_eq!(svc.epoch(), 0);
        // ...and malformed requests must not have compiled, cached, or
        // counted anything.
        assert_eq!(svc.cached_plans(), 0);
        assert_eq!(svc.stats().requests, 0);
        assert_eq!(svc.stats().cache_misses, 0);
    }

    #[test]
    fn admission_queue_sheds_with_typed_overload() {
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                max_in_flight: 2,
                ..Default::default()
            },
        );
        let p1 = svc.try_admit().unwrap();
        let _p2 = svc.try_admit().unwrap();
        let err = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap_err();
        assert!(err.is_overloaded());
        assert!(matches!(
            err,
            ServiceError::Admission(AdpError::Overloaded {
                in_flight: 2,
                limit: 2
            })
        ));
        drop(p1);
        // capacity freed: the same request now succeeds
        svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert_eq!(svc.stats().shed, 1);
    }

    #[test]
    fn epoch_bumps_invalidate_and_answers_track_the_new_snapshot() {
        let svc = Service::new(chain_db());
        let before = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert_eq!(before.stats.epoch, 0);
        assert_eq!(svc.cached_plans(), 1);

        // Delete R2(1,1) and R2(1,2): output count drops from 3 to 1.
        let epoch = svc.delete_tuples(&[("R2", 0), ("R2", 1)]).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(svc.cached_plans(), 0, "stale-epoch plans invalidated");
        let after = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert_eq!(after.stats.epoch, 1);
        assert!(!after.stats.cache_hit, "new epoch = new plan key");
        assert_eq!(after.outcome.output_count, 1);

        // The response must equal direct computation on the snapshot.
        let (_, db) = svc.snapshot();
        let q = parse_query(Q).unwrap();
        let direct = direct(&q, db, 1);
        assert_eq!(after.outcome.cost, direct.cost);
        assert_eq!(after.outcome.solution, direct.solution);

        // Restoring brings the original state back at a fresh epoch.
        let epoch = svc.restore_tuples(&[("R2", 0), ("R2", 1)]).unwrap();
        assert_eq!(epoch, 2);
        let restored = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert_eq!(restored.outcome.output_count, 3);
        assert_eq!(restored.outcome.cost, before.outcome.cost);
        assert_eq!(svc.stats().epoch_bumps, 2);
    }

    /// Regression (spurious epoch bumps): empty and fully no-op batches
    /// used to install an identical snapshot under a fresh epoch,
    /// invalidating every cached plan for nothing.
    #[test]
    fn noop_batches_do_not_bump_the_epoch() {
        let svc = Service::new(chain_db());
        svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert_eq!(svc.cached_plans(), 1);

        // Empty batches.
        assert_eq!(svc.delete_tuples(&[]).unwrap(), 0);
        assert_eq!(svc.restore_tuples(&[]).unwrap(), 0);
        // Restoring tuples that were never deleted.
        assert_eq!(svc.restore_tuples(&[("R2", 0), ("R1", 1)]).unwrap(), 0);
        assert_eq!(svc.epoch(), 0);
        assert_eq!(svc.cached_plans(), 1, "no bump ⇒ no invalidation");
        assert_eq!(svc.stats().epoch_bumps, 0);

        // A genuine delete bumps; repeating it exactly is a no-op again.
        assert_eq!(svc.delete_tuples(&[("R2", 0)]).unwrap(), 1);
        assert_eq!(svc.delete_tuples(&[("R2", 0)]).unwrap(), 1);
        assert_eq!(svc.epoch(), 1);
        // Mixed batches apply their effective part and bump once.
        assert_eq!(svc.delete_tuples(&[("R2", 0), ("R2", 1)]).unwrap(), 2);
        assert_eq!(svc.stats().epoch_bumps, 2);
        // The answer reflects exactly the two effective deletions.
        let r = svc.solve(&SolveRequest::outputs(Q, 0)).unwrap();
        assert_eq!(r.outcome.output_count, 1);

        // Validation still precedes the no-op check: bad batches are
        // typed errors even when they would have been no-ops.
        assert!(matches!(
            svc.restore_tuples(&[("NoSuchRel", 0)]),
            Err(ServiceError::BadRequest(_))
        ));
    }

    /// `apply_logged` hands the log the batch's effective entries in
    /// base slot order before the epoch installs; a log that fails
    /// leaves the epoch, the snapshot and every subscriber untouched
    /// and comes back as a typed error.
    #[test]
    fn failed_log_leaves_the_epoch_unapplied() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        let mut logged = Vec::new();
        let epoch = svc
            .apply_logged(&[("R2", 1), ("R1", 0), ("R2", 1)], true, |e| {
                logged.extend_from_slice(e);
                Ok::<(), String>(())
            })
            .unwrap();
        assert_eq!((epoch, logged), (1, vec![(1, 1), (0, 0)]));
        assert_eq!(rx.try_iter().count(), 1);

        let (_, before) = svc.snapshot();
        let err = svc
            .apply_logged(&[("R2", 0)], true, |_| Err("disk full"))
            .unwrap_err();
        assert_eq!(err, ServiceError::Log("disk full".into()));
        let (epoch, after) = svc.snapshot();
        assert_eq!(epoch, 1, "a refused batch must not bump the epoch");
        assert!(Arc::ptr_eq(&before, &after), "nor install a snapshot");
        assert_eq!(rx.try_iter().count(), 0, "nor reach a subscriber");
        assert_eq!(svc.stats().epoch_bumps, 1);

        // A no-op batch never reaches the log.
        let epoch = svc
            .apply_logged(&[("R1", 0)], true, |_| Err("must not be called"))
            .unwrap();
        assert_eq!(epoch, 1);
        // The service keeps applying after a refusal.
        assert_eq!(svc.delete_tuples(&[("R2", 0)]).unwrap(), 2);
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn lru_evicts_under_capacity_pressure() {
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                cache_entries: 2,
                ..Default::default()
            },
        );
        // Three distinct queries through a 2-record registry.
        for q in ["Q(A) :- R1(A)", "Q(A,B) :- R2(A,B)", "Q(B) :- R3(B)"] {
            svc.solve(&SolveRequest::outputs(q, 1)).unwrap();
        }
        assert_eq!(svc.cached_plans(), 2);
        assert_eq!(svc.stats().evicted, 1);
        // The least-recently-used record (the first query) was dropped.
        let r = svc
            .solve(&SolveRequest::outputs("Q(A) :- R1(A)", 1))
            .unwrap();
        assert!(!r.stats.cache_hit);
    }

    /// Regression: with no statement or subscription alive, the text
    /// path used to lose the base plan at every epoch bump (the sweep
    /// dropped the last plan anchored on it) and re-join and re-score
    /// the whole base on its next solve. Every epoch plan must anchor on
    /// the one epoch-0 base, evaluated once, while the test itself holds
    /// neither.
    #[test]
    fn text_solves_keep_one_base_plan_across_epochs() {
        let mut db = Database::new();
        let r2: Vec<[u64; 2]> = (0..16).map(|i| [i % 4, i / 4]).collect();
        let r2: Vec<&[u64]> = r2.iter().map(|t| &t[..]).collect();
        db.add_relation("R1", attrs(&["A"]), &[&[0], &[1], &[2], &[3]]);
        db.add_relation("R2", attrs(&["A", "B"]), &r2);
        db.add_relation("R3", attrs(&["B"]), &[&[0], &[1], &[2], &[3]]);
        let svc = Service::new(db);
        let epoch_plan = |epoch: u64| {
            let r = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
            assert_eq!(r.stats.epoch, epoch);
            let query = parse_query(Q).unwrap();
            let (bound_at, plan) = svc.record(query.normalized_text(), query).bound();
            assert_eq!(bound_at, epoch);
            plan.unwrap()
        };
        // Hold only a weak handle and the evaluation's storage.
        let (base, eval) = {
            let base = epoch_plan(0);
            assert!(base.anchor().is_none());
            (Arc::downgrade(&base), base.eval())
        };
        for (epoch, index) in (1..=5u64).zip([2, 5, 8, 11, 14]) {
            let batch = [("R2", index), ("R2", index + 1)];
            assert_eq!(svc.delete_tuples(&batch).unwrap(), epoch);
            let plan = epoch_plan(epoch);
            let live = base.upgrade().expect("the base plan outlives the bump");
            assert!(Arc::ptr_eq(plan.anchor().unwrap(), &live), "epoch {epoch}");
            assert!(live.eval().shares_storage(&eval), "base evaluated once");
        }
    }

    /// Snapshot coordinates shift after a bump; `to_base_tuples` is the
    /// bridge back to the mutation API. Acting on a served deletion set
    /// through it must kill exactly the tuples the answer meant.
    #[test]
    fn served_deletion_sets_map_back_to_base_coordinates() {
        let svc = Service::new(chain_db());
        // Bump first, so snapshot indices genuinely differ from base:
        // deleting R2(0) shifts R2's survivors down by one.
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        let (epoch, snap) = svc.snapshot();
        let resp = svc.solve(&SolveRequest::outputs(Q, 2)).unwrap();
        let served = resp.outcome.solution.clone().unwrap();
        assert!(!served.is_empty());

        // Stale-epoch mappings are refused outright.
        assert!(matches!(
            svc.to_base_tuples(Q, epoch + 1, &served),
            Err(ServiceError::BadRequest(_))
        ));

        let base_refs = svc.to_base_tuples(Q, epoch, &served).unwrap();
        // The mapped base tuples are the same *values* the snapshot
        // coordinates named.
        let q = parse_query(Q).unwrap();
        let base = chain_db(); // the service's base database
        for (t, (name, base_idx)) in served.iter().zip(&base_refs) {
            let atom = q.atoms()[t.atom].name();
            assert_eq!(atom, name);
            assert_eq!(
                snap.expect(atom).tuple(t.index),
                base.expect(name).tuple(*base_idx),
                "mapped base tuple must hold the same values"
            );
        }
        // Applying the mapped batch removes at least the answered
        // outputs: the served set claimed `achieved` removals, and the
        // new snapshot must reflect exactly that count.
        let before = resp.outcome.output_count;
        svc.delete_tuples(
            &base_refs
                .iter()
                .map(|(n, i)| (n.as_str(), *i))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let after = svc.solve(&SolveRequest::outputs(Q, 0)).unwrap();
        assert_eq!(
            after.outcome.output_count,
            before - resp.outcome.achieved,
            "acting on the mapped deletion set must remove what the answer promised"
        );
    }

    #[test]
    fn budget_expiry_returns_truncated_best_so_far() {
        let svc = Service::new(chain_db());
        let req = SolveRequest::outputs(Q, 3)
            .with_opts(AdpOptions {
                force_greedy: true,
                ..Default::default()
            })
            .with_budget(std::time::Duration::ZERO);
        let r = svc.solve(&req).unwrap();
        assert!(r.outcome.truncated);
        assert!(r.outcome.achieved >= 1, "first round always runs");
        assert!(r.outcome.achieved < 3);
        assert_eq!(r.stats.solver, "greedy");
    }

    #[test]
    fn solve_batch_matches_individual_solves() {
        let svc = Service::new(chain_db());
        let reqs: Vec<SolveRequest> = (1..=3).map(|k| SolveRequest::outputs(Q, k)).collect();
        let batch = svc.solve_batch(&reqs);
        assert_eq!(batch.len(), 3);
        for (req, out) in reqs.iter().zip(&batch) {
            let individual = svc.solve(req).unwrap();
            let out = out.as_ref().unwrap();
            assert_eq!(out.outcome.cost, individual.outcome.cost);
            assert_eq!(out.outcome.solution, individual.outcome.solution);
        }
        let s = svc.stats();
        assert_eq!(s.cache_hits + s.cache_misses, s.requests);
    }
}
