//! Prepared-statement handles: compile once, bind targets many times.
//!
//! [`Service::solve`] is the text front door: every request parses,
//! normalizes, and fingerprints its query string before the cache can
//! even be consulted. That is the right contract for untrusted
//! wire-format clients, but a caller holding a long-lived handle to a
//! hot query pays the text path on every call for nothing — the same
//! "compile once, bind parameters many times" gap prepared statements
//! close in SQL servers.
//!
//! [`Service::prepare`] runs the text path **once** and returns a
//! [`Statement`]: the parsed [`Query`], its normalized cache-key text,
//! and its fingerprint, plus a cached binding to the current epoch's
//! [`PreparedQuery`]. [`Statement::solve`] then:
//!
//! * on the hot path (epoch unchanged) reuses the bound plan directly —
//!   **zero** query-text work: no parse, no normalization, no
//!   fingerprint, not even a cache-map probe (the
//!   `statement_hot_path` integration test pins this with the
//!   [`metrics`](adp_core::query::metrics) counters);
//! * after an epoch bump transparently re-binds through the shared plan
//!   cache under the *stored* normalized key — still no text work — so
//!   statements survive streaming updates and keep sharing plans with
//!   the text front door. The new epoch's plan is anchored on the
//!   statement's epoch-0 base plan, which the binding keeps alive, so a
//!   greedy statement's re-bind joins nothing: its next solve advances
//!   a pooled base state by the batch;
//! * goes through the same admission control, target validation, and
//!   execution path as [`Service::solve`], so responses are
//!   **byte-identical** to the text path on the same snapshot (pinned
//!   by `tests/api_v2_differential.rs`, including across epoch bumps
//!   and cache evictions).
//!
//! [`Query`]: adp_core::query::Query

use crate::error::ServiceError;
use crate::request::{SolveResponse, Target};
use crate::stats::StatsInner;
use crate::{EpochState, Service};
use adp_core::query::{parse_query, Query};
use adp_core::solver::{AdpOptions, PreparedQuery};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A prepared query handle bound to a [`Service`]. Cheap to use from
/// many threads (`Send + Sync`; the epoch binding is a small mutex held
/// only for the lookup), and valid for as long as the service lives —
/// epoch bumps re-bind automatically.
pub struct Statement<'s> {
    svc: &'s Service,
    query: Arc<Query>,
    /// The cache-key text, computed once at prepare time and cloned
    /// (never re-derived) on re-binds.
    normalized: String,
    fingerprint: u64,
    /// The epoch this statement last resolved a plan for, plus that
    /// plan. `None` only before the first bind.
    bound: Mutex<Option<(u64, Arc<PreparedQuery>)>>,
}

impl Service {
    /// Prepares a query for repeated execution: parses and fingerprints
    /// `query_text` once, compiles (or finds) the plan for the current
    /// epoch in the shared cache, and returns the [`Statement`] handle.
    /// Preparation is not a solve: it counts no request and consumes no
    /// admission slot.
    pub fn prepare(&self, query_text: &str) -> Result<Statement<'_>, ServiceError> {
        let query = parse_query(query_text).map_err(ServiceError::Query)?;
        Ok(self.prepare_query(query))
    }

    /// [`prepare`](Self::prepare) for an already-built [`Query`] (e.g.
    /// from a [`QueryBuilder`](adp_core::query::QueryBuilder)) — no
    /// text ever exists, so nothing is parsed at all.
    pub fn prepare_query(&self, query: Query) -> Statement<'_> {
        let normalized = query.normalized_text();
        let fingerprint = adp_core::query::fingerprint_of_normalized(&normalized);
        let stmt = Statement {
            svc: self,
            query: Arc::new(query),
            normalized,
            fingerprint,
            bound: Mutex::new(None),
        };
        // Warm the binding for the current epoch so the first solve is
        // already on the hot path.
        stmt.bind(&self.current());
        stmt
    }
}

impl Statement<'_> {
    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The owning service (subscription registration checks that a
    /// statement is used against the service that prepared it).
    pub(crate) fn service(&self) -> &Service {
        self.svc
    }

    /// The parsed query, shareably (subscription groups hold it to plan
    /// each epoch they answer at).
    pub(crate) fn query_arc(&self) -> &Arc<Query> {
        &self.query
    }

    /// The canonical cache-key text (see
    /// [`Query::normalized_text`](adp_core::query::Query::normalized_text)),
    /// computed once at prepare time.
    pub fn normalized_text(&self) -> &str {
        &self.normalized
    }

    /// The stable FNV-1a fingerprint keying the plan-cache shard.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The epoch of the currently bound plan (the answering epoch of
    /// the next hot-path solve, absent concurrent bumps).
    pub fn bound_epoch(&self) -> u64 {
        self.bound
            .lock()
            // adp-lint: allow(panic-path) -- lock poisoning requires a
            // prior panic while holding; propagating beats torn state.
            .unwrap()
            .as_ref()
            .map(|(e, _)| *e)
            // adp-lint: allow(panic-path) -- prepare() always binds
            // before handing the statement out; None is unreachable.
            .expect("statements are bound at prepare time")
    }

    /// Executes the statement against the service's current epoch.
    /// Byte-identical to `Service::solve` with the same query text and
    /// target, minus the per-call text work. Admission-controlled like
    /// every solve; counts as one request in [`Service::stats`] (the
    /// hot path is a cache hit — the plan *is* cached on the handle).
    pub fn solve(&self, target: Target) -> Result<SolveResponse, ServiceError> {
        self.solve_with(target, None, None)
    }

    /// [`solve`](Self::solve) with per-call solver options and/or a
    /// wall-clock budget (the [`SolveRequest`](crate::SolveRequest)
    /// extras, as call parameters instead of request fields).
    pub fn solve_with(
        &self,
        target: Target,
        opts: Option<&AdpOptions>,
        budget: Option<Duration>,
    ) -> Result<SolveResponse, ServiceError> {
        let _permit = self.svc.try_admit()?;
        Service::validate_target(target)?;

        let plan_start = Instant::now();
        let current = self.svc.current();
        let (prep, cache_hit) = self.bind(&current);
        StatsInner::bump(&self.svc.stats.requests);
        StatsInner::bump(if cache_hit {
            &self.svc.stats.cache_hits
        } else {
            &self.svc.stats.cache_misses
        });
        let plan_micros = plan_start.elapsed().as_micros() as u64;

        self.svc.execute(
            &prep,
            current.epoch,
            cache_hit,
            plan_micros,
            target,
            opts,
            budget,
        )
    }

    /// Resolves the plan for the epoch of `current`: the bound plan
    /// when the epoch still matches (the zero-text-work hot path),
    /// otherwise a re-bind through the shared plan cache under the
    /// stored normalized key. Returns `(plan, hit)` where `hit` mirrors
    /// the text path's cache-hit notion: `true` unless a plan had to be
    /// compiled.
    fn bind(&self, current: &EpochState) -> (Arc<PreparedQuery>, bool) {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let mut bound = self.bound.lock().unwrap();
        if let Some((e, prep)) = bound.as_ref() {
            if *e == current.epoch {
                return (Arc::clone(prep), true);
            }
        }
        let (prep, hit, evicted) = self.svc.plan_for(
            self.fingerprint,
            self.normalized.clone(),
            &self.query,
            current,
        );
        StatsInner::add(&self.svc.stats.evicted, evicted);
        let superseded = bound.replace((current.epoch, Arc::clone(&prep)));
        // Concurrent solves wait on `bound`; the superseded plan (and
        // whatever it evaluated) is freed after they are let go.
        drop(bound);
        drop(superseded);
        (prep, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, SolveRequest};
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    const Q: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

    #[test]
    fn statement_is_send_and_sync() {
        fn _assert<T: Send + Sync>() {}
        _assert::<Statement<'static>>();
    }

    #[test]
    fn statement_matches_text_path() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        assert_eq!(stmt.normalized_text(), "(A,B) :- R1(A), R2(A,B), R3(B)");
        for k in 0..=4u64 {
            let a = stmt.solve(Target::Outputs(k)).unwrap();
            let b = svc.solve(&SolveRequest::outputs(Q, k)).unwrap();
            assert_eq!(a.outcome.cost, b.outcome.cost, "k={k}");
            assert_eq!(a.outcome.solution, b.outcome.solution, "k={k}");
            assert_eq!(a.outcome.achieved, b.outcome.achieved, "k={k}");
            assert_eq!(a.stats.epoch, b.stats.epoch, "k={k}");
            assert_eq!(a.stats.solver, b.stats.solver, "k={k}");
            assert!(a.stats.cache_hit, "statement path is always bound (k={k})");
        }
    }

    #[test]
    fn prepare_query_builder_needs_no_text() {
        let svc = Service::new(chain_db());
        let q = Query::builder("Q")
            .head(["A", "B"])
            .atom("R1", ["A"])
            .atom("R2", ["A", "B"])
            .atom("R3", ["B"])
            .build()
            .unwrap();
        let stmt = svc.prepare_query(q);
        let a = stmt.solve(Target::Outputs(2)).unwrap();
        let b = svc.solve(&SolveRequest::outputs(Q, 2)).unwrap();
        assert_eq!(a.outcome.solution, b.outcome.solution);
        assert!(
            b.stats.cache_hit,
            "builder statement shares the text path's plan"
        );
    }

    #[test]
    fn statement_rebinds_across_epoch_bumps() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let before = stmt.solve(Target::Outputs(1)).unwrap();
        assert_eq!(before.stats.epoch, 0);
        assert_eq!(stmt.bound_epoch(), 0);

        svc.delete_tuples(&[("R2", 0), ("R2", 1)]).unwrap();
        let after = stmt.solve(Target::Outputs(1)).unwrap();
        assert_eq!(after.stats.epoch, 1);
        assert_eq!(stmt.bound_epoch(), 1);
        assert!(!after.stats.cache_hit, "fresh epoch = fresh plan");
        assert_eq!(after.outcome.output_count, 1);
        // The re-bound statement still answers like the text path.
        let text = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert_eq!(after.outcome.solution, text.outcome.solution);
        assert!(
            text.stats.cache_hit,
            "text path hits the statement's re-bound plan"
        );

        svc.restore_tuples(&[("R2", 0), ("R2", 1)]).unwrap();
        let restored = stmt.solve(Target::Outputs(1)).unwrap();
        assert_eq!(restored.stats.epoch, 2);
        assert_eq!(restored.outcome.solution, before.outcome.solution);
    }

    fn bound_plan(stmt: &Statement<'_>) -> Arc<PreparedQuery> {
        Arc::clone(&stmt.bound.lock().unwrap().as_ref().unwrap().1)
    }

    /// The epoch-0 plan is the base plan; every later epoch's plan is
    /// anchored on that same base, which outlives the invalidation of
    /// epoch 0 without being counted as a cached plan.
    #[test]
    fn epoch_plans_anchor_on_the_statements_base_plan() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let base = bound_plan(&stmt);
        assert!(base.anchor().is_none());
        let at_base = stmt.solve(Target::Outputs(2)).unwrap();
        for (epoch, index) in [(1, 0), (2, 2)] {
            assert_eq!(svc.delete_tuples(&[("R2", index)]).unwrap(), epoch);
            let r = stmt.solve(Target::Outputs(1)).unwrap();
            assert!(!r.stats.cache_hit);
            assert!(Arc::ptr_eq(bound_plan(&stmt).anchor().unwrap(), &base));
            assert_eq!(svc.cached_plans(), 1, "the base is not a cache entry");
        }
        // The text path and a statement prepared later share the plan.
        let text = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert!(text.stats.cache_hit);
        let late = svc.prepare(Q).unwrap();
        assert!(Arc::ptr_eq(bound_plan(&late).anchor().unwrap(), &base));
        // Restoring everything answers like epoch 0 again.
        svc.restore_tuples(&[("R2", 0), ("R2", 2)]).unwrap();
        assert_eq!(
            stmt.solve(Target::Outputs(2)).unwrap().outcome,
            at_base.outcome
        );
    }

    #[test]
    fn statement_survives_cache_eviction() {
        // A 1-entry cache: other queries evict the statement's entry,
        // but the handle keeps its binding and stays correct.
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                cache_shards: 1,
                cache_entries_per_shard: 1,
                ..Default::default()
            },
        );
        let stmt = svc.prepare(Q).unwrap();
        let a = stmt.solve(Target::Outputs(2)).unwrap();
        svc.solve(&SolveRequest::outputs("Q(A) :- R1(A)", 1))
            .unwrap(); // evicts
        assert_eq!(svc.cached_plans(), 1);
        let b = stmt.solve(Target::Outputs(2)).unwrap();
        assert_eq!(a.outcome.solution, b.outcome.solution);
        assert!(b.stats.cache_hit, "the handle itself is the cache");
    }

    #[test]
    fn statement_respects_admission_and_stats() {
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                max_in_flight: 1,
                ..Default::default()
            },
        );
        let stmt = svc.prepare(Q).unwrap();
        let permit = svc.try_admit().unwrap();
        assert!(stmt.solve(Target::Outputs(1)).unwrap_err().is_overloaded());
        drop(permit);
        stmt.solve(Target::Outputs(1)).unwrap();
        let s = svc.stats();
        assert_eq!(s.requests, 1, "prepare and shed attempts are not requests");
        assert_eq!(s.cache_hits + s.cache_misses, s.requests);
        assert_eq!(s.shed, 1);
    }

    #[test]
    fn statement_validates_targets() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        for rho in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                stmt.solve(Target::Ratio(rho)),
                Err(ServiceError::BadRequest(_))
            ));
        }
        let r = stmt.solve(Target::Ratio(1.0)).unwrap();
        assert_eq!(r.outcome.achieved, r.outcome.output_count);
    }
}
