//! Prepared-statement handles: compile once, bind targets many times.
//!
//! [`Service::solve`] is the text front door: every request parses and
//! normalizes its query string before the plan registry can even be
//! consulted. That is the right contract for untrusted wire-format
//! clients, but a caller holding a long-lived handle to a hot query
//! pays the text path on every call for nothing — the same "compile
//! once, bind parameters many times" gap prepared statements close in
//! SQL servers.
//!
//! [`Service::prepare`] runs the text path **once** and returns a
//! [`Statement`] that holds its query's plan record (the query, its
//! base plan and its epoch binding; see the service's `plans` module)
//! and the query's fingerprint. [`Statement::solve`] then:
//!
//! * on the hot path (epoch unchanged) takes the record's bound plan —
//!   **zero** query-text work: no parse, no normalization, no
//!   fingerprint, not even a registry probe (the `statement_hot_path`
//!   integration test pins this with the
//!   [`metrics`](adp_core::query::metrics) counters);
//! * after an epoch bump binds the record — shared with the text path
//!   and every statement on the same normalized query — to the new
//!   epoch, still with no text work. The new plan is anchored on the
//!   record's base plan, which the statement keeps alive, so a greedy
//!   statement's re-bind joins nothing: its next solve advances a
//!   pooled base state by the batch;
//! * goes through the same admission control, target validation, and
//!   execution path as [`Service::solve`], so responses are
//!   **byte-identical** to the text path on the same snapshot (pinned
//!   by `tests/api_v2_differential.rs`, including across epoch bumps
//!   and registry evictions).

use crate::error::ServiceError;
use crate::plans::QueryPlans;
use crate::request::{SolveResponse, Target};
use crate::Service;
use adp_core::query::{parse_query, Query};
use adp_core::solver::AdpOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A prepared query handle bound to a [`Service`]. Cheap to use from
/// many threads (`Send + Sync`; the record's epoch binding is a small
/// mutex held only for the lookup), and valid for as long as the
/// service lives — epoch bumps re-bind automatically.
pub struct Statement<'s> {
    svc: &'s Service,
    plans: Arc<QueryPlans>,
    fingerprint: u64,
}

impl Service {
    /// Prepares a query for repeated execution: parses and fingerprints
    /// `query_text` once, finds (or creates) its plan record, binds it
    /// to the current epoch, and returns the [`Statement`] handle.
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
        let plans = self.record(normalized, query);
        // Bind the current epoch so the first solve is already on the
        // hot path.
        plans.plan_at(&self.current());
        Statement {
            svc: self,
            plans,
            fingerprint,
        }
    }
}

impl Statement<'_> {
    /// The prepared query.
    pub fn query(&self) -> &Query {
        self.plans.query()
    }

    /// The owning service (subscription registration checks that a
    /// statement is used against the service that prepared it).
    pub(crate) fn service(&self) -> &Service {
        self.svc
    }

    /// The query's plan record (subscription groups hold it too).
    pub(crate) fn plans(&self) -> &Arc<QueryPlans> {
        &self.plans
    }

    /// The canonical registry-key text (see
    /// [`Query::normalized_text`](adp_core::query::Query::normalized_text)),
    /// computed once at prepare time.
    pub fn normalized_text(&self) -> &str {
        self.plans.normalized_text()
    }

    /// The stable FNV-1a fingerprint of the normalized text.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Executes the statement against the service's current epoch.
    /// Byte-identical to `Service::solve` with the same query text and
    /// target, minus the per-call text work. Admission-controlled like
    /// every solve; counts as one request in [`Service::stats`] (a cache
    /// hit unless the record had to plan for a new epoch).
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
        let (prep, cache_hit) = self.plans.plan_at(&current);
        self.svc.count_lookup(cache_hit);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, SolveRequest};
    use adp_core::solver::PreparedQuery;
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
        assert_eq!(bound(&stmt).0, 0);

        svc.delete_tuples(&[("R2", 0), ("R2", 1)]).unwrap();
        let after = stmt.solve(Target::Outputs(1)).unwrap();
        assert_eq!(after.stats.epoch, 1);
        assert_eq!(bound(&stmt).0, 1);
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

    /// The statement record's bound epoch and plan.
    fn bound(stmt: &Statement<'_>) -> (u64, Arc<PreparedQuery>) {
        let (epoch, plan) = stmt.plans().bound();
        (epoch, plan.expect("a solve bound the epoch"))
    }

    fn bound_plan(stmt: &Statement<'_>) -> Arc<PreparedQuery> {
        bound(stmt).1
    }

    /// The epoch-0 plan is the base plan; every later epoch's plan is
    /// anchored on that same base, which outlives the invalidation of
    /// epoch 0 and is counted as one cached plan with its epoch plan.
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
            assert_eq!(svc.cached_plans(), 1, "one record, one bound epoch plan");
        }
        // The text path and a statement prepared later share the plan.
        let text = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert!(text.stats.cache_hit);
        let late = svc.prepare(Q).unwrap();
        assert!(
            Arc::ptr_eq(late.plans(), stmt.plans()),
            "one record per query"
        );
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
        // A 1-record registry: the statement holds its record, so other
        // queries cannot evict it; unheld records evict each other.
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                cache_entries: 1,
                ..Default::default()
            },
        );
        let stmt = svc.prepare(Q).unwrap();
        let a = stmt.solve(Target::Outputs(2)).unwrap();
        svc.solve(&SolveRequest::outputs("Q(A) :- R1(A)", 1))
            .unwrap();
        assert_eq!(svc.stats().evicted, 0, "held records are never evicted");
        assert_eq!(svc.cached_plans(), 2);
        svc.solve(&SolveRequest::outputs("Q(B) :- R3(B)", 1))
            .unwrap(); // evicts the R1 record
        assert_eq!(svc.stats().evicted, 1);
        assert_eq!(svc.cached_plans(), 2);
        let b = stmt.solve(Target::Outputs(2)).unwrap();
        assert_eq!(a.outcome.solution, b.outcome.solution);
        assert!(b.stats.cache_hit, "the statement's record stays bound");
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
