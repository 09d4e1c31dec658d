//! Plan-once/execute-many entry points for repeated ADP solving.
//!
//! The paper's workloads solve the *same* `(Q, D)` pair many times: once
//! per removal ratio ρ, once per solver variant in the ablations, and
//! once more to verify each reported deletion set. Before this module
//! every one of those calls re-resolved names, re-derived the join
//! order, rebuilt every hash index, and re-ran the join.
//!
//! [`PreparedQuery`] compiles the query once against a shared database
//! and caches the three reusable artifacts behind an `Arc`:
//!
//! * the [`QueryPlan`] (join order, dense-id binding slots),
//! * the [`JoinIndexes`] (per-atom hash indexes over the full input),
//! * the root [`EvalResult`] (witnesses + outputs + incidence).
//!
//! [`PreparedQuery::solve`] then behaves exactly like
//! [`compute_adp_arc`](super::compute_adp_arc) — which is now a thin
//! wrapper over it — except that every solve after the first starts from
//! the cached evaluation, and
//! [`PreparedQuery::removed_outputs`] verifies deletion sets by masked
//! re-execution ([`AliveMask`]) instead of rebuilding the database.
//!
//! Everything is **`Send + Sync`** (shared ownership via `Arc`, lazy
//! caches via [`OnceLock`]), so one compiled plan can be shared
//! read-only by every worker of an [`adp_runtime::ThreadPool`]: the
//! parallel ρ-sweeps in `adp-bench` and the parallel inner loops in
//! [`brute`](super::brute) and [`greedy`](super::greedy) all borrow the
//! same `PreparedQuery`. A compile-time assertion in the test module
//! keeps the bound from regressing.

use super::view::View;
use super::{AdpOptions, AdpOutcome};
use crate::error::SolveError;
use crate::query::Query;
use adp_engine::database::Database;
use adp_engine::delta::DeltaProvenance;
use adp_engine::error::AdpError;
use adp_engine::join::EvalResult;
use adp_engine::plan::{AliveMask, JoinIndexes, QueryPlan};
use adp_engine::provenance::{ProvenanceIndex, TupleRef};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Builds a scored [`DeltaProvenance`] for an evaluation, fanning the
/// initial scoring pass out over the global [`adp_runtime`] pool (the
/// same range-partitioned scoring the parallel greedy rescan used)
/// when `parallel` is set and the instance is large enough. Disjoint
/// output ranges contribute additively, so the installed scores are
/// equal to the sequential build's.
pub(crate) fn build_delta_provenance(
    eval: &EvalResult,
    parallel: bool,
) -> Result<DeltaProvenance, AdpError> {
    let mut delta = DeltaProvenance::new_unscored(eval)?;
    let slots = delta.output_slots();
    let pool = adp_runtime::global();
    if parallel
        && pool.threads() > 1
        && eval.witness_count() >= super::greedy::PAR_SCORING_MIN_WITNESSES
        && slots > 1
    {
        let chunk = slots.div_ceil(pool.threads() * 2).max(1);
        let parts = pool.par_indexed(slots.div_ceil(chunk), |i| {
            delta.score_range(i * chunk, ((i + 1) * chunk).min(slots))
        });
        delta.install_scores(parts);
    } else {
        let scores = delta.score_range(0, slots);
        delta.install_scores(vec![scores]);
    }
    Ok(delta)
}

/// A compiled query plan plus lazily built, cached indexes and
/// evaluation result, all against one shared database. `Send + Sync`:
/// the caches are [`OnceLock`]s, so concurrent workers race benignly on
/// first use and share afterwards.
pub struct PlannedEval {
    db: Arc<Database>,
    plan: QueryPlan,
    indexes: OnceLock<Arc<JoinIndexes>>,
    eval: OnceLock<Arc<EvalResult>>,
    /// Pristine (all-alive) provenance over the root evaluation, for
    /// O(Δ) set verification (`killed_by_set`) and participating-tuple
    /// lookups without rebuilding the postings per solve.
    prov: OnceLock<Result<Arc<ProvenanceIndex>, AdpError>>,
    /// Pristine scored delta index, built once. Greedy solves never
    /// mutate it: they run on states from `idle`, and only a checkout
    /// that finds the pool empty clones it.
    delta: OnceLock<Result<Arc<DeltaProvenance>, AdpError>>,
    /// Idle greedy states: pristine clones of `delta` with selection
    /// enabled, keyed by their selectable mask. See [`GreedyLease`].
    idle: Mutex<Vec<(Vec<bool>, DeltaProvenance)>>,
}

impl PlannedEval {
    /// Compiles the plan for `query` over `db`. No data is scanned until
    /// the first evaluation.
    pub fn new(query: &Query, db: Arc<Database>) -> Self {
        let plan = QueryPlan::new(&db, query.atoms(), query.head());
        PlannedEval {
            db,
            plan,
            indexes: OnceLock::new(),
            eval: OnceLock::new(),
            prov: OnceLock::new(),
            delta: OnceLock::new(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The shared database the plan was compiled against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    fn indexes(&self) -> Arc<JoinIndexes> {
        Arc::clone(
            self.indexes
                .get_or_init(|| Arc::new(self.plan.build_indexes(&self.db))),
        )
    }

    /// The full evaluation `Q(D)`, computed once and cached.
    pub fn eval(&self) -> Arc<EvalResult> {
        Arc::clone(self.eval.get_or_init(|| {
            if self
                .plan
                .rels()
                .iter()
                .any(|&r| self.db.relation_by_id(r).is_empty())
            {
                // Skip the index build: the result is empty regardless.
                Arc::new(self.plan.execute_once(&self.db))
            } else {
                // Distinct OnceLock from `self.eval`, so no re-entrancy.
                let indexes = self.indexes();
                Arc::new(self.plan.execute(&self.db, &indexes))
            }
        }))
    }

    /// `Q(D − S)` for the deletion state `mask`, reusing the cached plan
    /// and indexes. Witness indices stay in original coordinates.
    pub fn eval_masked(&self, mask: &AliveMask) -> EvalResult {
        self.plan.execute_masked(&self.db, &self.indexes(), mask)
    }

    /// The pristine provenance index over the root evaluation, computed
    /// once and shared. Used for `O(Δ)` deletion-set verification and
    /// participating-tuple lookups.
    pub fn provenance(&self) -> Result<Arc<ProvenanceIndex>, AdpError> {
        self.prov
            .get_or_init(|| ProvenanceIndex::try_new(&self.eval()).map(Arc::new))
            .clone()
    }

    /// The pristine scored [`DeltaProvenance`] template, computed once;
    /// greedy solves clone it when the state pool is empty. The first
    /// builder decides whether the one-time scoring pass may fan out
    /// over the global pool (`parallel`); either way the installed
    /// scores are equal, so later callers share the cached template
    /// regardless of their own flag.
    pub fn delta_template(&self, parallel: bool) -> Result<Arc<DeltaProvenance>, AdpError> {
        self.delta
            .get_or_init(|| build_delta_provenance(&self.eval(), parallel).map(Arc::new))
            .clone()
    }

    /// Checks a pristine greedy state with selection enabled on
    /// `selectable` out of the pool, or clones the template when no idle
    /// state has that mask. The state returns to the pool only through
    /// [`GreedyLease::release`].
    pub(crate) fn checkout(
        &self,
        selectable: &[bool],
        parallel: bool,
    ) -> Result<GreedyLease<'_>, AdpError> {
        let pooled = {
            let mut idle = self.idle_states();
            let at = idle
                .iter()
                .rposition(|(mask, _)| mask.as_slice() == selectable);
            at.map(|i| idle.swap_remove(i).1)
        };
        let delta = match pooled {
            Some(delta) => delta,
            None => {
                let mut delta = DeltaProvenance::clone(&*self.delta_template(parallel)?);
                delta.enable_selection(selectable.to_vec());
                delta
            }
        };
        Ok(GreedyLease {
            delta,
            home: Some((self, selectable.to_vec())),
        })
    }

    /// Idle greedy states currently pooled, over every mask.
    pub(crate) fn pooled_states(&self) -> usize {
        self.idle_states().len()
    }

    fn idle_states(&self) -> MutexGuard<'_, Vec<(Vec<bool>, DeltaProvenance)>> {
        // A panic elsewhere cannot leave the list half-updated (it only
        // ever pushes or removes whole entries), so a poisoned lock is
        // safe to reuse.
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An all-alive mask shaped for this plan's atoms.
    pub fn fresh_mask(&self, query: &Query) -> AliveMask {
        AliveMask::all_alive(&self.db, query.atoms())
    }
}

/// Rounds may kill at most `1 / ROLLBACK_DIVISOR` of the witnesses for
/// their state to be rolled back and pooled. Past that, restoring the
/// picks costs about as much as the next checkout's template clone, and
/// the state is dropped instead.
const ROLLBACK_DIVISOR: usize = 4;

/// One greedy solve's scored [`DeltaProvenance`], selection enabled.
///
/// Root views of a prepared query check it out of the plan's pool
/// ([`PlannedEval::checkout`]); derived views build a private one. The
/// lease is also the pool's drop guard: the state left the pool at
/// checkout and goes back only through [`release`](Self::release), so a
/// solve that returns early or unwinds drops its state instead of
/// returning it half-deleted.
pub(crate) struct GreedyLease<'a> {
    delta: DeltaProvenance,
    /// The pool to return to, and the mask the state was built for.
    home: Option<(&'a PlannedEval, Vec<bool>)>,
}

impl<'a> GreedyLease<'a> {
    /// A lease with no pool behind it: `release` just drops it.
    pub(crate) fn private(delta: DeltaProvenance) -> Self {
        GreedyLease { delta, home: None }
    }

    /// The state the rounds run on.
    pub(crate) fn delta(&mut self) -> &mut DeltaProvenance {
        &mut self.delta
    }

    /// Ends the solve. `picks` must be exactly the tuples the rounds
    /// deleted. If they killed at most a `1 / ROLLBACK_DIVISOR` share of
    /// the witnesses, they are restored and the — again pristine — state
    /// returns to its pool; otherwise it is dropped and a later checkout
    /// clones the template.
    pub(crate) fn release(self, picks: &[TupleRef]) {
        let GreedyLease { mut delta, home } = self;
        let Some((planned, mask)) = home else {
            return;
        };
        let slots = delta.witness_slots();
        let killed = slots - delta.live_witnesses() as usize;
        if killed > slots / ROLLBACK_DIVISOR {
            return;
        }
        delta.restore_batch(picks);
        let pristine = delta.live_witnesses() as usize == slots && delta.removed_outputs() == 0;
        debug_assert!(pristine, "picks do not cover the rounds' deletions");
        if pristine {
            planned.idle_states().push((mask, delta));
        }
    }
}

/// A query compiled once against a shared database, ready to be solved
/// for any `k` (and any option set) without re-planning, re-indexing, or
/// re-joining — from any thread.
pub struct PreparedQuery {
    query: Query,
    db: Arc<Database>,
    planned: Arc<PlannedEval>,
}

impl PreparedQuery {
    /// Compiles `query` against `db`. Panics (like
    /// [`evaluate`](adp_engine::join::evaluate)) if a body relation is
    /// missing from the database or its attribute set disagrees.
    pub fn new(query: Query, db: Arc<Database>) -> Self {
        let planned = Arc::new(PlannedEval::new(&query, Arc::clone(&db)));
        PreparedQuery { query, db, planned }
    }

    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The compiled plan (join order, dense-id slots).
    pub fn plan(&self) -> &QueryPlan {
        self.planned.plan()
    }

    /// The cached root evaluation `Q(D)`.
    pub fn eval(&self) -> Arc<EvalResult> {
        self.planned.eval()
    }

    /// `|Q(D)|`, counted component-wise so cross products of
    /// disconnected queries are never materialized.
    pub fn output_count(&self) -> u64 {
        super::count_outputs(&self.root_view())
    }

    /// Solves `ADP(Q, D, k)`, reusing the cached plan, indexes, and
    /// evaluation across calls. Semantically identical to
    /// [`compute_adp_arc`](super::compute_adp_arc).
    pub fn solve(&self, k: u64, opts: &AdpOptions) -> Result<AdpOutcome, SolveError> {
        super::solve_prepared(self, k, opts)
    }

    /// Number of outputs removed by deleting `deletions`:
    /// `|Q(D)| − |Q(D − S)|`, answered in `O(Δ)` from the cached
    /// provenance postings (`killed_by_set`) — no re-join at all. Falls
    /// back to [`removed_outputs_masked`](Self::removed_outputs_masked)
    /// if the instance is too large to index.
    pub fn removed_outputs(&self, deletions: &[TupleRef]) -> u64 {
        if deletions.is_empty() {
            return 0;
        }
        match self.planned.provenance() {
            Ok(prov) => prov.killed_by_set(deletions),
            Err(_) => self.removed_outputs_masked(deletions),
        }
    }

    /// [`removed_outputs`](Self::removed_outputs) by masked re-execution
    /// of the cached plan — the full re-evaluation oracle the delta path
    /// is differentially tested against.
    pub fn removed_outputs_masked(&self, deletions: &[TupleRef]) -> u64 {
        let before = self.eval().output_count();
        if deletions.is_empty() {
            return 0;
        }
        let mut mask = self.planned.fresh_mask(&self.query);
        mask.kill_all(deletions);
        before - self.planned.eval_masked(&mask).output_count()
    }

    /// Greedy states idle in this plan's pool, over every selectable
    /// mask. Never more than the peak number of concurrent greedy solves
    /// on this plan.
    pub fn pooled_states(&self) -> usize {
        self.planned.pooled_states()
    }

    /// Re-binds the already-parsed query to a fresh database snapshot,
    /// compiling a new plan (and new lazy caches) against `db` while the
    /// original `PreparedQuery` stays fully usable against its own
    /// snapshot. This is the epoch-advance path for services and
    /// statements: parsing is skipped, and because each epoch snapshot
    /// shares its sealed segments by `Arc`, the per-segment join indexes
    /// cached inside those segments are reused by the new binding's
    /// `JoinIndexes` — only overlay-dependent state is rebuilt.
    pub fn rebind(&self, db: Arc<Database>) -> PreparedQuery {
        PreparedQuery::new(self.query.clone(), db)
    }

    /// The root solver view, carrying the shared evaluation cache.
    pub(crate) fn root_view(&self) -> View {
        View::root_planned(
            self.query.clone(),
            Arc::clone(&self.db),
            Arc::clone(&self.planned),
        )
    }
}

#[cfg(test)]
// Pins the legacy v1 entry points; the fluent v2 path is
// differentially tested against them.
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::analysis::roles::endogenous_atoms;
    use crate::query::parse_query;
    use crate::solver::{removed_outputs, AdpOptions};
    use adp_engine::schema::attrs;

    /// Satellite requirement of the `Send + Sync` migration: the shared
    /// solver types must stay shareable across threads. This fails to
    /// *compile* if an `Rc`/`RefCell` sneaks back into them.
    #[test]
    fn prepared_types_are_send_and_sync() {
        fn _assert<T: Send + Sync>() {}
        _assert::<PreparedQuery>();
        _assert::<PlannedEval>();
        _assert::<View>();
        _assert::<Database>();
        _assert::<QueryPlan>();
        _assert::<JoinIndexes>();
        _assert::<EvalResult>();
        _assert::<AdpOptions>();
        _assert::<AdpOutcome>();
    }

    fn figure1() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        db
    }

    #[test]
    fn solve_matches_compute_adp_across_k() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let db = Arc::new(figure1());
        let prep = PreparedQuery::new(q.clone(), Arc::clone(&db));
        assert_eq!(prep.output_count(), 4);
        for k in 1..=4 {
            let a = prep.solve(k, &AdpOptions::default()).unwrap();
            let b = super::super::compute_adp_arc(&q, Arc::clone(&db), k, &AdpOptions::default())
                .unwrap();
            assert_eq!(a.cost, b.cost, "k={k}");
            assert_eq!(a.output_count, b.output_count);
            assert_eq!(a.exact, b.exact);
        }
    }

    #[test]
    fn eval_is_cached_across_solves() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation("PS", attrs(&["SK", "PK"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2]]);
        let prep = PreparedQuery::new(q, Arc::new(db));
        let e1 = prep.eval();
        prep.solve(1, &AdpOptions::counting()).unwrap();
        let e2 = prep.eval();
        assert!(Arc::ptr_eq(&e1, &e2), "evaluation must be computed once");
    }

    #[test]
    fn eval_is_computed_once_under_concurrent_first_use() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let prep = PreparedQuery::new(q, Arc::new(figure1()));
        let pool = adp_runtime::ThreadPool::new(4);
        let evals = pool.par_indexed(16, |_| prep.eval());
        for e in &evals {
            assert!(
                Arc::ptr_eq(e, &evals[0]),
                "all threads must observe the same cached evaluation"
            );
        }
        assert_eq!(evals[0].output_count(), 4);
    }

    #[test]
    fn masked_removed_outputs_matches_rebuild_verifier() {
        let q = parse_query("Q2(A,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let db = Arc::new(figure1());
        let prep = PreparedQuery::new(q.clone(), Arc::clone(&db));
        for atom in 0..3usize {
            for idx in 0..db.relations()[atom].len() as u32 {
                let dels = vec![TupleRef::new(atom, idx)];
                assert_eq!(
                    prep.removed_outputs(&dels),
                    removed_outputs(&q, &db, &dels),
                    "atom {atom} idx {idx}"
                );
            }
        }
        assert_eq!(prep.removed_outputs(&[]), 0);
    }

    #[test]
    fn disconnected_queries_count_without_materializing() {
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["B"]), &[&[10], &[20], &[30]]);
        let prep = PreparedQuery::new(q, Arc::new(db));
        assert_eq!(prep.output_count(), 6);
        let out = prep.solve(6, &AdpOptions::default()).unwrap();
        assert!(out.exact);
    }

    #[test]
    fn rebind_tracks_the_new_snapshot_without_disturbing_the_old() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let mut base = figure1();
        base.seal_all(2);
        let old = Arc::new(base);
        let prep = PreparedQuery::new(q, Arc::clone(&old));
        assert_eq!(prep.output_count(), 4);

        // Next epoch: O(Δ) overlay clone, tombstone one R2 tuple.
        let mut next = (*old).clone();
        let rel = next.rel_id("R2").unwrap();
        let stable = next.relation_by_id(rel).stable_id_at(1);
        assert!(next.relation_mut_by_id(rel).delete_stable(stable));
        let next = Arc::new(next);

        let rebound = prep.rebind(Arc::clone(&next));
        assert!(Arc::ptr_eq(rebound.database(), &next));
        let fresh = PreparedQuery::new(rebound.query().clone(), next);
        assert_eq!(rebound.output_count(), fresh.output_count());
        assert_eq!(rebound.eval().outputs, fresh.eval().outputs);
        // The original binding still answers over its own epoch.
        assert_eq!(prep.output_count(), 4);
    }

    /// `Q(A,B) :- R1(A), R2(A,B), R3(B)` over the full `dom × dom` grid
    /// on `R2`: `dom²` witnesses, and each `R1`/`R3` tuple kills `dom` of
    /// them — few enough for a small solve to roll back.
    fn grid(dom: u64) -> (Query, Arc<Database>) {
        fn rows(v: &[Vec<u64>]) -> Vec<&[u64]> {
            v.iter().map(|t| t.as_slice()).collect()
        }
        let r1: Vec<Vec<u64>> = (0..dom).map(|a| vec![a]).collect();
        let r2: Vec<Vec<u64>> = (0..dom * dom).map(|i| vec![i % dom, i / dom]).collect();
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &rows(&r1));
        db.add_relation("R2", attrs(&["A", "B"]), &rows(&r2));
        db.add_relation("R3", attrs(&["B"]), &rows(&r1));
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        (q, Arc::new(db))
    }

    fn greedy() -> AdpOptions {
        AdpOptions {
            force_greedy: true,
            ..Default::default()
        }
    }

    /// A state that rolled back and checked in is indistinguishable from
    /// a fresh clone of the template with selection enabled; a solve
    /// that kills every witness drops its state instead.
    #[test]
    fn checked_in_state_equals_the_template() {
        let (q, db) = grid(8);
        let prep = PreparedQuery::new(q, db);
        let first = prep.solve(1, &greedy()).unwrap();
        assert_eq!(prep.pooled_states(), 1, "a small solve checks its state in");

        let endo = endogenous_atoms(prep.query());
        let mut fresh = DeltaProvenance::clone(&prep.planned.delta_template(false).unwrap());
        fresh.enable_selection(endo.clone());
        let mut lease = prep.planned.checkout(&endo, false).unwrap();
        assert_eq!(prep.pooled_states(), 0, "checkout takes the pooled state");
        let pooled = lease.delta();
        assert_eq!(pooled.profits(), fresh.profits());
        assert_eq!(pooled.live_counts(), fresh.live_counts());
        assert_eq!(pooled.live_outputs(), fresh.live_outputs());
        assert_eq!(pooled.live_witnesses(), fresh.live_witnesses());
        assert_eq!(
            pooled.best_profit_candidate(),
            fresh.best_profit_candidate()
        );
        assert_eq!(pooled.best_count_candidate(), fresh.best_count_candidate());
        lease.release(&[]);
        assert_eq!(prep.pooled_states(), 1);
        assert_eq!(prep.solve(1, &greedy()).unwrap(), first);

        let total = prep.output_count();
        prep.solve(total, &greedy()).unwrap();
        assert_eq!(prep.pooled_states(), 0, "a full solve drops its state");
        assert_eq!(prep.solve(1, &greedy()).unwrap(), first);
    }

    /// The lease is the pool's drop guard: a state whose solve unwound
    /// mid-round never returns to the pool.
    #[test]
    fn a_state_whose_solve_panicked_is_not_returned() {
        let (q, db) = grid(8);
        let prep = PreparedQuery::new(q, db);
        let first = prep.solve(1, &greedy()).unwrap();
        assert_eq!(prep.pooled_states(), 1);
        let endo = endogenous_atoms(prep.query());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = prep.planned.checkout(&endo, false).unwrap();
            let (_, atom, idx) = lease.delta().best_profit_candidate().unwrap();
            lease.delta().delete(TupleRef::new(atom, idx));
            panic!("solve unwound with a pick applied");
        }));
        assert!(unwound.is_err());
        assert_eq!(prep.pooled_states(), 0, "the dirty state must not return");
        assert_eq!(prep.solve(1, &greedy()).unwrap(), first);
        assert_eq!(prep.pooled_states(), 1);
    }

    /// Four threads solving one plan concurrently get exactly the
    /// answers of fresh sequential solves, and the pool never holds more
    /// states than there were concurrent solves.
    #[test]
    fn four_threads_on_one_plan_match_sequential_answers() {
        let (q, db) = grid(8);
        let ks: Vec<u64> = (1..=64).collect();
        let expected: Vec<AdpOutcome> = ks
            .iter()
            .map(|&k| {
                PreparedQuery::new(q.clone(), Arc::clone(&db))
                    .solve(k, &greedy())
                    .unwrap()
            })
            .collect();
        let shared = PreparedQuery::new(q, db);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, ks, expected, start) = (&shared, &ks, &expected, &start);
                s.spawn(move || {
                    // All four check out their first state together, so
                    // the pool starts empty under four concurrent solves.
                    start.wait();
                    for round in 0..3 {
                        for i in 0..ks.len() {
                            // Each thread walks the ks from its own offset,
                            // so small and large solves overlap.
                            let j = (i * 7 + t * 16 + round) % ks.len();
                            let got = shared.solve(ks[j], &greedy()).unwrap();
                            assert_eq!(got, expected[j], "thread {t} k={}", ks[j]);
                        }
                    }
                });
            }
        });
        assert!(shared.pooled_states() <= 4);
    }

    #[test]
    fn empty_instance_short_circuits() {
        let q = parse_query("Q(A) :- R(A), S(A)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        db.add_relation("S", attrs(&["A"]), &[]);
        let prep = PreparedQuery::new(q, Arc::new(db));
        assert_eq!(prep.output_count(), 0);
        assert_eq!(prep.eval().output_count(), 0);
    }
}
