//! The fluent solve API: one builder for every way to run ADP.
//!
//! [`Solve`] takes a query, a database (borrowed, shared, or already
//! compiled into a [`PreparedQuery`]), a target, and switches for
//! policy, deadline and the brute-force baseline:
//!
//! ```
//! use adp_core::query::parse_query;
//! use adp_core::solver::Solve;
//! use adp_engine::database::Database;
//! use adp_engine::schema::attrs;
//!
//! let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
//! let mut db = Database::new();
//! db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
//! db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
//! db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
//!
//! let report = Solve::new(&q, &db).k(2).run().unwrap();
//! assert_eq!(report.cost(), 1);
//! println!("{:?} via {}", report.explain.branch, report.explain.solver);
//! ```
//!
//! [`run`](Solve::run) has one path: compile or reuse the plan,
//! resolve the target, run the dichotomy, policy or brute-force solver
//! on the plan's root view, and build the outcome with the same code
//! as [`PreparedQuery::solve`] (the `api_v2_differential` proptest
//! suite pins the two together). The dichotomy solve shares
//! [`PreparedQuery::solve`]'s memo of root answers, so a
//! [`Solve::prepared`] run can be answered by an earlier solve on the
//! same plan. The [`Report`] carries an explain trace ([`Explain`])
//! next to the outcome: which dichotomy branch the root dispatch took,
//! which solver family answered, and where the microseconds went.

use super::brute::{self, BruteForceOptions};
use super::policy::{solve_policy, DeletionPolicy};
use super::prepared::PreparedQuery;
use super::{solver_label, AdpOptions, AdpOutcome, Branch, Mode};
use crate::analysis::is_ptime;
use crate::error::SolveError;
use crate::query::Query;
use adp_engine::database::Database;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The explain trace carried by every [`Report`]: which path answered
/// and where the time went. Assembled from stats the solver already
/// tracks — requesting it costs nothing extra.
#[derive(Clone, Copy, Debug)]
pub struct Explain {
    /// Root dispatch branch of the dichotomy (Algorithm 2).
    pub branch: Branch,
    /// Solver family that produced the answer: `"exact"` (poly-time
    /// shape ran to optimality), `"greedy"`, `"drastic-greedy"`,
    /// `"brute-force"`, or `"trivial"` (nothing to remove). Both this
    /// field and the serving layer's per-request stats come from
    /// [`solver_label`].
    pub solver: &'static str,
    /// The structural dichotomy's verdict for the query (Theorem 2):
    /// `true` means the exact polynomial algorithm applies.
    pub ptime: bool,
    /// Microseconds spent compiling the plan (zero when reusing a
    /// [`PreparedQuery`] via [`Solve::prepared`]).
    pub plan_micros: u64,
    /// Microseconds spent solving, including the one-time root
    /// evaluation on a fresh plan; a solve answered from the plan's
    /// memo of root answers spends only the lookup.
    pub solve_micros: u64,
}

/// A solved ADP instance: the outcome plus its [`Explain`] trace.
#[derive(Clone, Debug)]
pub struct Report {
    /// The solver outcome: cost, achieved removal, deletion set,
    /// exactness and truncation flags.
    pub outcome: AdpOutcome,
    /// Which path answered and where the time went.
    pub explain: Explain,
}

impl Report {
    /// Minimum deletions found (heuristic upper bound on hard shapes).
    pub fn cost(&self) -> u64 {
        self.outcome.cost
    }

    /// The deletion set, if the solve ran in report mode.
    pub fn deletion_set(&self) -> Option<&[adp_engine::provenance::TupleRef]> {
        self.outcome.solution.as_deref()
    }
}

/// How the builder reaches the database.
enum Db<'a> {
    Borrowed(&'a Database),
    Shared(Arc<Database>),
    Prepared(&'a PreparedQuery),
}

/// A fluent solve: query + database + target + switches, then
/// [`run`](Solve::run). See the module docs.
pub struct Solve<'a> {
    query: &'a Query,
    db: Db<'a>,
    k: Option<u64>,
    resilience: bool,
    policy: Option<DeletionPolicy>,
    opts: AdpOptions,
    brute: Option<BruteForceOptions>,
}

impl<'a> Solve<'a> {
    /// A solve of `query` over `db`. The database is cloned into shared
    /// ownership at [`run`](Solve::run) time; use
    /// [`shared`](Solve::shared) or [`prepared`](Solve::prepared) to
    /// avoid the clone.
    pub fn new(query: &'a Query, db: &'a Database) -> Self {
        Self::with_db(query, Db::Borrowed(db))
    }

    /// A solve of `query` over a shared database (no clone).
    pub fn shared(query: &'a Query, db: Arc<Database>) -> Self {
        Self::with_db(query, Db::Shared(db))
    }

    /// A solve against an already-compiled [`PreparedQuery`]: the plan,
    /// indexes, and root evaluation are reused, and the report's
    /// `plan_micros` is zero.
    pub fn prepared(prep: &'a PreparedQuery) -> Self {
        Self::with_db(prep.query(), Db::Prepared(prep))
    }

    fn with_db(query: &'a Query, db: Db<'a>) -> Self {
        Solve {
            query,
            db,
            k: None,
            resilience: false,
            policy: None,
            opts: AdpOptions::default(),
            brute: None,
        }
    }

    /// Target: remove at least `k` outputs (the paper's `ADP(Q, D, k)`).
    /// Exactly one of [`k`](Solve::k) and [`resilience`](Solve::resilience)
    /// must be set; `k = 0` (or no target at all) is rejected with
    /// [`SolveError::KZero`] and `k > |Q(D)|` with
    /// [`SolveError::KTooLarge`]. On an empty result any `k ≥ 1` is
    /// answered with the empty set at cost 0.
    pub fn k(mut self, k: u64) -> Self {
        self.k = Some(k);
        self.resilience = false;
        self
    }

    /// Target: empty the result entirely (`k = |Q(D)|`), the resilience
    /// problem. An already-empty result is answered with a trivial
    /// zero-cost report.
    pub fn resilience(mut self) -> Self {
        self.resilience = true;
        self.k = None;
        self
    }

    /// Restricts deletions to non-frozen relations (§9 extension, see
    /// [`DeletionPolicy`]). An unrestricted policy behaves exactly like
    /// no policy. Ignored by [`brute_force`](Solve::brute_force).
    pub fn policy(mut self, policy: DeletionPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Replaces the whole option block (mode, strategies, limits).
    pub fn opts(mut self, opts: AdpOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Counting vs. reporting mode ([`AdpOptions::mode`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.opts.mode = mode;
        self
    }

    /// Counting-only: skip materializing the deletion set.
    pub fn counting(self) -> Self {
        self.mode(Mode::Count)
    }

    /// Wall-clock deadline for the greedy rounds
    /// ([`AdpOptions::deadline`]): past it, the best-so-far deletion set
    /// is returned with [`AdpOutcome::truncated`] set.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// [`deadline`](Solve::deadline) as a budget from now.
    pub fn budget(self, budget: Duration) -> Self {
        // adp-lint: allow(wall-clock) -- deadline plumbing: converts a
        // budget to an absolute deadline; never read during solving.
        self.deadline(Instant::now() + budget)
    }

    /// Exhaustive-search baseline ([`brute::brute_force`]) instead of
    /// the dichotomy solver. Exact but exponential; the deletion policy
    /// is ignored (the baseline only knows the endogenous-candidates
    /// restriction in [`BruteForceOptions`]).
    pub fn brute_force(self) -> Self {
        self.brute_force_opts(BruteForceOptions::default())
    }

    /// [`brute_force`](Solve::brute_force) with explicit search options.
    pub fn brute_force_opts(mut self, opts: BruteForceOptions) -> Self {
        self.brute = Some(opts);
        self
    }

    /// Runs the solve and assembles the [`Report`]: compiles (or
    /// reuses) the plan, resolves the target, runs the brute-force,
    /// policy or dichotomy solver on the plan's root view, and builds
    /// the outcome the way every front door does.
    pub fn run(self) -> Result<Report, SolveError> {
        let ptime = is_ptime(self.query);

        // adp-lint: allow(wall-clock) -- explain-trace timing only; the
        // measured duration never feeds a decision.
        let plan_start = Instant::now();
        let owned;
        let (prep, plan_micros): (&PreparedQuery, u64) = match &self.db {
            Db::Prepared(prep) => (*prep, 0),
            Db::Borrowed(db) => {
                owned = PreparedQuery::new(self.query.clone(), Arc::new((*db).clone()));
                (&owned, plan_start.elapsed().as_micros() as u64)
            }
            Db::Shared(db) => {
                owned = PreparedQuery::new(self.query.clone(), Arc::clone(db));
                (&owned, plan_start.elapsed().as_micros() as u64)
            }
        };

        // Brute force ignores the policy; an unrestricted policy is no
        // policy at all.
        let policy = self.policy.as_ref().filter(|p| !p.frozen().is_empty());
        let branch = match (&self.brute, policy) {
            (Some(_), _) => Branch::BruteForce,
            (None, Some(_)) => Branch::Policy,
            (None, None) => Branch::of(self.query, &self.opts),
        };

        // Resolve the target. No target behaves like k = 0 (KZero).
        // Resilience asks for every output; on an empty result that is
        // k = 1, which the outcome answers with the empty set at cost 0.
        let k = match self.k {
            Some(k) => k,
            None if self.resilience => prep.output_count().max(1),
            None => 0,
        };

        // adp-lint: allow(wall-clock) -- explain-trace timing only; the
        // measured duration never feeds a decision.
        let solve_start = Instant::now();
        let outcome = super::outcome(k, self.opts.mode, || match (&self.brute, policy) {
            (Some(bf_opts), _) => brute::search(prep, k, bf_opts).map(Arc::new),
            (None, Some(policy)) => {
                solve_policy(&prep.root_view(), k, policy, &self.opts).map(Arc::new)
            }
            (None, None) => prep.solve_root(k, &self.opts),
        })?;
        let solve_micros = solve_start.elapsed().as_micros() as u64;
        Ok(Report {
            explain: Explain {
                branch,
                solver: solver_label(branch, &outcome, &self.opts, self.query),
                ptime,
                plan_micros,
                solve_micros,
            },
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use adp_engine::schema::attrs;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    /// `compute_adp` was the one-shot prepared solve; the fluent door
    /// must still match it on every outcome field.
    #[test]
    fn fluent_matches_legacy_compute_adp() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let db = chain_db();
        let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
        for k in 1..=3u64 {
            let v2 = Solve::new(&q, &db).k(k).run().unwrap();
            let direct = prep.solve(k, &AdpOptions::default()).unwrap();
            assert_eq!(v2.outcome, direct, "k={k}");
            assert_eq!(v2.explain.branch, Branch::Greedy);
            assert!(!v2.explain.ptime);
        }
    }

    #[test]
    fn missing_target_is_kzero_like_v1() {
        let q = parse_query("Q(A) :- R1(A)").unwrap();
        let db = chain_db();
        assert!(matches!(Solve::new(&q, &db).run(), Err(SolveError::KZero)));
        assert!(matches!(
            Solve::new(&q, &db).k(0).run(),
            Err(SolveError::KZero)
        ));
        assert!(matches!(
            Solve::new(&q, &db).k(99).run(),
            Err(SolveError::KTooLarge { .. })
        ));
    }

    #[test]
    fn resilience_matches_legacy_and_handles_empty() {
        // The legacy resilience answer: a solve at k = |Q(D)|.
        let q = parse_query("Q() :- R1(A), R2(A,B), R3(B)").unwrap();
        let db = chain_db();
        let v2 = Solve::new(&q, &db).resilience().run().unwrap();
        let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
        let direct = prep
            .solve(prep.output_count(), &AdpOptions::default())
            .unwrap();
        assert_eq!(v2.outcome, direct);
        assert_eq!(v2.explain.branch, Branch::Boolean);
        assert_eq!(v2.explain.solver, "exact");

        // Empty result: the trivial answer.
        let q2 = parse_query("Q(A) :- R1(A), R9(A)").unwrap();
        let mut db2 = Database::new();
        db2.add_relation("R1", attrs(&["A"]), &[&[1]]);
        db2.add_relation("R9", attrs(&["A"]), &[&[2]]);
        let r = Solve::new(&q2, &db2).resilience().run().unwrap();
        assert_eq!(r.outcome.cost, 0);
        assert_eq!(r.outcome.output_count, 0);
        assert_eq!(r.explain.solver, "trivial");
        assert_eq!(r.deletion_set(), Some(&[][..]));
    }

    /// The policy solver used to run on a fresh root view over a cloned
    /// database; on the prepared plan it must answer the same.
    #[test]
    fn policy_matches_legacy() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let db = chain_db();
        let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
        let policy = DeletionPolicy::unrestricted().freeze("R1");
        let opts = AdpOptions::default();
        for k in 1..=3u64 {
            let fresh = super::super::View::root(q.clone(), Arc::new(db.clone()));
            let legacy =
                super::super::outcome(k, opts.mode, || solve_policy(&fresh, k, &policy, &opts))
                    .unwrap();
            let borrowed = Solve::new(&q, &db)
                .k(k)
                .policy(policy.clone())
                .run()
                .unwrap();
            let prepared = Solve::prepared(&prep)
                .k(k)
                .policy(policy.clone())
                .run()
                .unwrap();
            assert_eq!(borrowed.outcome, legacy, "k={k}");
            assert_eq!(prepared.outcome, legacy, "k={k}");
            assert_eq!(prepared.explain.branch, Branch::Policy);
            assert_eq!(prepared.explain.plan_micros, 0);
        }
        // An unrestricted policy is a no-op, not the policy code path.
        let r = Solve::new(&q, &db)
            .k(1)
            .policy(DeletionPolicy::unrestricted())
            .run()
            .unwrap();
        assert_eq!(r.explain.branch, Branch::Greedy);
    }

    #[test]
    fn brute_force_matches_legacy() {
        // The legacy search is `brute::brute_force`.
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let db = chain_db();
        let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
        for k in 1..=3u64 {
            let v2 = Solve::new(&q, &db).k(k).brute_force().run().unwrap();
            let search = brute::brute_force(&prep, k, &BruteForceOptions::default()).unwrap();
            assert_eq!(v2.outcome, search, "k={k}");
            assert!(v2.outcome.achieved >= k, "k={k}");
            assert_eq!(v2.explain.branch, Branch::BruteForce);
            assert_eq!(v2.explain.solver, "brute-force");
        }
    }

    #[test]
    fn prepared_reuse_reports_zero_plan_micros() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let prep = PreparedQuery::new(q.clone(), Arc::new(chain_db()));
        let a = Solve::prepared(&prep).k(1).run().unwrap();
        let b = Solve::prepared(&prep).k(1).run().unwrap();
        assert_eq!(a.explain.plan_micros, 0);
        assert_eq!(a.outcome.solution, b.outcome.solution);
    }

    #[test]
    fn branch_mirrors_the_dispatcher() {
        let cases = [
            ("Q() :- R(A)", Branch::Boolean),
            ("Q(A,B) :- R(A), S(A,B)", Branch::Singleton),
            ("Q(A,B) :- R(A,B), S(A,C)", Branch::Universe),
            ("Q(A,B) :- R(A), S(B)", Branch::Decompose),
            ("Q(A,B) :- R(A), S(A,B), T(B)", Branch::Greedy),
        ];
        for (text, branch) in cases {
            let q = parse_query(text).unwrap();
            assert_eq!(Branch::of(&q, &AdpOptions::default()), branch, "{text}");
        }
        let q = parse_query("Q(A,B) :- R(A), S(A,B)").unwrap();
        let forced = AdpOptions {
            force_greedy: true,
            ..Default::default()
        };
        assert_eq!(Branch::of(&q, &forced), Branch::ForcedGreedy);
        let skip = AdpOptions {
            skip_singleton: true,
            ..Default::default()
        };
        assert_eq!(Branch::of(&q, &skip), Branch::Universe);
    }

    #[test]
    fn deadline_sugar_truncates() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let db = chain_db();
        let r = Solve::new(&q, &db)
            .k(3)
            .opts(AdpOptions {
                force_greedy: true,
                ..Default::default()
            })
            .deadline(Instant::now())
            .run()
            .unwrap();
        assert!(r.outcome.truncated);
        assert!(r.outcome.achieved >= 1, "first round always runs");
    }
}
