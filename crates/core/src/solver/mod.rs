//! `ComputeADP` (paper §7, Algorithm 2): the unified poly-time algorithm.
//!
//! The solver recursively dispatches on the query shape, in the paper's
//! order:
//!
//! 1. **Boolean** query → resilience via linearization + min-cut (§7.1);
//! 2. **Singleton** query → sort-based direct algorithm (§7.2, Alg. 3);
//! 3. **Universal attribute** present → partition + DP (§7.3, Alg. 4);
//! 4. **Disconnected** query → per-component solve + cross-product DP
//!    (§7.3, Alg. 5);
//! 5. otherwise → greedy heuristics (§7.4, Alg. 6/7) — the query is
//!    NP-hard here (Lemma 4), so the result is marked inexact.
//!
//! For poly-time queries the result is optimal; for NP-hard queries it is
//! a feasible heuristic solution, exactly as in the paper.

pub mod boolean;
pub mod brute;
pub mod decompose;
pub mod fluent;
pub mod greedy;
pub mod policy;
pub mod prepared;
pub mod profile;
pub mod singleton;
pub mod solved;
pub mod universe;
pub mod verify;
pub mod view;

use crate::analysis::roles::singleton_atom;
use crate::error::SolveError;
use crate::query::Query;
use adp_engine::provenance::TupleRef;
use std::borrow::Borrow;

pub use fluent::{Explain, Report, Solve};
pub use policy::DeletionPolicy;
pub use prepared::{DeadSet, LiveTransitions, PlannedEval, PreparedQuery};
pub use profile::{CostProfile, ProfilePoint};
pub use solved::Solved;
pub use verify::{apply_deletions, removed_outputs};
pub use view::View;

/// Counting vs. reporting (paper §8, "Reporting vs. counting versions").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Only compute the minimum number of deletions.
    Count,
    /// Also materialize the deletion set (needs DP choice tables).
    Report,
}

/// Strategy for combining connected components (§7.3 and Figure 29).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecomposeStrategy {
    /// Dense improved DP when it fits, lazy sparse combination otherwise.
    Auto,
    /// Ablation: enumerate all `(k1..ks)` vectors at once ("full
    /// partitions" in Figure 29). Exponential in the component count.
    NaiveFull,
    /// Ablation: fold components two at a time with a dense double loop
    /// ("two partitions" in Figure 29).
    NaivePairs,
    /// Force the dense improved DP.
    ImprovedDp,
}

/// Strategy for handling universal attributes (§7.3 and Figure 28).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UniverseStrategy {
    /// Remove all universal attributes as one combined attribute.
    Combined,
    /// Ablation: remove universal attributes one at a time.
    OneByOne,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct AdpOptions {
    /// Counting or reporting.
    pub mode: Mode,
    /// Component-combination strategy.
    pub decompose: DecomposeStrategy,
    /// Universal-attribute strategy.
    pub universe: UniverseStrategy,
    /// Ablation: skip the Singleton base case (forces the Universe path
    /// on singleton queries, as in Figure 28's unoptimized variants).
    pub skip_singleton: bool,
    /// Benchmark hook: jump straight to the greedy leaf (Algorithm 2
    /// line 5) even on poly-time queries, as the paper does when
    /// measuring `Greedy`/`Drastic` on easy instances (§8.2, Figure 8).
    pub force_greedy: bool,
    /// Use `DrasticGreedyForFullCQ` instead of `GreedyForCQ` at NP-hard
    /// leaves when the leaf query is a full CQ (Algorithm 7).
    pub use_drastic: bool,
    /// Maximum number of dense DP cells before giving up with
    /// [`SolveError::BudgetExceeded`].
    pub dense_limit: u64,
    /// Maximum cross-product profile points when materializing lazy
    /// decompositions.
    pub pair_points_limit: u64,
    /// Force the single-threaded code paths even when the global
    /// [`adp_runtime`] pool has multiple workers. Parallel and
    /// sequential runs return **byte-identical** results (the
    /// differential tests enforce it); this switch exists for those
    /// tests and for apples-to-apples benchmarking, not for
    /// correctness.
    pub sequential: bool,
    /// Opt out of the incremental delta maintenance layer
    /// ([`adp_engine::delta`]) and pay a full scoring rescan per greedy
    /// round instead — the pre-delta code path, kept as the
    /// differential oracle. Delta and full-re-evaluation runs return
    /// **byte-identical** results (enforced by the `delta_differential`
    /// proptest suite and the `greedy_rounds_{masked,delta}` bench
    /// pair); this switch exists for those checks and for
    /// benchmarking, not for correctness. A `full_reeval` solve neither
    /// reads nor writes the prepared plan's memo of root answers
    /// ([`PreparedQuery::cached_answers`]): the oracle always computes.
    pub full_reeval: bool,
    /// Wall-clock budget for the greedy rounds (the only open-ended
    /// loop in the solver): once the instant passes, the current
    /// best-so-far deletion set is returned with
    /// [`AdpOutcome::truncated`] set instead of running to the target.
    /// The first round always runs, so a truncated answer still makes
    /// progress whenever anything is removable. Exact (poly-time) paths
    /// and the single-pass drastic heuristic ignore the deadline.
    /// `None` (the default) never truncates.
    ///
    /// Note that where a deadline fires depends on wall-clock speed, so
    /// truncated results are **not** byte-identical across the
    /// delta/full-re-evaluation or sequential/parallel variants — this
    /// knob is for serving-layer latency bounds, not for the
    /// differential suites. A solve with a deadline neither reads nor
    /// writes the prepared plan's memo of root answers
    /// ([`PreparedQuery::cached_answers`]), so a truncated answer is
    /// never kept and a budgeted solve runs its rounds like a fresh one.
    pub deadline: Option<std::time::Instant>,
}

impl Default for AdpOptions {
    fn default() -> Self {
        AdpOptions {
            mode: Mode::Report,
            decompose: DecomposeStrategy::Auto,
            universe: UniverseStrategy::Combined,
            skip_singleton: false,
            force_greedy: false,
            use_drastic: false,
            dense_limit: 16_000_000,
            pair_points_limit: 4_000_000,
            sequential: false,
            full_reeval: false,
            deadline: None,
        }
    }
}

impl AdpOptions {
    /// Counting-only configuration.
    pub fn counting() -> Self {
        AdpOptions {
            mode: Mode::Count,
            ..Default::default()
        }
    }
}

/// Result of an ADP computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdpOutcome {
    /// Minimum number of input tuples to delete (heuristic upper bound on
    /// NP-hard queries).
    pub cost: u64,
    /// Outputs removed by the chosen deletion set (≥ k). In report mode
    /// this is exactly what [`AdpOutcome::solution`] removes. In count
    /// mode it reads the cost profile, and on Universe and Decompose
    /// shapes that profile is clamped at the target, so there it means
    /// "at least k": the set behind it may remove more.
    pub achieved: u64,
    /// True if the answer is provably optimal (poly-time query shape).
    pub exact: bool,
    /// True if a wall-clock deadline ([`AdpOptions::deadline`]) expired
    /// somewhere during solving: the answer is budget-limited, not a
    /// finished run. At a greedy leaf this means `cost`/`achieved`/
    /// `solution` are the best-so-far deletion set with
    /// `achieved < k`; in combined shapes (e.g. a multi-component
    /// boolean query) the reported set may reach the target while a
    /// truncated sibling component — possibly cheaper — went
    /// unexplored, so the flag stays visible either way (and `exact` is
    /// false).
    pub truncated: bool,
    /// `|Q(D)|`.
    pub output_count: u64,
    /// The deletion set in original-database coordinates (report mode).
    pub solution: Option<Vec<TupleRef>>,
}

/// Builds the caller's [`AdpOutcome`] for target `k` from the
/// [`Solved`] that `solver` returns, owned or shared from a plan's memo:
/// the one place every front door (plain and fluent solves, policy,
/// brute force, selection) turns a solver result into an answer. `k = 0` is rejected before `solver`
/// runs. An instance with no outputs is answered with the empty set at
/// cost 0. If the deadline cut the greedy rounds short of `k`, the
/// answer is everything they removed, flagged truncated. `achieved` is
/// what the report-mode set removes (counted by its extraction), or in
/// count mode the removal at the chosen profile point; the report-mode
/// set is sorted and deduplicated.
pub(crate) fn outcome<S: Borrow<Solved>>(
    k: u64,
    mode: Mode,
    solver: impl FnOnce() -> Result<S, SolveError>,
) -> Result<AdpOutcome, SolveError> {
    if k == 0 {
        return Err(SolveError::KZero);
    }
    let solved = solver()?;
    let solved: &Solved = solved.borrow();
    let total = solved.total_outputs;
    if total == 0 {
        // Degenerate instance: the query is unsatisfiable (empty join or
        // empty relation), so there is nothing to remove — the empty
        // deletion set at cost 0 is the (vacuously optimal) answer.
        return Ok(AdpOutcome {
            cost: 0,
            achieved: 0,
            exact: true,
            truncated: false,
            output_count: 0,
            solution: (mode == Mode::Report).then(Vec::new),
        });
    }
    if k > total {
        return Err(SolveError::KTooLarge {
            k,
            available: total,
        });
    }
    let (target, cost, exact) = match solved.min_cost(k)? {
        Some(cost) => (k, cost, solved.exact),
        // The deadline expired before the greedy rounds reached k:
        // answer with the best-so-far deletion set instead of an error
        // (paper-style anytime behavior for serving layers).
        None if solved.truncated => {
            let removable = solved.max_removable();
            (removable, solved.min_cost(removable)?.unwrap_or(0), false)
        }
        // The profile stops short of k (a policy or an exhausted
        // candidate pool truncated it).
        None => {
            return Err(SolveError::Infeasible {
                k,
                removable: solved.max_removable(),
            })
        }
    };
    let (solution, achieved) = match mode {
        Mode::Report => {
            let (mut s, removed) = solved.extract(target)?;
            s.sort_unstable();
            s.dedup();
            (Some(s), removed)
        }
        // The first profile point reaching the target is the one
        // `min_cost` chose; a lazy cross product only promises the
        // target.
        Mode::Count => {
            let achieved = match &solved.repr {
                solved::Repr::Eager { profile, .. } => profile
                    .points_with_origin()
                    .find(|p| p.removed >= target)
                    .map_or(target, |p| p.removed),
                solved::Repr::Pair(_) => target,
            };
            (None, achieved)
        }
    };
    Ok(AdpOutcome {
        cost,
        achieved,
        exact,
        truncated: solved.truncated,
        output_count: total,
        solution,
    })
}

/// `|Q(D)|` for a view, decomposing by connected components so that
/// cross products are counted, never materialized.
pub(crate) fn count_outputs(view: &View) -> u64 {
    let comps = view.query.connected_components();
    if comps.len() == 1 {
        // An anchored root whose solve runs the greedy leaf reads the
        // count off the state that solve will use, and never joins.
        let anchored = (view.is_anchored() && reaches_greedy_leaf(&view.query))
            .then(|| view.anchored_output_count())
            .flatten();
        return anchored.unwrap_or_else(|| view.eval().output_count());
    }
    let mut total: u128 = 1;
    for comp in comps {
        let sub = view.subview(&comp);
        total = total.saturating_mul(count_outputs(&sub) as u128);
        if total == 0 {
            return 0;
        }
    }
    u64::try_from(total).unwrap_or(u64::MAX)
}

/// The root dispatch branch of `ComputeADP` (Algorithm 2) a solve went
/// through — the paper's dichotomy cases, plus the non-recursive
/// front doors (policy, brute force).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Exhaustive subset search ([`Solve::brute_force`]).
    BruteForce,
    /// Policy-restricted solve (frozen relations, §9 extension).
    Policy,
    /// Boolean base case: resilience via linearization + min-cut (§7.1).
    Boolean,
    /// The benchmark hook jumped straight to the greedy leaf
    /// ([`AdpOptions::force_greedy`]).
    ForcedGreedy,
    /// Singleton base case (§7.2, Algorithm 3).
    Singleton,
    /// Universal-attribute partition + DP (§7.3, Algorithm 4).
    Universe,
    /// Disconnected query: per-component solve + cross-product DP
    /// (§7.3, Algorithm 5).
    Decompose,
    /// NP-hard leaf: greedy heuristics over the materialized join
    /// (§7.4, Algorithms 6/7).
    Greedy,
}

impl Branch {
    /// The branch Algorithm 2 takes for this query under these options:
    /// the dispatcher matches on it at every recursion level, so this
    /// is the one statement of the paper's dispatch order.
    pub fn of(query: &Query, opts: &AdpOptions) -> Branch {
        if query.is_boolean() {
            // Line 1: boolean base case.
            Branch::Boolean
        } else if opts.force_greedy {
            // Benchmark hook (§8.2): measure the heuristics on easy
            // queries.
            Branch::ForcedGreedy
        } else if !opts.skip_singleton && singleton_atom(query).is_some() {
            // Line 2: singleton base case.
            Branch::Singleton
        } else if !query.universal_attrs().is_empty() {
            // Line 3: universal attributes.
            Branch::Universe
        } else if query.connected_components().len() > 1 {
            // Line 4: disconnected query.
            Branch::Decompose
        } else {
            // Line 5: NP-hard leaf.
            Branch::Greedy
        }
    }
}

/// The solver family that produced `outcome` through the front door
/// `branch`, for the explain trace ([`Explain::solver`]) and the serving
/// layer's per-request stats: `"trivial"` (nothing was asked for or
/// nothing is there to remove), `"brute-force"`, `"exact"` (poly-time
/// shape ran to optimality), `"drastic-greedy"` or `"greedy"`. The
/// policy solver has no drastic variant.
pub fn solver_label(
    branch: Branch,
    outcome: &AdpOutcome,
    opts: &AdpOptions,
    query: &Query,
) -> &'static str {
    if outcome.achieved == 0 && !outcome.truncated {
        "trivial"
    } else if branch == Branch::BruteForce {
        "brute-force"
    } else if outcome.exact {
        "exact"
    } else if branch != Branch::Policy && opts.use_drastic && query.is_full() {
        "drastic-greedy"
    } else {
        "greedy"
    }
}

/// The recursive dispatcher (Algorithm 2). `cap` bounds how many output
/// removals the caller will ever request from this subinstance.
pub(crate) fn solve(view: &View, cap: u64, opts: &AdpOptions) -> Result<Solved, SolveError> {
    match Branch::of(&view.query, opts) {
        Branch::Boolean => boolean::solve_boolean(view, opts),
        Branch::Singleton => {
            // adp-lint: allow(panic-path) -- `Branch::of` found the
            // singleton atom a line above.
            let i = singleton_atom(&view.query).expect("singleton branch has its atom");
            singleton::solve_singleton(view, i, cap)
        }
        Branch::Universe => universe::solve_universe(view, cap, opts),
        Branch::Decompose => decompose::solve_decompose(view, cap, opts),
        // `of` never names the policy and brute-force front doors.
        Branch::ForcedGreedy | Branch::Greedy | Branch::Policy | Branch::BruteForce => {
            greedy::solve_leaf(view, cap, opts)
        }
    }
}

/// True if the dispatcher, under default options, sends this connected
/// query straight to the greedy leaf (Algorithm 2 line 5).
fn reaches_greedy_leaf(q: &Query) -> bool {
    Branch::of(q, &AdpOptions::default()) == Branch::Greedy
}

/// One-shot solve over a private copy of `db`, for tests.
#[cfg(test)]
pub(crate) fn solve_once(
    query: &Query,
    db: &adp_engine::database::Database,
    k: u64,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    PreparedQuery::new(query.clone(), std::sync::Arc::new(db.clone())).solve(k, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_ptime;
    use crate::query::parse_query;
    use crate::selection::{solve_selection, SelectionQuery};
    use crate::solver::brute::{brute_force, BruteForceOptions};
    use adp_engine::database::Database;
    use adp_engine::schema::{attr, attrs};
    use std::sync::Arc;

    /// Figure 1 database.
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
    fn paper_running_example_adp_q1_k2() {
        // §3.2: ADP(Q1, D, 2) returns the single tuple R3(c3, e3).
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let db = figure1();
        let out = solve_once(&q, &db, 2, &AdpOptions::default()).unwrap();
        assert_eq!(out.output_count, 4);
        assert_eq!(out.cost, 1, "a single tuple removes two outputs");
        let sol = out.solution.unwrap();
        assert_eq!(sol.len(), 1);
        // R3(c3,e3) is the paper's answer; R1(a2,b2) is equally optimal.
        assert!(verify::removed_outputs(&q, &db, &sol) >= 2);
    }

    #[test]
    fn k_equals_output_count_is_resilience_like() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let db = figure1();
        let out = solve_once(&q, &db, 4, &AdpOptions::default()).unwrap();
        let sol = out.solution.unwrap();
        assert_eq!(verify::removed_outputs(&q, &db, &sol), 4);
        assert_eq!(sol.len() as u64, out.cost);
    }

    #[test]
    fn resilience_wrapper() {
        // boolean chain: resilience = min cut = 1 here
        let q = parse_query("Q() :- R1(A), R2(A,B), R3(B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        let out = Solve::new(&q, &db).resilience().run().unwrap().outcome;
        assert_eq!(out.cost, 1);
        assert!(out.exact);
        // empty result => the trivial answer
        let q2 = parse_query("Q() :- R1(A), R4(A)").unwrap();
        let mut db2 = Database::new();
        db2.add_relation("R1", attrs(&["A"]), &[&[1]]);
        db2.add_relation("R4", attrs(&["A"]), &[&[2]]);
        let r = Solve::new(&q2, &db2).resilience().run().unwrap();
        assert_eq!(r.outcome.output_count, 0);
        assert_eq!(r.explain.solver, "trivial");
    }

    /// The Universe DP and the lazy cross product below it clamp
    /// removals at the target, so their profile reads 1 at k=1 and 2 at
    /// k=2 for a set (`R1(1,7)`) that removes the three A=1 outputs.
    /// Report mode counts what the set removes; count mode reports at
    /// least k.
    #[test]
    fn achieved_counts_what_the_set_removes_on_clamped_profiles() {
        let q = parse_query("Q(A,B,C) :- R0(A,B), R1(A,C)").unwrap();
        let mut db = Database::new();
        db.add_relation(
            "R0",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 2], &[1, 3], &[2, 1]],
        );
        db.add_relation("R1", attrs(&["A", "C"]), &[&[1, 7], &[2, 7], &[2, 8]]);
        for k in [1, 2] {
            let r = Solve::new(&q, &db).k(k).run().unwrap();
            assert_eq!(r.explain.branch, Branch::Universe);
            assert_eq!(r.outcome.cost, 1, "k={k}");
            let sol = r.outcome.solution.as_ref().unwrap();
            assert_eq!(verify::removed_outputs(&q, &db, sol), 3, "k={k}");
            assert_eq!(r.outcome.achieved, 3, "k={k}");
            let counted = Solve::new(&q, &db).k(k).counting().run().unwrap().outcome;
            assert_eq!(counted.cost, 1, "k={k}");
            assert!(counted.achieved >= k, "k={k}");
        }
    }

    #[test]
    fn k_bounds() {
        let q = parse_query("Q(A) :- R(A)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        assert!(matches!(
            solve_once(&q, &db, 0, &AdpOptions::default()),
            Err(SolveError::KZero)
        ));
        assert!(matches!(
            solve_once(&q, &db, 2, &AdpOptions::default()),
            Err(SolveError::KTooLarge { .. })
        ));
    }

    /// Regression (degenerate instances): an unsatisfiable query used to
    /// bubble up as `KTooLarge` (and crashed the bench harness, whose
    /// `k_for_ratio` clamp always requests k ≥ 1). Zero-output instances
    /// must instead return the empty deletion set at cost 0 — there is
    /// nothing to remove.
    #[test]
    fn unsatisfiable_query_returns_empty_solution_at_cost_zero() {
        // Non-empty relations whose join is empty.
        let q = parse_query("Q(A) :- R(A), S(A)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["A"]), &[&[7], &[8]]);
        for opts in [
            AdpOptions::default(),
            AdpOptions::counting(),
            AdpOptions {
                force_greedy: true,
                ..Default::default()
            },
        ] {
            // Every front door: plain, policy (some and all atoms
            // frozen), selection.
            let sq = SelectionQuery::new(q.clone(), vec![(attr("A"), 7)]).unwrap();
            let doors = [
                ("plain", solve_once(&q, &db, 3, &opts)),
                (
                    "policy",
                    Solve::new(&q, &db)
                        .k(3)
                        .opts(opts.clone())
                        .policy(DeletionPolicy::unrestricted().freeze("R"))
                        .run()
                        .map(|r| r.outcome),
                ),
                (
                    "all frozen",
                    Solve::new(&q, &db)
                        .k(3)
                        .opts(opts.clone())
                        .policy(DeletionPolicy::unrestricted().freeze("R").freeze("S"))
                        .run()
                        .map(|r| r.outcome),
                ),
                ("selection", solve_selection(&sq, &db, 3, &opts)),
            ];
            for (door, out) in doors {
                let out = out.unwrap_or_else(|e| panic!("{door}: {e}"));
                assert_eq!(out.cost, 0, "{door}");
                assert_eq!(out.achieved, 0, "{door}");
                assert_eq!(out.output_count, 0, "{door}");
                assert!(out.exact, "{door}");
                match opts.mode {
                    Mode::Report => assert_eq!(out.solution.as_deref(), Some(&[][..]), "{door}"),
                    Mode::Count => assert!(out.solution.is_none(), "{door}"),
                }
            }
        }
    }

    /// Regression (degenerate instances): same contract when a body
    /// relation is entirely empty, across the solver shapes that used to
    /// reach `ProvenanceIndex`/profile code on zero-witness evaluations.
    #[test]
    fn empty_relation_returns_empty_solution_at_cost_zero() {
        for text in [
            "Q(A,B) :- R(A), S(A,B)",           // singleton
            "Q(A,B) :- R(A), S(B)",             // decompose
            "Q() :- R(A), S(A,B)",              // boolean
            "Q(A,B,C) :- R(A), S(A,B), T(B,C)", // hard leaf
        ] {
            let q = parse_query(text).unwrap();
            let mut db = Database::new();
            for atom in q.atoms() {
                let mut inst = adp_engine::relation::RelationInstance::new(atom.clone());
                if atom.name() != "S" {
                    inst.insert(&vec![1; atom.arity()]);
                }
                db.add(inst); // S stays empty
            }
            let out = solve_once(&q, &db, 1, &AdpOptions::default())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(out.cost, 0, "{text}");
            assert_eq!(out.solution.as_deref(), Some(&[][..]), "{text}");
            let greedy = solve_once(
                &q,
                &db,
                2,
                &AdpOptions {
                    force_greedy: true,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{text} (greedy): {e}"));
            assert_eq!(greedy.cost, 0, "{text} (greedy)");
        }
    }

    /// Satellite (deadline edge case): a budget that expires mid-greedy
    /// returns the best-so-far deletion set with the truncation flag,
    /// never an `Infeasible` error — and the first round always runs, so
    /// a truncated answer still removes something when possible.
    #[test]
    fn expired_deadline_truncates_greedy_with_best_so_far() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation("PS", attrs(&["SK", "PK"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2]]);
        let total = 3;
        for full_reeval in [false, true] {
            let opts = AdpOptions {
                force_greedy: true,
                full_reeval,
                // Already in the past by the time the loop checks it.
                deadline: Some(std::time::Instant::now()),
                ..Default::default()
            };
            let out = solve_once(&q, &db, total, &opts).unwrap();
            assert!(out.truncated, "full_reeval={full_reeval}");
            assert!(!out.exact);
            assert_eq!(out.output_count, total);
            assert!(
                out.achieved >= 1 && out.achieved < total,
                "one round must run, but not all: achieved={} (full_reeval={full_reeval})",
                out.achieved
            );
            let sol = out.solution.unwrap();
            assert_eq!(sol.len() as u64, out.cost);
            assert_eq!(
                verify::removed_outputs(&q, &db, &sol),
                out.achieved,
                "best-so-far set must actually remove `achieved` outputs"
            );
        }
    }

    /// A deadline far in the future never truncates and returns exactly
    /// the unbudgeted result.
    #[test]
    fn distant_deadline_is_a_no_op() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation("PS", attrs(&["SK", "PK"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2]]);
        let base = AdpOptions {
            force_greedy: true,
            ..Default::default()
        };
        let with_deadline = AdpOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..base.clone()
        };
        let a = solve_once(&q, &db, 3, &base).unwrap();
        let b = solve_once(&q, &db, 3, &with_deadline).unwrap();
        assert!(!b.truncated);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn counting_mode_skips_solutions() {
        let q = parse_query("Q(A) :- R(A)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        let out = solve_once(&q, &db, 1, &AdpOptions::counting()).unwrap();
        assert_eq!(out.cost, 1);
        assert!(out.solution.is_none());
    }

    /// A tiny deterministic instance generator: values in [0, dom).
    fn random_db(q: &Query, sizes: &[usize], dom: u64, seed: &mut u64) -> Database {
        let mut next = move || {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % dom
        };
        let mut db = Database::new();
        for (atom, &n) in q.atoms().iter().zip(sizes) {
            let mut inst = adp_engine::relation::RelationInstance::new(atom.clone());
            for _ in 0..n {
                let t: Vec<u64> = (0..atom.arity()).map(|_| next()).collect();
                inst.insert(&t);
            }
            db.add(inst);
        }
        db
    }

    /// Differential test: on poly-time queries `ComputeADP` must equal
    /// the brute-force optimum for every feasible k; on NP-hard queries
    /// it must be feasible and ≥ the optimum.
    #[test]
    fn matches_brute_force_on_random_instances() {
        let catalogue = [
            // easy queries exercising each exact path
            "Q(A,B) :- R1(A), R2(A,B)",         // singleton case 1
            "Q(A) :- R1(A,B), R2(A,B,C)",       // singleton case 2
            "Q(A,B) :- R1(A,B), R2(A,B)",       // universe → boolean
            "Q(A,B) :- R1(A), R2(B)",           // decompose
            "Q() :- R1(A), R2(A,B), R3(B)",     // boolean min-cut
            "Q() :- R1(A,B), R2(B,C), R3(C,E)", // boolean chain
            "Q(A) :- R1(A,B), R2(A,B)",         // universal + boolean chain
            "Q(A1,B1,A2) :- R11(A1), R12(A1,B1), R21(A2)", // mixed decompose
            // hard queries (heuristic: feasibility + upper bound only)
            "Q(A,B) :- R1(A), R2(A,B), R3(B)",
            "Q(A) :- R2(A,B), R3(B)",
            "Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)",
        ];
        let mut seed = 42u64;
        for text in catalogue {
            let q = parse_query(text).unwrap();
            let ptime = is_ptime(&q);
            for trial in 0..3 {
                let sizes = vec![3 + trial; q.atom_count()];
                let db = random_db(&q, &sizes, 3, &mut seed);
                let total = count_outputs(&View::root(q.clone(), Arc::new(db.clone())));
                if total == 0 {
                    continue;
                }
                for k in 1..=total.min(6) {
                    let out = solve_once(&q, &db, k, &AdpOptions::default())
                        .unwrap_or_else(|e| panic!("{text} k={k}: {e}"));
                    let sol = out.solution.clone().unwrap();
                    let removed = verify::removed_outputs(&q, &db, &sol);
                    assert!(removed >= k, "{text} k={k}: infeasible solution");
                    assert_eq!(out.achieved, removed, "{text} k={k}: achieved misreported");
                    assert!(
                        sol.len() as u64 <= out.cost,
                        "{text} k={k}: solution larger than reported cost"
                    );
                    let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
                    let opt = brute_force(&prep, k, &BruteForceOptions::default())
                        .unwrap()
                        .cost;
                    if ptime {
                        assert!(out.exact, "{text} k={k} should be exact");
                        assert_eq!(out.cost, opt, "{text} k={k}: not optimal");
                    } else {
                        assert!(out.cost >= opt, "{text} k={k}: beat the optimum?!");
                    }
                }
            }
        }
    }
}
