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
use adp_engine::database::Database;
use adp_engine::provenance::TupleRef;
use std::sync::Arc;

#[allow(deprecated)]
pub use self::compute_resilience as resilience;
pub use fluent::{Branch, Explain, Report, Solve};
#[allow(deprecated)]
pub use policy::compute_adp_with_policy;
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
    /// benchmarking, not for correctness.
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
    /// differential suites.
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
    /// Outputs actually removed by the chosen deletion set (≥ k).
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

/// Solves `ADP(Q, D, k)`: remove at least `k` output tuples from `Q(D)`
/// by deleting the fewest input tuples (Definition 1).
#[deprecated(
    since = "0.3.0",
    note = "use the fluent v2 API: `Solve::new(query, db).k(k).run()` \
            (byte-identical; the report adds an explain trace)"
)]
pub fn compute_adp(
    query: &Query,
    db: &Database,
    k: u64,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    PreparedQuery::new(query.clone(), Arc::new(db.clone())).solve(k, opts)
}

/// [`compute_adp`] without cloning the database (shared ownership; the
/// `Arc` makes the instance shareable with [`adp_runtime`] workers).
///
/// One-shot convenience over [`PreparedQuery`]: callers solving the same
/// `(Q, D)` pair for several `k` values or option sets should hold a
/// `PreparedQuery` so the plan, indexes, and root evaluation are reused.
#[deprecated(
    since = "0.3.0",
    note = "use the fluent v2 API: `Solve::shared(query, db).k(k).run()` \
            (byte-identical; the report adds an explain trace)"
)]
pub fn compute_adp_arc(
    query: &Query,
    db: Arc<Database>,
    k: u64,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    PreparedQuery::new(query.clone(), db).solve(k, opts)
}

/// Shared implementation behind [`PreparedQuery::solve`] and
/// [`compute_adp_arc`].
pub(crate) fn solve_prepared(
    prep: &PreparedQuery,
    k: u64,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    if k == 0 {
        return Err(SolveError::KZero);
    }
    let view = prep.root_view();
    let solved = solve(&view, k, opts)?;
    if solved.total_outputs == 0 {
        // Degenerate instance: the query is unsatisfiable (empty join or
        // empty relation), so there is nothing to remove — the empty
        // deletion set at cost 0 is the (vacuously optimal) answer.
        return Ok(AdpOutcome {
            cost: 0,
            achieved: 0,
            exact: true,
            truncated: false,
            output_count: 0,
            solution: (opts.mode == Mode::Report).then(Vec::new),
        });
    }
    if k > solved.total_outputs {
        return Err(SolveError::KTooLarge {
            k,
            available: solved.total_outputs,
        });
    }
    let Some(cost) = solved.min_cost(k)? else {
        if solved.truncated {
            // The deadline expired before the greedy rounds reached k:
            // answer with the best-so-far deletion set instead of an
            // error (paper-style anytime behavior for serving layers).
            return truncated_outcome(&solved, opts);
        }
        // The profile stops short of k (possible when a policy or an
        // exhausted candidate pool truncated a heuristic profile);
        // surface it instead of panicking.
        return Err(SolveError::Infeasible {
            k,
            removable: solved.max_removable(),
        });
    };
    let solution = match opts.mode {
        Mode::Report => Some({
            let mut s = solved.extract(k)?;
            s.sort_unstable();
            s.dedup();
            s
        }),
        Mode::Count => None,
    };
    // `achieved` is the removal at the chosen profile point.
    let achieved = best_achieved(&solved, k, cost)?;
    Ok(AdpOutcome {
        cost,
        achieved,
        exact: solved.exact,
        truncated: solved.truncated,
        output_count: solved.total_outputs,
        solution,
    })
}

/// Builds the best-so-far [`AdpOutcome`] for a deadline-truncated
/// [`Solved`] whose profile stopped short of the requested target:
/// everything the expired greedy rounds managed to remove, at the cost
/// they paid. Shared by the prepared, policy, and selection front ends
/// so truncation semantics cannot drift between them.
pub(crate) fn truncated_outcome(
    solved: &Solved,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    debug_assert!(solved.truncated);
    let achieved = solved.max_removable();
    let cost = solved.min_cost(achieved)?.unwrap_or(0);
    let solution = match opts.mode {
        Mode::Report => Some({
            let mut s = solved.extract(achieved)?;
            s.sort_unstable();
            s.dedup();
            s
        }),
        Mode::Count => None,
    };
    Ok(AdpOutcome {
        cost,
        achieved,
        exact: false,
        truncated: true,
        output_count: solved.total_outputs,
        solution,
    })
}

fn best_achieved(solved: &Solved, k: u64, _cost: u64) -> Result<u64, SolveError> {
    // The point chosen by min_cost(k) removes at least k.
    Ok(match &solved.repr {
        solved::Repr::Eager { profile, .. } => profile
            .points()
            .iter()
            .find(|p| p.removed >= k)
            .map(|p| p.removed)
            .unwrap_or(k),
        solved::Repr::Pair(_) => k,
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

/// Convenience wrapper for the **resilience** problem (Freire et al.,
/// used by the paper as the `k = |Q(D)|` / boolean special case): the
/// minimum number of deletions making `Q(D)` empty. Exact for triad-free
/// boolean shapes and all poly-time queries; a heuristic upper bound
/// otherwise. Returns `None` when `Q(D)` is already empty.
#[deprecated(
    since = "0.3.0",
    note = "use the fluent v2 API: `Solve::new(query, db).resilience().run()` \
            (byte-identical on non-empty results; an empty result is a \
            trivial zero-cost report instead of `None`)"
)]
pub fn compute_resilience(
    query: &Query,
    db: &Database,
    opts: &AdpOptions,
) -> Result<Option<AdpOutcome>, SolveError> {
    let prep = PreparedQuery::new(query.clone(), Arc::new(db.clone()));
    let total = prep.output_count();
    if total == 0 {
        return Ok(None);
    }
    prep.solve(total, opts).map(Some)
}

/// The recursive dispatcher (Algorithm 2). `cap` bounds how many output
/// removals the caller will ever request from this subinstance.
pub(crate) fn solve(view: &View, cap: u64, opts: &AdpOptions) -> Result<Solved, SolveError> {
    let q = &view.query;

    // Line 1: boolean base case.
    if q.is_boolean() {
        return boolean::solve_boolean(view, opts);
    }

    // Benchmark hook (§8.2): measure the heuristics on easy queries.
    if opts.force_greedy {
        return greedy::solve_leaf(view, cap, opts);
    }

    // Line 2: singleton base case.
    if !opts.skip_singleton {
        if let Some(i) = singleton_atom(q) {
            return singleton::solve_singleton(view, i, cap);
        }
    }

    // Line 3: universal attributes.
    if !q.universal_attrs().is_empty() {
        return universe::solve_universe(view, cap, opts);
    }

    // Line 4: disconnected query.
    if q.connected_components().len() > 1 {
        return decompose::solve_decompose(view, cap, opts);
    }

    // Line 5: NP-hard leaf — greedy heuristics over the materialized join.
    greedy::solve_leaf(view, cap, opts)
}

/// True if the dispatcher, under default options, sends this connected
/// query straight to the greedy leaf (Algorithm 2 line 5).
fn reaches_greedy_leaf(q: &Query) -> bool {
    !q.is_boolean() && singleton_atom(q).is_none() && q.universal_attrs().is_empty()
}

#[cfg(test)]
// The tests deliberately pin the legacy v1 entry points (the fluent v2
// API is differentially tested against them in `fluent` and in
// `tests/api_v2_differential.rs`).
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::analysis::is_ptime;
    use crate::query::parse_query;
    use crate::solver::brute::{brute_force, BruteForceOptions};
    use adp_engine::schema::attrs;

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
        let out = compute_adp(&q, &db, 2, &AdpOptions::default()).unwrap();
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
        let out = compute_adp(&q, &db, 4, &AdpOptions::default()).unwrap();
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
        let out = compute_resilience(&q, &db, &AdpOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(out.cost, 1);
        assert!(out.exact);
        // empty result => None
        let q2 = parse_query("Q() :- R1(A), R4(A)").unwrap();
        let mut db2 = Database::new();
        db2.add_relation("R1", attrs(&["A"]), &[&[1]]);
        db2.add_relation("R4", attrs(&["A"]), &[&[2]]);
        assert!(compute_resilience(&q2, &db2, &AdpOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn k_bounds() {
        let q = parse_query("Q(A) :- R(A)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        assert!(matches!(
            compute_adp(&q, &db, 0, &AdpOptions::default()),
            Err(SolveError::KZero)
        ));
        assert!(matches!(
            compute_adp(&q, &db, 2, &AdpOptions::default()),
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
            let out = compute_adp(&q, &db, 3, &opts).unwrap();
            assert_eq!(out.cost, 0);
            assert_eq!(out.achieved, 0);
            assert_eq!(out.output_count, 0);
            assert!(out.exact);
            match opts.mode {
                Mode::Report => assert_eq!(out.solution.as_deref(), Some(&[][..])),
                Mode::Count => assert!(out.solution.is_none()),
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
            let out = compute_adp(&q, &db, 1, &AdpOptions::default())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(out.cost, 0, "{text}");
            assert_eq!(out.solution.as_deref(), Some(&[][..]), "{text}");
            let greedy = compute_adp(
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
            let out = compute_adp(&q, &db, total, &opts).unwrap();
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
        let a = compute_adp(&q, &db, 3, &base).unwrap();
        let b = compute_adp(&q, &db, 3, &with_deadline).unwrap();
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
        let out = compute_adp(&q, &db, 1, &AdpOptions::counting()).unwrap();
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

    /// Differential test: on poly-time queries `compute_adp` must equal
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
                    let out = compute_adp(&q, &db, k, &AdpOptions::default())
                        .unwrap_or_else(|e| panic!("{text} k={k}: {e}"));
                    let sol = out.solution.clone().unwrap();
                    let removed = verify::removed_outputs(&q, &db, &sol);
                    assert!(removed >= k, "{text} k={k}: infeasible solution");
                    assert!(
                        sol.len() as u64 <= out.cost,
                        "{text} k={k}: solution larger than reported cost"
                    );
                    let (opt, _) = brute_force(&q, &db, k, &BruteForceOptions::default()).unwrap();
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
