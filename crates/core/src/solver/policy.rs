//! Deletion policies: restricting which relations may lose tuples.
//!
//! The paper's future-work section (§9) proposes "a scenario where only a
//! subset of input tuples can be removed, and the remaining input tuples
//! cannot be deleted". This module implements the relation-granularity
//! version of that extension:
//!
//! * frozen relations behave like exogenous atoms — the boolean min-cut
//!   assigns their tuples infinite capacity (exact), and the greedy
//!   heuristics never pick them;
//! * non-boolean queries under a policy are solved with the greedy
//!   heuristic (the dichotomy of the unrestricted problem does not carry
//!   over, so exactness is not claimed);
//! * infeasibility (the removable outputs fall short of `k`) is reported
//!   as [`SolveError::Infeasible`].

use super::greedy::solve_greedy_filtered;
use super::profile::CostProfile;
use super::solved::{Extractor, Solved};
use super::view::View;
use super::{boolean, AdpOptions};
use crate::error::SolveError;
use crate::query::Query;

/// A deletion policy: which relations are **frozen** (undeletable).
#[derive(Clone, Debug, Default)]
pub struct DeletionPolicy {
    frozen: Vec<String>,
}

impl DeletionPolicy {
    /// No restrictions.
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Freezes a relation: its tuples can never be deleted.
    pub fn freeze(mut self, relation: &str) -> Self {
        if !self.frozen.iter().any(|r| r == relation) {
            self.frozen.push(relation.to_owned());
        }
        self
    }

    /// Is the relation frozen?
    pub fn is_frozen(&self, relation: &str) -> bool {
        self.frozen.iter().any(|r| r == relation)
    }

    /// The frozen relation names.
    pub fn frozen(&self) -> &[String] {
        &self.frozen
    }

    /// Per-atom deletability mask for a query (true = deletable).
    pub fn deletable_atoms(&self, query: &Query) -> Vec<bool> {
        query
            .atoms()
            .iter()
            .map(|a| !self.is_frozen(a.name()))
            .collect()
    }
}

/// Solves `ADP(Q, D, k)` under a deletion policy on `view` (the
/// prepared plan's root view, whose idle greedy state is tagged with
/// its selectable mask). Boolean queries are solved exactly (min-cut
/// with infinite capacities on frozen atoms); non-boolean queries use
/// the policy-aware greedy heuristic. With every atom frozen the
/// profile is empty, so any target is infeasible.
pub(crate) fn solve_policy(
    view: &View,
    k: u64,
    policy: &DeletionPolicy,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let deletable = policy.deletable_atoms(&view.query);
    if deletable.iter().all(|&d| !d) {
        return Ok(Solved::eager(
            CostProfile::empty(),
            Extractor::Empty,
            true,
            super::count_outputs(view),
        ));
    }
    if view.query.is_boolean() {
        boolean::solve_boolean_with_policy(view, opts, &deletable)
    } else {
        let eval = view.eval();
        solve_greedy_filtered(view, &eval, k, &deletable, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::solver::{AdpOutcome, Solve};
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    fn solve_with_policy(
        q: &Query,
        db: &Database,
        k: u64,
        policy: &DeletionPolicy,
        opts: &AdpOptions,
    ) -> Result<AdpOutcome, SolveError> {
        Solve::new(q, db)
            .k(k)
            .policy(policy.clone())
            .opts(opts.clone())
            .run()
            .map(|r| r.outcome)
    }

    #[test]
    fn unrestricted_policy_delegates() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let out = solve_with_policy(
            &q,
            &db(),
            2,
            &DeletionPolicy::unrestricted(),
            &AdpOptions::default(),
        )
        .unwrap();
        assert_eq!(out.cost, 1);
    }

    #[test]
    fn frozen_relations_never_appear_in_solutions() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let policy = DeletionPolicy::unrestricted().freeze("R1");
        for k in 1..=3 {
            let out = solve_with_policy(&q, &db(), k, &policy, &AdpOptions::default()).unwrap();
            for t in out.solution.unwrap() {
                assert_ne!(t.atom, 0, "frozen R1 must not be touched (k={k})");
            }
        }
    }

    #[test]
    fn boolean_with_frozen_endogenous_atom_is_exact() {
        // Q() :- R1(A), R2(A,B), R3(B): freezing R3 forces the cut to R1
        // (or R2); the min-cut stays exact.
        let q = parse_query("Q() :- R1(A), R2(A,B), R3(B)").unwrap();
        let policy = DeletionPolicy::unrestricted().freeze("R3");
        let out = solve_with_policy(&q, &db(), 1, &policy, &AdpOptions::default()).unwrap();
        assert!(out.exact);
        assert_eq!(out.cost, 2, "both R1 values must go");
        for t in out.solution.unwrap() {
            assert_ne!(t.atom, 2);
        }
    }

    #[test]
    fn all_frozen_is_infeasible() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let policy = DeletionPolicy::unrestricted()
            .freeze("R1")
            .freeze("R2")
            .freeze("R3");
        assert!(matches!(
            solve_with_policy(&q, &db(), 1, &policy, &AdpOptions::default()),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn policy_mask() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let policy = DeletionPolicy::unrestricted().freeze("R2");
        assert_eq!(policy.deletable_atoms(&q), vec![true, false, true]);
        assert!(policy.is_frozen("R2"));
        assert!(!policy.is_frozen("R1"));
    }
}
