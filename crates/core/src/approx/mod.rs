//! Approximation algorithms for ADP on full CQs (paper §6, Theorem 5).
//!
//! On a full CQ every output is a witness and deleting an input tuple
//! deletes exactly the witnesses containing it, so `ADP(Q, D, k)` is a
//! **Partial Set Cover** (PSC) instance: sets = input tuples, elements =
//! outputs, every element in exactly `p` sets. PSC admits an `O(log k)`
//! greedy and a `p`-approximate primal-dual algorithm
//! (Gandhi–Khuller–Srinivasan), both implemented here over a generic
//! [`PscInstance`] plus a query adapter.
//!
//! With projections ADP is `Ω(n^ε)`-inapproximable (Lemma 10), so no
//! general algorithm is offered there — use the solver's heuristics.

pub mod psc;

use crate::error::SolveError;
use crate::query::Query;
use crate::solver::PreparedQuery;
use adp_engine::database::Database;
use adp_engine::join::{evaluate, EvalResult};
use adp_engine::provenance::TupleRef;
pub use psc::{greedy_psc, primal_dual_psc, PscInstance};

/// Builds the PSC instance of a **full CQ**: one set per input tuple, one
/// element per output (= witness), set membership = provenance.
pub fn psc_instance(query: &Query, db: &Database) -> (PscInstance, Vec<TupleRef>) {
    let eval = evaluate(db, query.atoms(), query.head());
    psc_instance_from_eval(query, &eval)
}

/// [`psc_instance`] against a [`PreparedQuery`]'s cached evaluation —
/// building both approximation instances (greedy and primal-dual) from
/// one prepared query joins exactly once.
pub fn psc_instance_prepared(prep: &PreparedQuery) -> (PscInstance, Vec<TupleRef>) {
    let eval = prep.eval();
    psc_instance_from_eval(prep.query(), &eval)
}

/// Builds the PSC instance from an existing evaluation of a full CQ.
pub fn psc_instance_from_eval(query: &Query, eval: &EvalResult) -> (PscInstance, Vec<TupleRef>) {
    assert!(
        query.is_full(),
        "the PSC reduction requires a full CQ (Theorem 5)"
    );
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut refs: Vec<TupleRef> = Vec::new();
    let mut slot: std::collections::HashMap<TupleRef, usize> = std::collections::HashMap::new();
    for (wid, w) in eval.witnesses.iter().enumerate() {
        for (atom, &idx) in w.tuples.iter().enumerate() {
            let t = TupleRef::new(atom, idx);
            let s = *slot.entry(t).or_insert_with(|| {
                sets.push(Vec::new());
                refs.push(t);
                sets.len() - 1
            });
            // adp-lint: allow(truncating-cast) -- wid enumerates
            // eval.witnesses, cap-checked by ProvenanceIndex::try_new.
            sets[s].push(wid as u32);
        }
    }
    (
        PscInstance {
            sets,
            // adp-lint: allow(truncating-cast) -- same cap-checked
            // witness count as above.
            n_elements: eval.witnesses.len() as u32,
        },
        refs,
    )
}

/// `O(log k)`-approximate ADP for full CQs via greedy PSC.
pub fn greedy_full_cq(query: &Query, db: &Database, k: u64) -> Result<Vec<TupleRef>, SolveError> {
    let (inst, refs) = psc_instance(query, db);
    check_k(k, inst.n_elements as u64)?;
    Ok(greedy_psc(&inst, k).into_iter().map(|s| refs[s]).collect())
}

/// `p`-approximate ADP for full CQs via primal-dual PSC, where `p` is the
/// number of relations.
pub fn primal_dual_full_cq(
    query: &Query,
    db: &Database,
    k: u64,
) -> Result<Vec<TupleRef>, SolveError> {
    let (inst, refs) = psc_instance(query, db);
    check_k(k, inst.n_elements as u64)?;
    Ok(primal_dual_psc(&inst, k)
        .into_iter()
        .map(|s| refs[s])
        .collect())
}

fn check_k(k: u64, available: u64) -> Result<(), SolveError> {
    if k == 0 {
        return Err(SolveError::KZero);
    }
    if k > available {
        return Err(SolveError::KTooLarge { k, available });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::solver::brute::{brute_force, BruteForceOptions};
    use crate::solver::removed_outputs;
    use adp_engine::schema::attrs;
    use std::sync::Arc;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2], &[3]]);
        db.add_relation(
            "R2",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 2], &[2, 1], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2], &[3]]);
        db
    }

    fn q() -> Query {
        parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap()
    }

    #[test]
    fn greedy_is_feasible() {
        for k in 1..=4 {
            let sol = greedy_full_cq(&q(), &db(), k).unwrap();
            assert!(removed_outputs(&q(), &db(), &sol) >= k, "k={k}");
        }
    }

    #[test]
    fn primal_dual_is_feasible_and_within_p() {
        let p = 3u64;
        let prep = PreparedQuery::new(q(), Arc::new(db()));
        for k in 1..=4 {
            let sol = primal_dual_full_cq(&q(), &db(), k).unwrap();
            assert!(removed_outputs(&q(), &db(), &sol) >= k, "k={k}");
            let opt = brute_force(&prep, k, &BruteForceOptions::default())
                .unwrap()
                .cost;
            assert!(
                sol.len() as u64 <= p * opt,
                "k={k}: primal-dual {} vs p·OPT {}",
                sol.len(),
                p * opt
            );
        }
    }

    #[test]
    fn greedy_within_harmonic_factor() {
        let prep = PreparedQuery::new(q(), Arc::new(db()));
        for k in 1..=4u64 {
            let sol = greedy_full_cq(&q(), &db(), k).unwrap();
            let opt = brute_force(&prep, k, &BruteForceOptions::default())
                .unwrap()
                .cost;
            // H_k ≤ 1 + ln k; generous integer bound:
            let hk = (1..=k).map(|i| 1.0 / i as f64).sum::<f64>();
            assert!(
                (sol.len() as f64) <= hk * opt as f64 + 1e-9,
                "k={k}: greedy {} vs H_k·OPT {}",
                sol.len(),
                hk * opt as f64
            );
        }
    }

    #[test]
    #[should_panic(expected = "full CQ")]
    fn projection_rejected() {
        let q = parse_query("Q(A) :- R1(A), R2(A,B), R3(B)").unwrap();
        let _ = psc_instance(&q, &db());
    }

    #[test]
    fn prepared_instance_matches_and_joins_once() {
        let prep = PreparedQuery::new(q(), Arc::new(db()));
        let (a, refs_a) = psc_instance_prepared(&prep);
        let (b, refs_b) = psc_instance(&q(), &db());
        assert_eq!(a.n_elements, b.n_elements);
        assert_eq!(refs_a, refs_b);
        assert_eq!(a.sets, b.sets);
        // Both instances drawn from one prepared query share one join.
        let e1 = prep.eval();
        let (_, _) = psc_instance_prepared(&prep);
        assert!(Arc::ptr_eq(&e1, &prep.eval()), "evaluation computed once");
    }
}
