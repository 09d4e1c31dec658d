//! Multiway natural join with witness provenance.
//!
//! Evaluating a conjunctive query body over a [`Database`] produces:
//!
//! * the set of *witnesses* — full-join rows, each identified by the input
//!   tuple it uses in every atom (this is the provenance the ADP
//!   algorithms consume),
//! * the distinct *outputs* — projections of witnesses onto the head
//!   attributes (`Q(D)` with set semantics),
//! * the incidence between the two.
//!
//! The executor is a classic left-deep backtracking hash join, compiled
//! and run by [`crate::plan`]: atoms are ordered greedily (smallest
//! relation first, preferring atoms connected to the already-bound
//! attributes) and each non-leading atom gets a hash index on its bound
//! attributes. [`evaluate`] is the one-shot convenience wrapper —
//! callers that re-evaluate the same query should hold a
//! [`QueryPlan`] and its cached
//! [`JoinIndexes`](crate::plan::JoinIndexes) instead.

use crate::database::Database;
use crate::plan::QueryPlan;
use crate::schema::{Attr, RelationSchema};
use crate::value::Value;
use std::collections::BTreeMap;

/// One full-join row: the index of the participating tuple in every atom,
/// in *query atom order* (not join order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// `tuples[i]` is the tuple index within the relation of atom `i`.
    pub tuples: Box<[u32]>,
}

/// Result of evaluating a conjunctive query body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalResult {
    /// Relation name per atom, in query order.
    pub atom_names: Vec<String>,
    /// Head attributes the outputs are projected on.
    pub head: Vec<Attr>,
    /// All witnesses (full-join rows).
    pub witnesses: Vec<Witness>,
    /// Distinct output tuples (projections of witnesses on `head`).
    pub outputs: Vec<Box<[Value]>>,
    /// For each witness, the output it projects to.
    pub witness_output: Vec<u32>,
    /// For each output, the witnesses projecting to it.
    pub output_witnesses: Vec<Vec<u32>>,
}

impl EvalResult {
    /// `|Q(D)|` — the number of distinct output tuples.
    pub fn output_count(&self) -> u64 {
        self.outputs.len() as u64
    }

    /// Number of full-join rows.
    pub fn witness_count(&self) -> u64 {
        self.witnesses.len() as u64
    }

    /// Per atom: the tuples on at least one witness — the non-dangling
    /// tuples — ascending.
    pub fn participating(&self) -> Vec<Vec<u32>> {
        let mut on: Vec<Vec<bool>> = vec![Vec::new(); self.atom_names.len()];
        for w in &self.witnesses {
            for (seen, &t) in on.iter_mut().zip(w.tuples.iter()) {
                let t = t as usize;
                if seen.len() <= t {
                    seen.resize(t + 1, false);
                }
                seen[t] = true;
            }
        }
        on.into_iter()
            .map(|seen| {
                (0u32..)
                    .zip(seen)
                    .filter_map(|(i, s)| s.then_some(i))
                    .collect()
            })
            .collect()
    }

    /// Per atom: every tuple on at least one witness (the non-dangling
    /// tuples, ascending) mapped to the number of witnesses it is on.
    /// On a full CQ that degree is the outputs deleting the tuple
    /// removes.
    pub fn tuple_degrees(&self) -> Vec<BTreeMap<u32, u64>> {
        let mut degrees = vec![BTreeMap::new(); self.atom_names.len()];
        for w in &self.witnesses {
            for (atom, &t) in w.tuples.iter().enumerate() {
                *degrees[atom].entry(t).or_insert(0) += 1;
            }
        }
        degrees
    }
}

/// Evaluates the conjunctive body `atoms` over `db`, projecting on `head`.
///
/// Every atom's relation must exist in `db` with the same attribute set.
/// `head` must be a subset of the body attributes. An empty `head` gives
/// boolean semantics: at most one output, the empty tuple.
///
/// One-shot convenience: compiles a [`QueryPlan`] and executes it once.
/// Callers that evaluate the same query repeatedly should build the plan
/// themselves and reuse its indexes (see [`crate::plan`]).
pub fn evaluate(db: &Database, atoms: &[RelationSchema], head: &[Attr]) -> EvalResult {
    QueryPlan::new(db, atoms, head).execute_once(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{attrs, RelationSchema};

    /// The running example from Figure 1 of the paper.
    fn figure1_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            "R1",
            attrs(&["A", "B"]),
            &[&[1, 1], &[2, 2], &[3, 3]], // (a1,b1),(a2,b2),(a3,b3)
        );
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        db
    }

    fn figure1_atoms() -> Vec<RelationSchema> {
        vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ]
    }

    #[test]
    fn full_join_matches_figure1_q1() {
        let db = figure1_db();
        let r = evaluate(&db, &figure1_atoms(), &attrs(&["A", "B", "C", "E"]));
        // Q1(D) has 4 tuples in the paper.
        assert_eq!(r.output_count(), 4);
        assert_eq!(r.witness_count(), 4);
        let mut outs: Vec<Vec<Value>> = r.outputs.iter().map(|o| o.to_vec()).collect();
        outs.sort();
        assert_eq!(
            outs,
            vec![
                vec![1, 1, 1, 1],
                vec![2, 2, 2, 3],
                vec![2, 2, 3, 3],
                vec![3, 3, 3, 3],
            ]
        );
    }

    #[test]
    fn projection_matches_figure1_q2() {
        let db = figure1_db();
        let r = evaluate(&db, &figure1_atoms(), &attrs(&["A", "E"]));
        // Q2(D) = {(a1,e1),(a2,e3),(a3,e3)} — 3 distinct outputs, 4 witnesses.
        assert_eq!(r.output_count(), 3);
        assert_eq!(r.witness_count(), 4);
        // a2 output has two witnesses (through c2 and c3).
        let a2 = r
            .outputs
            .iter()
            .position(|o| o.as_ref() == [2, 3])
            .expect("a2,e3 present");
        assert_eq!(r.output_witnesses[a2].len(), 2);
    }

    #[test]
    fn boolean_head_gives_single_output() {
        let db = figure1_db();
        let r = evaluate(&db, &figure1_atoms(), &[]);
        assert_eq!(r.output_count(), 1);
        assert_eq!(r.witness_count(), 4);
        assert!(r.outputs[0].is_empty());
    }

    #[test]
    fn empty_relation_empties_result() {
        let mut db = figure1_db();
        db.relation_mut("R2").unwrap(); // keep borrowck happy
        let mut db2 = Database::new();
        db2.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1]]);
        db2.add_relation("R2", attrs(&["B", "C"]), &[]);
        db2.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1]]);
        let r = evaluate(&db2, &figure1_atoms(), &attrs(&["A"]));
        assert_eq!(r.output_count(), 0);
        let _ = db;
    }

    #[test]
    fn witnesses_reference_query_atom_order() {
        let db = figure1_db();
        let r = evaluate(&db, &figure1_atoms(), &attrs(&["A"]));
        for w in &r.witnesses {
            assert_eq!(w.tuples.len(), 3);
            // every witness joins: R1[t0].B == R2[t1].B etc.
            let t0 = db.expect("R1").tuple(w.tuples[0]);
            let t1 = db.expect("R2").tuple(w.tuples[1]);
            let t2 = db.expect("R3").tuple(w.tuples[2]);
            assert_eq!(t0[1], t1[0]);
            assert_eq!(t1[1], t2[0]);
        }
    }

    #[test]
    fn cross_product_for_disconnected_query() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["B"]), &[&[10], &[20], &[30]]);
        let atoms = vec![
            RelationSchema::new("R", attrs(&["A"])),
            RelationSchema::new("S", attrs(&["B"])),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A", "B"]));
        assert_eq!(r.output_count(), 6);
    }

    #[test]
    fn vacuum_atom_joins_trivially() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("V", vec![], &[&[]]);
        let atoms = vec![
            RelationSchema::new("R", attrs(&["A"])),
            RelationSchema::new("V", vec![]),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A"]));
        assert_eq!(r.output_count(), 2);
    }
}
