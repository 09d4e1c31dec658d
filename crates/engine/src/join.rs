//! Multiway natural join with witness provenance, stored flat.
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
//! An [`EvalResult`] keeps all three in a handful of flat arrays behind
//! one `Arc`: the witness tuples back to back with one slot per atom,
//! the output keys back to back with one slot per head attribute (the
//! join's output [`KeyTable`](crate::keytable::KeyTable) arena), the
//! witness → output ids, and the output → witness lists in CSR form
//! (offsets plus ids). There is no per-row allocation, and cloning a
//! result shares the arrays: the delta state
//! ([`DeltaProvenance`](crate::delta::DeltaProvenance)) and the
//! reference [`ProvenanceIndex`](crate::provenance::ProvenanceIndex)
//! read the evaluation they were built on instead of copying it.
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
use std::sync::Arc;

/// How often each key occurs, indexed by key up to the largest one.
fn key_counts(keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut counts = Vec::new();
    for k in keys.map(|k| k as usize) {
        if counts.len() <= k {
            counts.resize(k + 1, 0);
        }
        counts[k] += 1;
    }
    counts
}

/// Lists of dense ids grouped by a dense key: list `k` is
/// `ids[offsets[k]..offsets[k + 1]]`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Csr {
    /// `lists() + 1` entries, starting at 0.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// Groups the positions of `keys` by key in one counting sort: list
    /// `k` holds, ascending, every `i` with `keys[i] == k`, for every
    /// `k` up to the largest key.
    pub(crate) fn group<I>(keys: I) -> Csr
    where
        I: Iterator<Item = u32> + Clone,
    {
        let mut offsets = vec![0u32];
        for c in key_counts(keys.clone()) {
            offsets.push(offsets[offsets.len() - 1] + c);
        }
        let lists = offsets.len() - 1;
        let mut next = offsets[..lists].to_vec();
        let mut ids = vec![0u32; offsets[lists] as usize];
        for (k, i) in keys.zip(0u32..) {
            let at = &mut next[k as usize];
            ids[*at as usize] = i;
            *at += 1;
        }
        Csr { offsets, ids }
    }

    /// Number of lists.
    pub(crate) fn lists(&self) -> usize {
        self.offsets.len() - 1
    }

    /// List `k`; empty past the last list.
    pub(crate) fn of(&self, k: usize) -> &[u32] {
        if k >= self.lists() {
            return &[];
        }
        &self.ids[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// The stored arrays of one evaluation.
#[derive(Debug, PartialEq, Eq)]
struct Flat {
    /// Atom stride: tuples per witness.
    atoms: usize,
    /// Head stride: values per output key.
    head_width: usize,
    /// Witness `w` uses tuple `witness_tuples[w * atoms + i]` of atom
    /// `i` (query atom order, not join order).
    witness_tuples: Vec<u32>,
    /// Witness → the output it projects to.
    witness_output: Vec<u32>,
    /// Output `o`'s key is `outputs[o * head_width..(o + 1) * head_width]`.
    outputs: Vec<Value>,
    /// Output → its witnesses, ascending.
    output_witnesses: Csr,
}

/// Result of evaluating a conjunctive query body: witnesses, distinct
/// outputs and their incidence, in flat arrays shared by every clone
/// (see the module docs). Witness and output ids are dense and
/// first-seen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalResult(Arc<Flat>);

impl EvalResult {
    /// Assembles a result from the flat witness arrays and the output
    /// keys, building the output → witness lists. Every output has a
    /// witness.
    pub(crate) fn from_parts(
        atoms: usize,
        head_width: usize,
        witness_tuples: Vec<u32>,
        witness_output: Vec<u32>,
        outputs: Vec<Value>,
    ) -> Self {
        crate::ids::dense_id(witness_output.len(), "witness ids");
        let output_witnesses = Csr::group(witness_output.iter().copied());
        EvalResult(Arc::new(Flat {
            atoms,
            head_width,
            witness_tuples,
            witness_output,
            outputs,
            output_witnesses,
        }))
    }

    /// `|Q(D)|` — the number of distinct output tuples.
    pub fn output_count(&self) -> u64 {
        self.0.output_witnesses.lists() as u64
    }

    /// Number of full-join rows.
    pub fn witness_count(&self) -> u64 {
        self.0.witness_output.len() as u64
    }

    /// Number of query atoms: the tuples per witness.
    pub fn atom_count(&self) -> usize {
        self.0.atoms
    }

    /// Number of head attributes: the values per output key.
    pub fn head_width(&self) -> usize {
        self.0.head_width
    }

    /// The tuple index witness `w` uses in every atom, in query atom
    /// order.
    pub fn witness(&self, w: usize) -> &[u32] {
        let n = self.0.atoms;
        &self.0.witness_tuples[w * n..(w + 1) * n]
    }

    /// Every witness's tuples, in witness id order.
    pub fn witnesses(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.0.witness_output.len()).map(|w| self.witness(w))
    }

    /// Atom `atom`'s tuple on every witness, in witness id order.
    pub(crate) fn column(&self, atom: usize) -> impl Iterator<Item = u32> + Clone + '_ {
        let rows = self.0.witness_tuples.iter().skip(atom);
        rows.step_by(self.0.atoms).copied()
    }

    /// The output witness `w` projects to.
    pub fn output_of(&self, w: usize) -> u32 {
        self.0.witness_output[w]
    }

    /// The key of output `o`: its values on the head attributes.
    pub fn output(&self, o: usize) -> &[Value] {
        let n = self.0.head_width;
        &self.0.outputs[o * n..(o + 1) * n]
    }

    /// Every output key, in output id order.
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.0.output_witnesses.lists()).map(|o| self.output(o))
    }

    /// The witnesses projecting to output `o`, ascending.
    pub fn witnesses_of(&self, o: usize) -> &[u32] {
        self.0.output_witnesses.of(o)
    }

    /// True when both results read the same stored arrays — a clone,
    /// or the evaluation a delta state was built on.
    pub fn shares_storage(&self, other: &EvalResult) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Per atom: how many witnesses each tuple is on, indexed by tuple
    /// and covering the largest participating tuple (a tuple past the
    /// end is on none). On a full CQ that degree is the outputs deleting
    /// the tuple removes.
    pub fn tuple_degrees(&self) -> Vec<Vec<u32>> {
        (0..self.0.atoms)
            .map(|a| key_counts(self.column(a)))
            .collect()
    }

    /// Per atom: the tuples on at least one witness — the non-dangling
    /// tuples — ascending.
    pub fn participating(&self) -> Vec<Vec<u32>> {
        self.tuple_degrees()
            .into_iter()
            .map(|counts| {
                (0u32..)
                    .zip(counts)
                    .filter_map(|(t, c)| (c > 0).then_some(t))
                    .collect()
            })
            .collect()
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
        let mut outs: Vec<Vec<Value>> = r.outputs().map(<[Value]>::to_vec).collect();
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
            .outputs()
            .position(|o| o == [2, 3])
            .expect("a2,e3 present");
        assert_eq!(r.witnesses_of(a2).len(), 2);
    }

    #[test]
    fn boolean_head_gives_single_output() {
        let db = figure1_db();
        let r = evaluate(&db, &figure1_atoms(), &[]);
        assert_eq!(r.output_count(), 1);
        assert_eq!(r.witness_count(), 4);
        assert!(r.output(0).is_empty());
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
        for w in r.witnesses() {
            assert_eq!(w.len(), 3);
            // every witness joins: R1[t0].B == R2[t1].B etc.
            let t0 = db.expect("R1").tuple(w[0]);
            let t1 = db.expect("R2").tuple(w[1]);
            let t2 = db.expect("R3").tuple(w[2]);
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
