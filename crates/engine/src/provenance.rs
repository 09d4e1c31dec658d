//! Witness/output/input incidence with deletion ("kill") semantics.
//!
//! The ADP heuristics repeatedly ask two questions the paper answers with
//! SQL round-trips:
//!
//! 1. *profit*: how many **outputs** disappear if input tuple `t` is
//!    deleted (`|Q(D−S)| − |Q(D−S−t)|`, Algorithm 6)?
//! 2. *kill*: actually delete `t` and update the remaining result.
//!
//! [`ProvenanceIndex`] answers both in memory. An output tuple dies when
//! **all** of its witnesses die; a witness dies when any of its input
//! tuples is deleted. For queries with projection an input tuple is a
//! *sole killer* of an output iff every live witness of that output uses
//! the tuple — computed by a per-output agreement scan (`profits`).
//!
//! Every pass here is a full rescan of the live witnesses. The solvers
//! run on the incrementally maintained
//! [`DeltaProvenance`](crate::delta::DeltaProvenance) instead; this index
//! is the sequential reference they are tested against (and the home of
//! [`TupleRef`]).

use crate::error::AdpError;
use crate::join::EvalResult;
use std::collections::HashMap;

/// A reference to an input tuple: query atom position + tuple index within
/// that atom's relation instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleRef {
    /// Index of the atom in the query body (atoms are distinct relations —
    /// no self-joins — so this also identifies the relation).
    pub atom: usize,
    /// Tuple index within the relation instance.
    pub index: u32,
}

impl TupleRef {
    /// Convenience constructor.
    pub fn new(atom: usize, index: u32) -> Self {
        TupleRef { atom, index }
    }
}

/// Incidence structure over an [`EvalResult`] supporting deletion.
#[derive(Clone, Debug)]
pub struct ProvenanceIndex {
    /// The evaluation (shared, not copied): witness tuples, witness →
    /// output and output → witnesses.
    eval: EvalResult,
    witness_alive: Vec<bool>,
    /// output → live witness count.
    output_live: Vec<u32>,
    /// per atom: tuple index → witnesses containing it.
    tuple_witnesses: Vec<HashMap<u32, Vec<u32>>>,
    live_outputs: u64,
}

impl ProvenanceIndex {
    /// Builds the index from an evaluation result.
    ///
    /// Panics if the result has more witnesses than the dense `u32` id
    /// space can address; fallible callers should use
    /// [`try_new`](Self::try_new), which surfaces
    /// [`AdpError::TooManyWitnesses`] instead.
    pub fn new(result: &EvalResult) -> Self {
        // adp-lint: allow(panic-path) -- documented panicking convenience
        // wrapper; try_new is the checked API.
        Self::try_new(result).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the index, rejecting results whose witness count overflows
    /// the `u32` id space (which would silently alias distinct witnesses
    /// and corrupt the incidence).
    pub fn try_new(result: &EvalResult) -> Result<Self, AdpError> {
        Self::try_new_with_cap(result, u32::MAX as u64)
    }

    /// [`try_new`](Self::try_new) with an injected witness-id cap, so the
    /// overflow guard is testable without materializing 4B witnesses.
    pub fn try_new_with_cap(result: &EvalResult, cap: u64) -> Result<Self, AdpError> {
        let witnesses = result.witness_count();
        if witnesses > cap {
            return Err(AdpError::TooManyWitnesses { witnesses, cap });
        }
        let mut tuple_witnesses: Vec<HashMap<u32, Vec<u32>>> =
            vec![HashMap::new(); result.atom_count()];
        for (w, wid) in result.witnesses().zip(0u32..) {
            for (atom, &t) in w.iter().enumerate() {
                tuple_witnesses[atom].entry(t).or_default().push(wid);
            }
        }
        let outputs = result.output_count();
        Ok(ProvenanceIndex {
            eval: result.clone(),
            witness_alive: vec![true; result.witnesses().len()],
            output_live: (0..outputs as usize)
                // adp-lint: allow(truncating-cast) -- per-output witness
                // lists are subsets of the cap-checked witness set.
                .map(|o| result.witnesses_of(o).len() as u32)
                .collect(),
            tuple_witnesses,
            live_outputs: outputs,
        })
    }

    /// Outputs still alive (`|Q(D − deleted)|`).
    pub fn live_outputs(&self) -> u64 {
        self.live_outputs
    }

    /// Witnesses still alive.
    pub fn live_witnesses(&self) -> u64 {
        self.witness_alive.iter().filter(|&&a| a).count() as u64
    }

    /// Deletes an input tuple: kills every live witness using it. Returns
    /// the number of outputs that died as a consequence.
    pub fn kill(&mut self, t: TupleRef) -> u64 {
        let Some(ws) = self.tuple_witnesses[t.atom].get(&t.index) else {
            return 0;
        };
        let mut died = 0;
        for &w in ws {
            let w = w as usize;
            if !self.witness_alive[w] {
                continue;
            }
            self.witness_alive[w] = false;
            let out = self.eval.output_of(w) as usize;
            self.output_live[out] -= 1;
            if self.output_live[out] == 0 {
                died += 1;
            }
        }
        self.live_outputs -= died;
        died
    }

    /// Profit of every input tuple under the *current* deletion state:
    /// `profit(t) = #outputs all of whose live witnesses use t` — exactly
    /// `|Q(D−S)| − |Q(D−S−{t})|`. Returned as one map per atom.
    ///
    /// Cost: one pass over live witnesses, `O(live_witnesses · p)`.
    pub fn profits(&self) -> Vec<HashMap<u32, u64>> {
        let mut profits: Vec<HashMap<u32, u64>> = vec![HashMap::new(); self.eval.atom_count()];
        // For each output: find, per atom, whether all live witnesses agree
        // on the tuple used. Agreeing tuples are sole killers.
        for (out, &live) in self.output_live.iter().enumerate() {
            if live == 0 {
                continue;
            }
            let mut agreed: Option<Vec<Option<u32>>> = None;
            for &w in self.eval.witnesses_of(out) {
                let w = w as usize;
                if !self.witness_alive[w] {
                    continue;
                }
                let tuples = self.eval.witness(w);
                match agreed.as_mut() {
                    None => {
                        agreed = Some(tuples.iter().map(|&t| Some(t)).collect());
                    }
                    Some(a) => {
                        for (atom, slot) in a.iter_mut().enumerate() {
                            if let Some(t) = *slot {
                                if t != tuples[atom] {
                                    *slot = None;
                                }
                            }
                        }
                    }
                }
            }
            if let Some(a) = agreed {
                for (atom, slot) in a.into_iter().enumerate() {
                    if let Some(t) = slot {
                        *profits[atom].entry(t).or_insert(0) += 1;
                    }
                }
            }
        }
        profits
    }

    /// Number of live witnesses each input tuple participates in, per
    /// atom. Used as a greedy tie-breaker when no tuple is a sole killer.
    pub fn live_counts(&self) -> Vec<HashMap<u32, u64>> {
        let mut counts: Vec<HashMap<u32, u64>> = vec![HashMap::new(); self.eval.atom_count()];
        for (w, tuples) in self.eval.witnesses().enumerate() {
            if !self.witness_alive[w] {
                continue;
            }
            for (atom, &t) in tuples.iter().enumerate() {
                *counts[atom].entry(t).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::join::evaluate;
    use crate::schema::{attrs, RelationSchema};
    use std::collections::BTreeMap;

    /// Figure 1 database with Q2(A,E) (projection query).
    fn q2_index() -> (Database, ProvenanceIndex) {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        let atoms = vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A", "E"]));
        let p = ProvenanceIndex::new(&r);
        (db, p)
    }

    #[test]
    fn initial_counts() {
        let (_, p) = q2_index();
        assert_eq!(p.live_outputs(), 3);
        assert_eq!(p.live_witnesses(), 4);
    }

    #[test]
    fn killing_r3_c3e3_removes_two_outputs_of_q1() {
        // Paper §3.2: ADP(Q1, D, 2) removes R3(c3,e3) — it kills the last
        // two Q1 outputs. Under Q1 (full CQ) every witness is an output.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        let atoms = vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A", "B", "C", "E"]));
        let mut p = ProvenanceIndex::new(&r);
        let c3e3 = db.expect("R3").index_of(&[3, 3]).unwrap();
        let died = p.kill(TupleRef::new(2, c3e3));
        assert_eq!(died, 2);
        assert_eq!(p.live_outputs(), 2);
    }

    #[test]
    fn profit_counts_sole_killers_under_projection() {
        let (db, p) = q2_index();
        let profits = p.profits();
        // Output (a2,e3) has two witnesses (via c2 and c3), so neither R2
        // nor R3 tuple alone kills it, but R1(a2,b2) does.
        let a2b2 = db.expect("R1").index_of(&[2, 2]).unwrap();
        assert_eq!(profits[0].get(&a2b2), Some(&1));
        let b2c2 = db.expect("R2").index_of(&[2, 2]).unwrap();
        assert_eq!(profits[1].get(&b2c2), None, "not a sole killer");
        // R3(c3,e3) solely kills only (a3,e3): (a2,e3) survives via c2.
        let c3e3 = db.expect("R3").index_of(&[3, 3]).unwrap();
        assert_eq!(profits[2].get(&c3e3), Some(&1));
    }

    #[test]
    fn kill_then_profit_updates() {
        let (db, mut p) = q2_index();
        // Kill R2(b2,c2): output (a2,e3) now has a single witness via c3,
        // so R3(c3,e3) becomes a sole killer of both (a2,e3) and (a3,e3).
        let b2c2 = db.expect("R2").index_of(&[2, 2]).unwrap();
        let died = p.kill(TupleRef::new(1, b2c2));
        assert_eq!(died, 0, "output survives through the other witness");
        let profits = p.profits();
        let c3e3 = db.expect("R3").index_of(&[3, 3]).unwrap();
        assert_eq!(profits[2].get(&c3e3), Some(&2));
    }

    #[test]
    fn witness_cap_guard_surfaces_too_many_witnesses() {
        // Regression: witness ids used to be truncated with `wid as u32`,
        // silently aliasing witnesses past the id space. The guard must
        // surface the overflow instead (tested at an injected small cap).
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        let atoms = vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A", "E"]));
        assert_eq!(r.witness_count(), 4);
        let err = ProvenanceIndex::try_new_with_cap(&r, 3).unwrap_err();
        assert_eq!(
            err,
            crate::error::AdpError::TooManyWitnesses {
                witnesses: 4,
                cap: 3
            }
        );
        assert!(ProvenanceIndex::try_new_with_cap(&r, 4).is_ok());
        assert!(ProvenanceIndex::try_new(&r).is_ok());
    }

    /// The participating tuples are the keys of the evaluation's tuple
    /// degrees, and the degrees are the pristine index's live counts.
    #[test]
    fn participating_tuples_reports_non_dangling() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2], &[9]]); // 9 dangles
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 5], &[2, 6], &[2, 7]]);
        let atoms = vec![
            RelationSchema::new("R1", attrs(&["A"])),
            RelationSchema::new("R2", attrs(&["A", "B"])),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A"]));
        let degrees: Vec<BTreeMap<u32, u64>> = r
            .tuple_degrees()
            .iter()
            .map(|counts| {
                (0u32..)
                    .zip(counts)
                    .filter(|&(_, &c)| c > 0)
                    .map(|(t, &c)| (t, u64::from(c)))
                    .collect()
            })
            .collect();
        let parts: Vec<Vec<u32>> = degrees
            .iter()
            .map(|m| m.keys().copied().collect())
            .collect();
        assert_eq!(parts, vec![vec![0, 1], vec![0, 1, 2]]);
        assert_eq!(parts, r.participating());
        assert_eq!(degrees[0][&1], 2, "R1(2) joins two R2 tuples");
        let counts = ProvenanceIndex::new(&r).live_counts();
        for (atom, map) in degrees.iter().enumerate() {
            let reference: BTreeMap<u32, u64> =
                counts[atom].iter().map(|(&t, &c)| (t, c)).collect();
            assert_eq!(map, &reference, "atom {atom}");
        }
    }
}
