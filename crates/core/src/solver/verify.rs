//! Solution verification: apply a deletion set and measure its effect.
//!
//! Used by the test suite (every reported solution must actually remove
//! ≥ k outputs) and by the experiment harness when reporting quality.
//! [`rescan_greedy`] is the reference the incremental greedy rounds are
//! differentially tested against.

use crate::analysis::roles::endogenous_atoms;
use crate::query::Query;
use adp_engine::database::Database;
use adp_engine::error::AdpError;
use adp_engine::join::EvalResult;
use adp_engine::plan::{AliveMask, QueryPlan};
use adp_engine::provenance::{ProvenanceIndex, TupleRef};
use adp_engine::relation::RelationInstance;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Returns a copy of `db` with the given tuples (in query-atom
/// coordinates) deleted.
pub fn apply_deletions(query: &Query, db: &Database, deletions: &[TupleRef]) -> Database {
    let mut out = Database::new();
    for (atom, schema) in query.atoms().iter().enumerate() {
        // adp-lint: allow(panic-path) -- documented panicking lookup;
        // verification replays a query already validated against db.
        let rel = db.expect(schema.name());
        let dead: std::collections::HashSet<u32> = deletions
            .iter()
            .filter(|t| t.atom == atom)
            .map(|t| t.index)
            .collect();
        let mut inst = RelationInstance::new(rel.schema().clone());
        for idx in rel.indices() {
            if !dead.contains(&idx) {
                inst.insert(&rel.tuple_vec(idx));
            }
        }
        out.add(inst);
    }
    out
}

/// Number of outputs removed by deleting `deletions` from `db`:
/// `|Q(D)| − |Q(D − S)|`.
///
/// Plans the query once and measures the "after" state by masked
/// re-execution of the same plan and indexes — no database copy is
/// built. (Callers holding a
/// [`PreparedQuery`](super::prepared::PreparedQuery) get the same
/// measurement with the plan, indexes, *and* before-state cached.)
pub fn removed_outputs(query: &Query, db: &Database, deletions: &[TupleRef]) -> u64 {
    if deletions.is_empty() {
        return 0;
    }
    let plan = QueryPlan::new(db, query.atoms(), query.head());
    if plan.rels().iter().any(|&r| db.relation_by_id(r).is_empty()) {
        return 0;
    }
    let indexes = plan.build_indexes(db);
    let before = plan.execute(db, &indexes).output_count();
    let mut mask = AliveMask::all_alive(db, query.atoms());
    mask.kill_all(deletions);
    let after = plan.execute_masked(db, &indexes, &mask).output_count();
    before - after
}

/// `GreedyForCQ` (Algorithm 6) by a full rescan per round, sequential:
/// the reference the solver's incremental rounds must match pick for
/// pick. Each round scores every live witness
/// ([`ProvenanceIndex::profits`]) and deletes the endogenous tuple with
/// the largest profit; when no tuple is a sole killer it deletes the
/// one on the most live witnesses
/// ([`ProvenanceIndex::live_counts`]) instead. Ties go to the smallest
/// `(atom, idx)`, the solver's `(score, Reverse((atom, idx)))` order.
/// Rounds stop once `k` outputs of `eval` (the evaluation of `query`)
/// are gone or no output is left. Returns each pick with the outputs
/// removed through it, in `eval`'s coordinates.
pub fn rescan_greedy(
    query: &Query,
    eval: &EvalResult,
    k: u64,
) -> Result<Vec<(TupleRef, u64)>, AdpError> {
    let endo = endogenous_atoms(query);
    let best = |maps: Vec<HashMap<u32, u64>>| {
        maps.iter()
            .enumerate()
            .filter(|&(atom, _)| endo[atom])
            .flat_map(|(atom, map)| map.iter().map(move |(&idx, &s)| (s, atom, idx)))
            .filter(|&(s, _, _)| s > 0)
            .max_by_key(|&(s, atom, idx)| (s, Reverse((atom, idx))))
            .map(|(_, atom, idx)| TupleRef::new(atom, idx))
    };
    let mut prov = ProvenanceIndex::try_new(eval)?;
    let mut picks = Vec::new();
    let mut removed = 0;
    while removed < k && prov.live_outputs() > 0 {
        let Some(t) = best(prov.profits()).or_else(|| best(prov.live_counts())) else {
            break;
        };
        removed += prov.kill(t);
        picks.push((t, removed));
    }
    Ok(picks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use adp_engine::schema::attrs;

    #[test]
    fn apply_and_measure() {
        let q = parse_query("Q(A,B) :- R(A), S(A,B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        // deleting R(1) removes outputs (1,1) and (1,2)
        let removed = removed_outputs(&q, &db, &[TupleRef::new(0, 0)]);
        assert_eq!(removed, 2);
        // empty deletion removes nothing
        assert_eq!(removed_outputs(&q, &db, &[]), 0);
    }

    #[test]
    fn deletions_respect_atom_coordinates() {
        let q = parse_query("Q(A,B) :- R(A), S(A,B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["A", "B"]), &[&[1, 1], &[2, 9]]);
        // index 0 of atom 1 is S(1,1), not R(1)
        let removed = removed_outputs(&q, &db, &[TupleRef::new(1, 0)]);
        assert_eq!(removed, 1);
        let after = apply_deletions(&q, &db, &[TupleRef::new(1, 0)]);
        assert_eq!(after.expect("R").len(), 2);
        assert_eq!(after.expect("S").len(), 1);
    }

    #[test]
    fn rescan_greedy_picks_the_highest_profit_first() {
        // S(1,1) supports two outputs, S(2,2) one.
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation("PS", attrs(&["SK", "PK"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2]]);
        let eval = adp_engine::join::evaluate(&db, q.atoms(), q.head());
        let picks = rescan_greedy(&q, &eval, 2).unwrap();
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].1, 2);
        assert_eq!(removed_outputs(&q, &db, &[picks[0].0]), 2);
        let all = rescan_greedy(&q, &eval, 3).unwrap();
        assert_eq!(all.last().map(|&(_, removed)| removed), Some(3));
        assert!(rescan_greedy(&q, &eval, 0).unwrap().is_empty());
    }
}
