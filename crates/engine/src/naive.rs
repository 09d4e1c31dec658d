//! A nested-loop reference executor.
//!
//! Deliberately brute-force: enumerate the full cartesian product of all
//! atoms and filter on shared attributes. Exponentially slower than
//! [`crate::join::evaluate`] but obviously correct — used to
//! differentially test the hash-join executor (and available to callers
//! who want a second opinion on tiny instances).

use crate::database::Database;
use crate::join::EvalResult;
use crate::relation::RelationInstance;
use crate::schema::{Attr, RelationSchema};
use crate::value::Value;
use std::collections::HashMap;

/// Name resolution done once up front, so the loops themselves are
/// string-free (mirroring the planned executor it differentially tests).
struct Resolved<'a> {
    instances: Vec<&'a RelationInstance>,
    /// Per atom, per tuple position: the shared binding slot.
    slots: Vec<Vec<usize>>,
    /// Per atom, per tuple position: does this occurrence bind the slot
    /// (first occurrence in atom order) or check it?
    binds: Vec<Vec<bool>>,
    /// Per head attribute: `(atom, position)` supplying its value.
    head_source: Vec<(usize, usize)>,
    n_slots: usize,
}

fn resolve<'a>(db: &'a Database, atoms: &[RelationSchema], head: &[Attr]) -> Resolved<'a> {
    let catalog = db.catalog();
    let instances: Vec<&RelationInstance> = atoms
        .iter()
        .map(|a| {
            db.rel_id(a.name())
                .map(|id| db.relation_by_id(id))
                // adp-lint: allow(panic-path) -- the naive oracle shares
                // compile's documented contract: atoms must name
                // registered relations.
                .unwrap_or_else(|| panic!("relation {} not in database", a.name()))
        })
        .collect();
    // Slot per attribute id, assigned in first-seen (atom, position) order.
    let mut slot_of: Vec<Option<usize>> = vec![None; catalog.attr_count()];
    let mut n_slots = 0usize;
    let mut slots = Vec::with_capacity(atoms.len());
    let mut binds = Vec::with_capacity(atoms.len());
    for atom in atoms {
        // adp-lint: allow(panic-path) -- every atom resolved two loops
        // above; a miss here is an internal inconsistency.
        let rel = db.rel_id(atom.name()).expect("resolved above");
        let mut atom_slots = Vec::new();
        let mut atom_binds = Vec::new();
        for &aid in db.resolved_attrs(rel) {
            match slot_of[aid.index()] {
                Some(s) => {
                    atom_slots.push(s);
                    atom_binds.push(false);
                }
                None => {
                    slot_of[aid.index()] = Some(n_slots);
                    atom_slots.push(n_slots);
                    atom_binds.push(true);
                    n_slots += 1;
                }
            }
        }
        slots.push(atom_slots);
        binds.push(atom_binds);
    }
    let head_source: Vec<(usize, usize)> = head
        .iter()
        .map(|a| {
            let aid = catalog.attr_id(a);
            atoms
                .iter()
                .enumerate()
                .find_map(|(i, s)| {
                    // adp-lint: allow(panic-path) -- every atom resolved
                    // at function entry; a miss is internal inconsistency.
                    let rel = db.rel_id(s.name()).expect("resolved above");
                    db.resolved_attrs(rel)
                        .iter()
                        .position(|x| Some(*x) == aid)
                        .map(|p| (i, p))
                })
                // adp-lint: allow(panic-path) -- same documented contract
                // as QueryPlan::compile: head attributes occur in the body.
                .expect("head attr occurs in the body")
        })
        .collect();
    Resolved {
        instances,
        slots,
        binds,
        head_source,
        n_slots,
    }
}

/// Evaluates the body by nested loops. Same contract as
/// [`crate::join::evaluate`]; witness/output order may differ, contents
/// are identical up to reordering.
pub fn evaluate_nested_loop(db: &Database, atoms: &[RelationSchema], head: &[Attr]) -> EvalResult {
    assert!(!atoms.is_empty(), "cannot evaluate a query with no atoms");
    let resolved = resolve(db, atoms, head);
    let mut found = Found::default();
    if resolved.instances.iter().all(|r| !r.is_empty()) {
        let mut chosen = vec![0u32; atoms.len()];
        let mut binding = vec![0 as Value; resolved.n_slots];
        nested(&resolved, 0, &mut chosen, &mut binding, &mut found);
    }
    EvalResult::from_parts(
        atoms.len(),
        head.len(),
        found.witness_tuples,
        found.witness_output,
        found.outputs,
    )
}

/// The witnesses found so far, in the flat [`EvalResult`] layout, with
/// the oracle's own output dedup.
#[derive(Default)]
struct Found {
    witness_tuples: Vec<u32>,
    witness_output: Vec<u32>,
    outputs: Vec<Value>,
    output_ids: HashMap<Box<[Value]>, u32>,
}

fn nested(
    r: &Resolved<'_>,
    depth: usize,
    chosen: &mut [u32],
    binding: &mut [Value],
    found: &mut Found,
) {
    if depth == r.instances.len() {
        if !consistent(r, chosen, binding) {
            return;
        }
        // project the (consistent) assignment onto the head
        let out_key: Box<[Value]> = r
            .head_source
            .iter()
            .map(|&(i, pos)| r.instances[i].tuple(chosen[i])[pos])
            .collect();
        let next_id = crate::ids::dense_id(found.output_ids.len(), "output ids");
        let out_id = *found.output_ids.entry(out_key.clone()).or_insert(next_id);
        if out_id == next_id {
            found.outputs.extend_from_slice(&out_key);
        }
        found.witness_tuples.extend_from_slice(chosen);
        found.witness_output.push(out_id);
        return;
    }
    for idx in r.instances[depth].indices() {
        chosen[depth] = idx;
        nested(r, depth + 1, chosen, binding, found);
    }
}

/// Do the chosen tuples agree on every shared attribute?
fn consistent(r: &Resolved<'_>, chosen: &[u32], binding: &mut [Value]) -> bool {
    for (i, inst) in r.instances.iter().enumerate() {
        let t = inst.tuple(chosen[i]);
        for (pos, (&slot, &first)) in r.slots[i].iter().zip(&r.binds[i]).enumerate() {
            if first {
                binding[slot] = t[pos];
            } else if binding[slot] != t[pos] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::evaluate;
    use crate::schema::attrs;

    fn sorted_outputs(r: &EvalResult) -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = r.outputs().map(<[Value]>::to_vec).collect();
        v.sort();
        v
    }

    fn sorted_witnesses(r: &EvalResult) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = r.witnesses().map(<[u32]>::to_vec).collect();
        v.sort();
        v
    }

    #[test]
    fn agrees_with_hash_join_on_chain() {
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
        for head in [attrs(&["A", "E"]), attrs(&["A", "B", "C", "E"]), vec![]] {
            let a = evaluate(&db, &atoms, &head);
            let b = evaluate_nested_loop(&db, &atoms, &head);
            assert_eq!(sorted_outputs(&a), sorted_outputs(&b));
            assert_eq!(sorted_witnesses(&a), sorted_witnesses(&b));
        }
    }

    #[test]
    fn agrees_on_random_instances() {
        // deterministic LCG
        let mut state = 0xDEADBEEFu64;
        let mut rng = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let atoms = vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["A", "C"])),
        ];
        for _ in 0..20 {
            let mut db = Database::new();
            for schema in &atoms {
                let mut inst = crate::relation::RelationInstance::new(schema.clone());
                for _ in 0..rng(6) {
                    inst.insert(&[rng(3), rng(3)]);
                }
                db.add(inst);
            }
            let head = attrs(&["A"]);
            let a = evaluate(&db, &atoms, &head);
            let b = evaluate_nested_loop(&db, &atoms, &head);
            assert_eq!(sorted_outputs(&a), sorted_outputs(&b));
            assert_eq!(a.witness_count(), b.witness_count());
        }
    }

    #[test]
    fn cross_product_matches() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["B"]), &[&[7], &[8], &[9]]);
        let atoms = vec![
            RelationSchema::new("R", attrs(&["A"])),
            RelationSchema::new("S", attrs(&["B"])),
        ];
        let a = evaluate(&db, &atoms, &attrs(&["A", "B"]));
        let b = evaluate_nested_loop(&db, &atoms, &attrs(&["A", "B"]));
        assert_eq!(sorted_outputs(&a), sorted_outputs(&b));
    }
}
