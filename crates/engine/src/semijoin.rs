//! GYO ear decomposition and dangling-tuple removal.
//!
//! A tuple is *dangling* if it participates in no full-join result (paper
//! §7.2, footnote 2). The solvers that need the non-dangling tuples — the
//! boolean min-cut leaf and `Singleton`'s case 2 — read them off the
//! evaluation they already hold (its witnesses, or
//! [`EvalResult::participating`](crate::join::EvalResult::participating))
//! and never materialize a reduced instance. [`remove_dangling`] is the
//! materializing reduction the tests compare them against.
//!
//! For **acyclic** queries we build a join tree via the classic GYO ear
//! decomposition and run a Yannakakis full reducer (two semijoin passes),
//! which removes all dangling tuples in time linear in the data. For
//! cyclic queries we fall back to enumerating witnesses and keeping the
//! participating tuples.

use crate::database::Database;
use crate::join::evaluate;
use crate::relation::RelationInstance;
use crate::schema::{Attr, RelationSchema};
use crate::value::Value;
use std::collections::HashSet;

/// A join tree over query atoms: `parent[i]` is the parent atom of atom
/// `i` (`None` for the root). Produced by GYO when the query is acyclic.
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// Parent per atom; exactly one `None` entry (the root).
    pub parent: Vec<Option<usize>>,
    /// Elimination order: ears in the order GYO removed them (leaves
    /// first). The root is last.
    pub order: Vec<usize>,
}

/// Attempts a GYO ear decomposition. Returns `None` if the query
/// (hyper)graph is cyclic.
pub fn gyo_join_tree(atoms: &[RelationSchema]) -> Option<JoinTree> {
    let n = atoms.len();
    if n == 0 {
        return None;
    }
    let mut alive: Vec<bool> = vec![true; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut removed = 0;

    while removed + 1 < n {
        // Find an ear: an alive atom i whose attributes shared with other
        // alive atoms are all contained in a single other alive atom j.
        let mut found = None;
        'outer: for i in 0..n {
            if !alive[i] {
                continue;
            }
            // attributes of i shared with any other alive atom
            let shared: Vec<&Attr> = atoms[i]
                .attrs()
                .iter()
                .filter(|a| (0..n).any(|j| j != i && alive[j] && atoms[j].contains(a)))
                .collect();
            for j in 0..n {
                if j == i || !alive[j] {
                    continue;
                }
                if shared.iter().all(|a| atoms[j].contains(a)) {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        match found {
            Some((ear, witness)) => {
                alive[ear] = false;
                parent[ear] = Some(witness);
                order.push(ear);
                removed += 1;
            }
            None => return None, // cyclic
        }
    }
    // adp-lint: allow(panic-path) -- GYO removes exactly n-1 ears from
    // n atoms, so one alive atom always remains.
    let root = (0..n).find(|&i| alive[i]).expect("one atom remains");
    order.push(root);
    Some(JoinTree { parent, order })
}

/// True if the query is (GYO-)acyclic.
pub fn is_acyclic(atoms: &[RelationSchema]) -> bool {
    gyo_join_tree(atoms).is_some()
}

/// Result of dangling-tuple removal: the reduced database plus, per atom,
/// a map *new tuple index → original tuple index*.
#[derive(Clone, Debug)]
pub struct Reduced {
    /// The reduced database (same relation names, subsets of the tuples).
    pub db: Database,
    /// `backmap[atom][new_idx] = old_idx` in the original database.
    pub backmap: Vec<Vec<u32>>,
}

/// Removes all dangling tuples. Uses the Yannakakis full reducer when the
/// query is acyclic, otherwise the witness-based fallback.
pub fn remove_dangling(db: &Database, atoms: &[RelationSchema]) -> Reduced {
    match gyo_join_tree(atoms) {
        Some(tree) => full_reduce(db, atoms, &tree),
        None => reduce_by_witnesses(db, atoms),
    }
}

/// Yannakakis full reducer over a join tree: a leaf-to-root semijoin pass
/// followed by a root-to-leaf pass. On an acyclic query this leaves
/// exactly the non-dangling tuples.
pub fn full_reduce(db: &Database, atoms: &[RelationSchema], tree: &JoinTree) -> Reduced {
    let n = atoms.len();
    // keep[a] = set of surviving ORIGINAL tuple indices for atom a.
    let mut keep: Vec<HashSet<u32>> = (0..n)
        // adp-lint: allow(panic-path) -- documented panicking lookup; the
        // reducer runs on atoms already validated against the database.
        .map(|a| db.expect(atoms[a].name()).indices().collect())
        .collect();

    // If any relation is empty, everything dangles.
    // adp-lint: allow(panic-path) -- same validated-atoms contract.
    if atoms.iter().any(|a| db.expect(a.name()).is_empty()) {
        for k in keep.iter_mut() {
            k.clear();
        }
        return materialize(db, atoms, keep);
    }

    // Pass 1 (leaf → root): parent ⋉ child, in elimination order.
    for &child in &tree.order {
        if let Some(parent) = tree.parent[child] {
            semijoin(db, atoms, &mut keep, parent, child);
        }
    }
    // Pass 2 (root → leaf): child ⋉ parent, in reverse elimination order.
    for &child in tree.order.iter().rev() {
        if let Some(parent) = tree.parent[child] {
            semijoin(db, atoms, &mut keep, child, parent);
        }
    }
    // If anything became empty, the join is empty: everything dangles.
    if keep.iter().any(|k| k.is_empty()) {
        for k in keep.iter_mut() {
            k.clear();
        }
    }
    materialize(db, atoms, keep)
}

/// `keep[target] ⋉ keep[source]`: drop target tuples whose projection on
/// the shared attributes matches no surviving source tuple.
fn semijoin(
    db: &Database,
    atoms: &[RelationSchema],
    keep: &mut [HashSet<u32>],
    target: usize,
    source: usize,
) {
    let shared: Vec<Attr> = atoms[target]
        .attrs()
        .iter()
        .filter(|a| atoms[source].contains(a))
        .cloned()
        .collect();
    // adp-lint: allow(panic-path) -- same validated-atoms contract.
    let src_rel = db.expect(atoms[source].name());
    let mut src_keys: HashSet<Vec<Value>> = HashSet::new();
    // adp-lint: allow(unordered-iter) -- builds a set; membership is
    // visit-order-independent.
    for &idx in keep[source].iter() {
        src_keys.insert(src_rel.project(idx, &shared));
    }
    // adp-lint: allow(panic-path) -- same validated-atoms contract.
    let tgt_rel = db.expect(atoms[target].name());
    keep[target].retain(|&idx| src_keys.contains(&tgt_rel.project(idx, &shared)));
}

/// Witness-based reduction for cyclic queries: evaluate the full join and
/// keep the participating tuples.
pub fn reduce_by_witnesses(db: &Database, atoms: &[RelationSchema]) -> Reduced {
    materialize(db, atoms, evaluate(db, atoms, &[]).participating())
}

/// The database holding, per atom, the tuples `keep` names.
fn materialize<K>(db: &Database, atoms: &[RelationSchema], keep: Vec<K>) -> Reduced
where
    K: IntoIterator<Item = u32>,
{
    let mut out = Database::new();
    let mut backmap = Vec::with_capacity(atoms.len());
    for (schema, kept) in atoms.iter().zip(keep) {
        // adp-lint: allow(panic-path) -- same validated-atoms contract.
        let rel = db.expect(schema.name());
        // adp-lint: allow(unordered-iter) -- collected then immediately
        // sorted; hash order never escapes.
        let mut sorted: Vec<u32> = kept.into_iter().collect();
        sorted.sort_unstable();
        let mut inst = RelationInstance::new(rel.schema().clone());
        for &idx in &sorted {
            inst.insert(&rel.tuple_vec(idx));
        }
        out.add(inst);
        backmap.push(sorted);
    }
    Reduced { db: out, backmap }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attrs;

    /// Every remaining tuple participates in at least one witness.
    fn is_fully_reduced(db: &Database, atoms: &[RelationSchema]) -> bool {
        let parts = evaluate(db, atoms, &[]).participating();
        atoms
            .iter()
            .enumerate()
            // adp-lint: allow(panic-path) -- same validated-atoms contract.
            .all(|(a, s)| parts[a].len() == db.expect(s.name()).len())
    }

    fn chain_atoms() -> Vec<RelationSchema> {
        vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ]
    }

    fn triangle_atoms() -> Vec<RelationSchema> {
        vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "A"])),
        ]
    }

    #[test]
    fn chain_is_acyclic_triangle_is_not() {
        assert!(is_acyclic(&chain_atoms()));
        assert!(!is_acyclic(&triangle_atoms()));
    }

    #[test]
    fn join_tree_shape_for_chain() {
        let t = gyo_join_tree(&chain_atoms()).unwrap();
        assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
        assert_eq!(t.order.len(), 3);
    }

    #[test]
    fn full_reduce_removes_dangling() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[9, 9]]);
        db.add_relation("R2", attrs(&["B", "C"]), &[&[1, 2], &[7, 7]]);
        db.add_relation("R3", attrs(&["C", "E"]), &[&[2, 3], &[7, 8]]);
        let atoms = chain_atoms();
        let red = remove_dangling(&db, &atoms);
        assert_eq!(red.db.expect("R1").len(), 1);
        assert_eq!(red.db.expect("R2").len(), 1);
        assert_eq!(red.db.expect("R3").len(), 1);
        assert_eq!(red.backmap[0], vec![0]);
        assert!(is_fully_reduced(&red.db, &atoms));
    }

    #[test]
    fn reduce_agrees_with_witness_fallback_on_acyclic() {
        let mut db = Database::new();
        db.add_relation(
            "R1",
            attrs(&["A", "B"]),
            &[&[1, 1], &[2, 2], &[3, 7], &[4, 2]],
        );
        db.add_relation("R2", attrs(&["B", "C"]), &[&[1, 5], &[2, 6], &[9, 9]]);
        db.add_relation("R3", attrs(&["C", "E"]), &[&[5, 1], &[6, 1], &[8, 8]]);
        let atoms = chain_atoms();
        let a = full_reduce(&db, &atoms, &gyo_join_tree(&atoms).unwrap());
        let b = reduce_by_witnesses(&db, &atoms);
        for i in 0..atoms.len() {
            assert_eq!(a.backmap[i], b.backmap[i], "atom {i}");
        }
    }

    #[test]
    fn cyclic_reduction_by_witnesses() {
        let mut db = Database::new();
        // triangle 1-2-3 plus a dangling edge
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 2], &[5, 6]]);
        db.add_relation("R2", attrs(&["B", "C"]), &[&[2, 3]]);
        db.add_relation("R3", attrs(&["C", "A"]), &[&[3, 1]]);
        let red = remove_dangling(&db, &triangle_atoms());
        assert_eq!(red.db.expect("R1").len(), 1);
        assert_eq!(red.backmap[0], vec![0]);
    }

    #[test]
    fn empty_join_dangles_everything() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1]]);
        db.add_relation("R2", attrs(&["B", "C"]), &[&[2, 2]]);
        db.add_relation("R3", attrs(&["C", "E"]), &[&[2, 3]]);
        let red = remove_dangling(&db, &chain_atoms());
        assert!(red.db.expect("R1").is_empty());
        assert!(red.db.expect("R2").is_empty());
        assert!(red.db.expect("R3").is_empty());
    }

    #[test]
    fn vacuum_atom_is_an_ear() {
        let atoms = vec![
            RelationSchema::new("V", vec![]),
            RelationSchema::new("R", attrs(&["A"])),
        ];
        assert!(is_acyclic(&atoms));
    }
}
