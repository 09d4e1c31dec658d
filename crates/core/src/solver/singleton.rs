//! The Singleton base case (paper §7.2, Definition 10, Algorithm 3).
//!
//! A singleton query has an atom `Ri` whose attributes are contained in
//! every other atom, with `attr(Ri) ⊆ head(Q)` or `head(Q) ⊆ attr(Ri)`.
//! Both cases reduce to sorting:
//!
//! * **Case 1** (`attr(Ri) ⊆ head`): each `Ri` tuple "owns" a disjoint
//!   set of outputs (its *profit*); delete tuples by decreasing profit.
//! * **Case 2** (`head ⊆ attr(Ri)`): after dangling-tuple removal, each
//!   output has a *cost* — the number of `Ri` tuples projecting onto it;
//!   delete outputs by increasing cost.

use super::profile::CostProfile;
use super::solved::{Extractor, Solved, Step};
use super::view::View;
use crate::error::SolveError;
use adp_engine::value::Value;
use std::collections::HashMap;

/// Solves a singleton query with witness atom `ri`.
pub(crate) fn solve_singleton(view: &View, ri: usize, cap: u64) -> Result<Solved, SolveError> {
    let q = &view.query;
    let atom = &q.atoms()[ri];
    let head = q.head();

    // Vacuum witness atom: deleting its single tuple removes everything.
    if atom.is_vacuum() {
        let total = super::count_outputs(view);
        if total == 0 {
            return Ok(Solved::empty());
        }
        return Ok(Solved::eager(
            CostProfile::single(1, total),
            Extractor::Steps(vec![Step {
                tuples: vec![view.to_original(ri, 0)],
                removed_cum: total,
                cost_cum: 1,
            }]),
            true,
            total,
        ));
    }

    // Non-vacuum singleton queries are connected: evaluate once, via
    // the view's (possibly cached) plan.
    let eval = view.eval();
    let total = eval.output_count();
    if total == 0 {
        return Ok(Solved::empty());
    }
    let case1 = atom.attrs().iter().all(|a| head.contains(a));
    let steps = if case1 {
        case1_steps(view, ri, &eval, cap)
    } else {
        // Non-dangling Ri tuples come from the (possibly cached) pristine
        // provenance: planned root views share one postings build across
        // every solve instead of re-deriving it here.
        let participating = view.pristine_provenance(&eval)?.participating_tuples();
        case2_steps(view, ri, cap, &participating[ri])
    };
    let profile = CostProfile::from_pairs(steps.iter().map(|s| (s.cost_cum, s.removed_cum)));
    Ok(Solved::eager(profile, Extractor::Steps(steps), true, total))
}

/// Case 1: sort `Ri` tuples by decreasing profit (outputs owned).
fn case1_steps(view: &View, ri: usize, eval: &adp_engine::join::EvalResult, cap: u64) -> Vec<Step> {
    let q = &view.query;
    let atom = &q.atoms()[ri];
    // adp-lint: allow(panic-path) -- documented panicking lookup; the
    // view's atoms were validated against the database at construction.
    let rel = view.db.expect(atom.name());
    // positions of attr(Ri) within the head (outputs are head-ordered)
    let head = q.head();
    let positions: Vec<usize> = atom
        .attrs()
        .iter()
        .map(|a| {
            head.iter()
                .position(|h| h == a)
                // adp-lint: allow(panic-path) -- case 1 applies only when
                // attr(Ri) ⊆ head; the dispatcher checked that.
                .expect("case 1: attr ⊆ head")
        })
        .collect();
    // order attr values as in the relation's own schema for index lookups
    let schema_order: Vec<usize> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| {
            atom.attrs()
                .iter()
                .position(|x| x == a)
                // adp-lint: allow(panic-path) -- both orderings enumerate
                // the same attribute set of atom Ri.
                .expect("schemas share attrs")
        })
        .collect();

    let mut profit: HashMap<u32, u64> = HashMap::new();
    for out in &eval.outputs {
        let projected: Vec<Value> = positions.iter().map(|&p| out[p]).collect();
        let keyed: Vec<Value> = schema_order.iter().map(|&i| projected[i]).collect();
        let idx = rel
            .index_of(&keyed)
            // adp-lint: allow(panic-path) -- join semantics: each output
            // row is witnessed by a real Ri tuple it projects back onto.
            .expect("every output projects onto an existing Ri tuple");
        *profit.entry(idx).or_insert(0) += 1;
    }
    // adp-lint: allow(unordered-iter) -- collected then immediately
    // sorted on a total key; hash order never escapes.
    let mut order: Vec<(u32, u64)> = profit.into_iter().collect();
    order.sort_by_key(|&(idx, p)| (std::cmp::Reverse(p), idx));

    let mut steps = Vec::new();
    let (mut removed, mut cost) = (0u64, 0u64);
    for (idx, p) in order {
        removed += p;
        cost += 1;
        steps.push(Step {
            tuples: vec![view.to_original(ri, idx)],
            removed_cum: removed,
            cost_cum: cost,
        });
        if removed >= cap {
            break;
        }
    }
    steps
}

/// Case 2: group the non-dangling `Ri` tuples (`participating`) by
/// output; sort outputs by increasing group size.
fn case2_steps(view: &View, ri: usize, cap: u64, participating: &[u32]) -> Vec<Step> {
    let q = &view.query;
    let atom = &q.atoms()[ri];
    // adp-lint: allow(panic-path) -- documented panicking lookup; the
    // view's atoms were validated against the database at construction.
    let rel = view.db.expect(atom.name());
    let head = q.head().to_vec();

    let mut groups: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
    for &idx in participating {
        groups.entry(rel.project(idx, &head)).or_default().push(idx);
    }
    // adp-lint: allow(unordered-iter) -- collected then immediately
    // sorted on a total key; hash order never escapes.
    let mut order: Vec<(Vec<u32>, Vec<Value>)> = groups.into_iter().map(|(k, v)| (v, k)).collect();
    order.sort_by(|a, b| (a.0.len(), &a.1).cmp(&(b.0.len(), &b.1)));

    let mut steps = Vec::new();
    let (mut removed, mut cost) = (0u64, 0u64);
    for (tuples, _) in order {
        removed += 1;
        cost += tuples.len() as u64;
        steps.push(Step {
            tuples: tuples
                .into_iter()
                .map(|idx| view.to_original(ri, idx))
                .collect(),
            removed_cum: removed,
            cost_cum: cost,
        });
        if removed >= cap {
            break;
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::roles::singleton_atom;
    use crate::query::parse_query;
    use adp_engine::database::Database;
    use adp_engine::provenance::TupleRef;
    use adp_engine::schema::attrs;
    use std::sync::Arc;

    fn solve(qtext: &str, db: Database, cap: u64) -> Solved {
        let q = parse_query(qtext).unwrap();
        let ri = singleton_atom(&q).expect("test query must be singleton");
        let view = View::root(q, Arc::new(db));
        solve_singleton(&view, ri, cap).unwrap()
    }

    #[test]
    fn case1_greedy_by_profit() {
        // Q6(A,B) :- R1(A), R2(A,B): A=1 has 3 outputs, A=2 has 1.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation(
            "R2",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 2], &[1, 3], &[2, 9]],
        );
        let s = solve("Q(A,B) :- R1(A), R2(A,B)", db, 4);
        assert_eq!(s.total_outputs, 4);
        assert!(s.exact);
        // removing 1 output: cheapest is one R1 tuple (profit sorted: 3
        // first). k=1..3 cost 1; k=4 cost 2.
        assert_eq!(s.min_cost(1).unwrap(), Some(1));
        assert_eq!(s.min_cost(3).unwrap(), Some(1));
        assert_eq!(s.min_cost(4).unwrap(), Some(2));
        let (sol, _) = s.extract(3).unwrap();
        assert_eq!(sol, vec![TupleRef::new(0, 0)], "the A=1 tuple");
    }

    #[test]
    fn case2_cheapest_outputs_first() {
        // Q(A) :- R1(A,B), R2(A,B,C): head {A} ⊆ attr(R1); R1 minimal.
        // Output a=1 backed by 1 R1-tuple, a=2 by 2, a=3 dangling-free 3.
        let mut db = Database::new();
        db.add_relation(
            "R1",
            attrs(&["A", "B"]),
            &[&[1, 1], &[2, 1], &[2, 2], &[3, 1], &[3, 2], &[3, 3]],
        );
        db.add_relation(
            "R2",
            attrs(&["A", "B", "C"]),
            &[
                &[1, 1, 0],
                &[2, 1, 0],
                &[2, 2, 0],
                &[3, 1, 0],
                &[3, 2, 0],
                &[3, 3, 0],
            ],
        );
        let s = solve("Q(A) :- R1(A,B), R2(A,B,C)", db, 3);
        assert_eq!(s.total_outputs, 3);
        assert_eq!(s.min_cost(1).unwrap(), Some(1)); // kill a=1
        assert_eq!(s.min_cost(2).unwrap(), Some(3)); // + a=2
        assert_eq!(s.min_cost(3).unwrap(), Some(6)); // + a=3
        let (sol, _) = s.extract(2).unwrap();
        assert_eq!(sol.len(), 3);
    }

    #[test]
    fn case2_ignores_dangling_tuples() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[1, 9]]); // (1,9) dangles
        db.add_relation("R2", attrs(&["A", "B", "C"]), &[&[1, 1, 0]]);
        let s = solve("Q(A) :- R1(A,B), R2(A,B,C)", db, 1);
        assert_eq!(
            s.min_cost(1).unwrap(),
            Some(1),
            "dangling tuple not counted"
        );
    }

    #[test]
    fn vacuum_singleton_removes_everything_with_one_tuple() {
        let mut db = Database::new();
        db.add_relation("V", vec![], &[&[]]);
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2], &[3]]);
        let q = parse_query("Q(A) :- V(), R(A)").unwrap();
        let ri = singleton_atom(&q).unwrap();
        assert_eq!(q.atoms()[ri].name(), "V");
        let view = View::root(q, Arc::new(db));
        let s = solve_singleton(&view, ri, 2).unwrap();
        assert_eq!(s.total_outputs, 3);
        assert_eq!(s.min_cost(2).unwrap(), Some(1));
        assert_eq!(s.extract(2).unwrap().0, vec![TupleRef::new(0, 0)]);
    }

    #[test]
    fn empty_instance_is_empty_profile() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1]]);
        let s = solve("Q(A,B) :- R1(A), R2(A,B)", db, 1);
        assert_eq!(s.total_outputs, 0);
        assert!(s.max_removable() == 0);
    }

    #[test]
    fn cap_truncates_work_but_not_correctness() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2], &[3]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[2, 1], &[3, 1]]);
        let s = solve("Q(A,B) :- R1(A), R2(A,B)", db, 1);
        // with cap 1 the profile stops early but must cover m=1
        assert_eq!(s.min_cost(1).unwrap(), Some(1));
    }
}
