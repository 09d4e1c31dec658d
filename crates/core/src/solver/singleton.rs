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
use adp_engine::join::EvalResult;
use adp_engine::value::Value;
use std::collections::HashMap;

/// Solves a singleton query with witness atom `ri`.
pub(crate) fn solve_singleton(view: &View, ri: usize, cap: u64) -> Solved {
    let q = &view.query;
    let atom = &q.atoms()[ri];
    let head = q.head();

    // Vacuum witness atom: deleting its single tuple removes everything.
    if atom.is_vacuum() {
        let total = super::count_outputs(view);
        if total == 0 {
            return Solved::empty();
        }
        return Solved::eager(
            CostProfile::single(1, total),
            Extractor::steps(vec![Step {
                tuples: vec![view.to_original(ri, 0)],
                removed_cum: total,
                cost_cum: 1,
            }]),
            true,
            total,
        );
    }

    // Non-vacuum singleton queries are connected: evaluate once, via
    // the view's (possibly cached) plan.
    let eval = view.eval();
    let total = eval.output_count();
    if total == 0 {
        return Solved::empty();
    }
    let case1 = atom.attrs().iter().all(|a| head.contains(a));
    let steps = if case1 {
        case1_steps(view, ri, &eval, cap)
    } else {
        case2_steps(view, ri, &eval, cap)
    };
    let profile = CostProfile::from_pairs(steps.iter().map(|s| (s.cost_cum, s.removed_cum)));
    Solved::eager(profile, Extractor::steps(steps), true, total)
}

/// Case 1: sort `Ri` tuples by decreasing profit (outputs owned). An
/// output fixes the values of `attr(Ri) ⊆ head`, so every witness of it
/// uses the one `Ri` tuple it projects onto: that tuple owns it.
fn case1_steps(view: &View, ri: usize, eval: &EvalResult, cap: u64) -> Vec<Step> {
    let mut profit: HashMap<u32, u64> = HashMap::new();
    for o in 0..eval.output_count() as usize {
        let w = eval.witnesses_of(o)[0] as usize;
        *profit.entry(eval.witness(w)[ri]).or_insert(0) += 1;
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

/// Case 2: an output costs the non-dangling `Ri` tuples projecting onto
/// it (`head ⊆ attr(Ri)`): the distinct `Ri` tuples on its witnesses.
/// Sort outputs by increasing cost.
fn case2_steps(view: &View, ri: usize, eval: &EvalResult, cap: u64) -> Vec<Step> {
    let mut order: Vec<(Vec<u32>, &[Value])> = (0..eval.output_count() as usize)
        .map(|o| {
            let mut tuples: Vec<u32> = (eval.witnesses_of(o).iter())
                .map(|&w| eval.witness(w as usize)[ri])
                .collect();
            tuples.sort_unstable();
            tuples.dedup();
            (tuples, eval.output(o))
        })
        .collect();
    order.sort_by(|a, b| (a.0.len(), a.1).cmp(&(b.0.len(), b.1)));

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
        solve_singleton(&view, ri, cap)
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
        let s = solve_singleton(&view, ri, 2);
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
