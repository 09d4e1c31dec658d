//! The boolean base case: resilience via linearization and min-cut
//! (paper §7.1, building on Freire et al. \[11\]).
//!
//! Pipeline: reduce the instance to its non-dangling tuples, split the
//! query into connected components (making any one component false makes
//! the query false), arrange each component's atoms in a *linear order*
//! (every attribute contiguous), and build the flow network whose edges
//! are tuples — endogenous tuples with capacity 1, exogenous tuples with
//! capacity ∞ (they never need to be deleted, Lemma 13). The min cut is
//! the component's resilience; the query's resilience is the component
//! minimum.
//!
//! Triad-free boolean queries are linearizable after these steps; if no
//! linear order exists (the NP-hard triad case) we fall back to the
//! greedy heuristic and mark the result inexact.

use super::profile::CostProfile;
use super::solved::{Extractor, Solved, Step};
use super::view::View;
use super::AdpOptions;
use crate::analysis::linear::find_linear_order;
use crate::analysis::roles::endogenous_atoms;
use crate::error::SolveError;
use adp_engine::provenance::TupleRef;
use adp_engine::schema::Attr;
use adp_engine::semijoin::remove_dangling;
use adp_engine::value::Value;
use adp_flow::{FlowNetwork, INF};
use std::collections::HashMap;

/// Solves the boolean ADP (= resilience when the query is true).
pub(crate) fn solve_boolean(view: &View, opts: &AdpOptions) -> Result<Solved, SolveError> {
    let deletable = vec![true; view.query.atom_count()];
    solve_boolean_with_policy(view, opts, &deletable)
}

/// [`solve_boolean`] under a deletion policy: frozen atoms receive
/// infinite capacity in the cut network (exactness is preserved — they
/// simply behave like exogenous atoms). Components with no finite cut
/// are skipped; if none remains the profile is empty (infeasible).
pub(crate) fn solve_boolean_with_policy(
    view: &View,
    opts: &AdpOptions,
    deletable: &[bool],
) -> Result<Solved, SolveError> {
    let atoms = view.query.atoms();
    let reduced = remove_dangling(&view.db, atoms);
    if reduced.db.relations().iter().any(|r| r.is_empty()) {
        // Query is false: |Q(D)| = 0, nothing to remove.
        return Ok(Solved::empty());
    }
    let rview = view.rebased(
        view.query.clone(),
        reduced.db,
        reduced.backmap.into_iter().map(Some).collect(),
    );

    let mut best: Option<(u64, Vec<TupleRef>, bool)> = None;
    let mut all_exact = true;
    let mut truncated = false;
    for comp in rview.query.connected_components() {
        let sub = rview.subview(&comp);
        let sub_deletable: Vec<bool> = comp.iter().map(|&i| deletable[i]).collect();
        let (res, comp_truncated) = component_resilience(&sub, opts, &sub_deletable)?;
        truncated |= comp_truncated;
        // A budget-truncated component is not a proven "no finite cut":
        // its (possibly cheaper) resilience is simply unknown, so any
        // answer built without it is at best a bound.
        all_exact &= !comp_truncated;
        let Some((cost, tuples, exact)) = res else {
            continue; // no finite cut under the policy (or budget expired)
        };
        all_exact &= exact;
        if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
            best = Some((cost, tuples, exact));
        }
    }
    let Some((cost, tuples, chosen_exact)) = best else {
        if truncated {
            // The budget expired before any component could be made
            // false: report best-so-far (nothing achieved yet) with the
            // truncation flag, NOT a proven infeasibility.
            return Ok(Solved::eager(
                super::profile::CostProfile::empty(),
                Extractor::Empty,
                false,
                1,
            )
            .with_truncated(true));
        }
        // policy leaves no way to make the query false
        return Ok(Solved::eager(
            super::profile::CostProfile::empty(),
            Extractor::Empty,
            true,
            1,
        ));
    };
    // The overall value is exact only if every component bound is exact
    // (an inexact smaller bound could hide a cheaper exact component).
    // A truncated sibling component keeps the flag visible even though
    // this cut is complete: its unexplored component might have been
    // cheaper, so the answer is budget-limited, not final.
    let exact = chosen_exact && all_exact;
    Ok(Solved::eager(
        CostProfile::single(cost, 1),
        Extractor::Steps(vec![Step {
            tuples,
            removed_cum: 1,
            cost_cum: cost,
        }]),
        exact,
        1,
    )
    .with_truncated(truncated))
}

/// One component's answer: `(cost, cut tuples, exact)` when a finite
/// cut was found, paired with whether the wall-clock budget truncated
/// the search.
type ComponentCut = (Option<(u64, Vec<TupleRef>, bool)>, bool);

/// Resilience of one connected boolean component over a reduced view.
/// The first slot is `None` when the deletion policy admits no finite
/// cut (or, on the triad path, when the wall-clock budget expired
/// before the component could be made false); the second reports that
/// budget truncation so the caller can distinguish "proven infinite"
/// from "ran out of time".
fn component_resilience(
    sub: &View,
    opts: &AdpOptions,
    deletable: &[bool],
) -> Result<ComponentCut, SolveError> {
    match find_linear_order(sub.query.atoms()) {
        Some(order) => {
            let (cost, tuples) = min_cut_resilience(sub, &order, deletable);
            if cost >= INF {
                return Ok((None, false));
            }
            Ok((Some((cost, tuples, true)), false))
        }
        None => {
            // Triad case (NP-hard): greedy heuristic on the boolean query
            // (the subview's head is empty, so `eval` has boolean
            // semantics).
            let eval = sub.eval();
            let solved = super::greedy::solve_greedy_filtered(sub, &eval, 1, deletable, opts)?;
            let Some(cost) = solved.min_cost(1)? else {
                return Ok((None, solved.truncated));
            };
            let (tuples, _) = solved.extract(1)?;
            Ok((Some((cost, tuples, false)), solved.truncated))
        }
    }
}

/// Builds the layered tuple-edge network for a linear atom order and
/// returns (min cut value, cut tuples in original coordinates).
fn min_cut_resilience(sub: &View, order: &[usize], deletable: &[bool]) -> (u64, Vec<TupleRef>) {
    let atoms = sub.query.atoms();
    // Unit capacity = "may be cut". Without a policy only endogenous
    // atoms need finite capacity (Lemma 13). With a policy the Lemma-13
    // swap into an endogenous atom may be blocked by a frozen relation,
    // so every deletable atom gets unit capacity (still a valid
    // cut ⇔ deletion-set correspondence, hence still exact).
    let policy_active = deletable.iter().any(|&d| !d);
    let endo: Vec<bool> = endogenous_atoms(&sub.query)
        .into_iter()
        .zip(deletable)
        .map(|(e, &d)| d && (e || policy_active))
        .collect();
    let p = order.len();

    // Boundary attribute sets between consecutive atoms in the order.
    let boundaries: Vec<Vec<Attr>> = (0..p.saturating_sub(1))
        .map(|i| {
            atoms[order[i]]
                .attrs()
                .iter()
                .filter(|a| atoms[order[i + 1]].contains(a))
                .cloned()
                .collect()
        })
        .collect();

    // Node interning: source = 0, sink = 1, boundary-value nodes after.
    let mut node_ids: HashMap<(usize, Vec<Value>), u32> = HashMap::new();
    let mut next_node: u32 = 2;
    let mut edges: Vec<(u32, u32, u64, u32)> = Vec::new();
    let mut edge_tuples: Vec<TupleRef> = Vec::new();

    for (pos, &ai) in order.iter().enumerate() {
        // adp-lint: allow(panic-path) -- documented panicking lookup;
        // the flow network is built over validated subquery atoms.
        let rel = sub.db.expect(atoms[ai].name());
        let cap = if endo[ai] { 1 } else { INF };
        for idx in rel.indices() {
            let u = if pos == 0 {
                0
            } else {
                let key = rel.project(idx, &boundaries[pos - 1]);
                *node_ids.entry((pos - 1, key)).or_insert_with(|| {
                    let id = next_node;
                    next_node += 1;
                    id
                })
            };
            let v = if pos == p - 1 {
                1
            } else {
                let key = rel.project(idx, &boundaries[pos]);
                *node_ids.entry((pos, key)).or_insert_with(|| {
                    let id = next_node;
                    next_node += 1;
                    id
                })
            };
            let id = adp_engine::ids::dense_id(edge_tuples.len(), "flow edge ids");
            edge_tuples.push(sub.to_original(ai, idx));
            edges.push((u, v, cap, id));
        }
    }

    let mut net = FlowNetwork::new(next_node as usize);
    for &(u, v, c, id) in &edges {
        net.add_edge(u, v, c, id);
    }
    let flow = net.max_flow_dinic(0, 1);
    if flow.value >= INF {
        // only possible under a deletion policy freezing a whole layer
        return (flow.value, Vec::new());
    }
    let cut = net.min_cut(0);
    let tuples: Vec<TupleRef> = cut.iter().map(|&id| edge_tuples[id as usize]).collect();
    debug_assert_eq!(tuples.len() as u64, flow.value);
    (flow.value, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;
    use std::sync::Arc;

    fn solve(qtext: &str, db: Database) -> (u64, Vec<TupleRef>, bool) {
        let q = parse_query(qtext).unwrap();
        let view = View::root(q, Arc::new(db));
        let s = solve_boolean(&view, &AdpOptions::default()).unwrap();
        let cost = s.min_cost(1).unwrap().unwrap();
        let (tuples, _) = s.extract(1).unwrap();
        (cost, tuples, s.exact)
    }

    #[test]
    fn single_relation_resilience_is_tuple_count() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2], &[3]]);
        let (cost, tuples, exact) = solve("Q() :- R(A)", db);
        assert_eq!(cost, 3);
        assert_eq!(tuples.len(), 3);
        assert!(exact);
    }

    #[test]
    fn path_query_min_cut() {
        // R1(A): {1,2}; R2(A,B): 1-1, 1-2, 2-1; R3(B): {1,2}
        // witnesses: (1,1),(1,2),(2,1). Deleting R3(1) and R3(2) works
        // (cost 2); deleting R1(1) and R1(2) also cost 2; min is 2.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        let (cost, _, exact) = solve("Q() :- R1(A), R2(A,B), R3(B)", db);
        assert_eq!(cost, 2);
        assert!(exact);
    }

    #[test]
    fn exogenous_tuples_never_cut() {
        // Star bipartite graph: a1 connected to b1..b3 through exogenous
        // R4(A,B). Deleting a1 (1 tuple) beats deleting 3 b's or 3 edges.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1]]);
        db.add_relation("R4", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[1, 3]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2], &[3]]);
        let (cost, tuples, exact) = solve("Q() :- R1(A), R4(A,B), R3(B)", db);
        assert_eq!(cost, 1);
        assert_eq!(tuples, vec![TupleRef::new(0, 0)]);
        assert!(exact);
    }

    #[test]
    fn vertex_cover_instance() {
        // K2,n-ish: VC = 2 (both A values) though |B| side is larger.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation(
            "R4",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 2], &[1, 3], &[2, 1], &[2, 2], &[2, 3]],
        );
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2], &[3]]);
        let (cost, _, exact) = solve("Q() :- R1(A), R4(A,B), R3(B)", db);
        assert_eq!(cost, 2);
        assert!(exact);
    }

    #[test]
    fn disconnected_boolean_takes_cheapest_component() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2], &[3]]);
        db.add_relation("S", attrs(&["B"]), &[&[5]]);
        let (cost, tuples, exact) = solve("Q() :- R(A), S(B)", db);
        assert_eq!(cost, 1);
        assert_eq!(tuples, vec![TupleRef::new(1, 0)]);
        assert!(exact);
    }

    #[test]
    fn false_query_is_empty() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        db.add_relation("S", attrs(&["A"]), &[&[2]]);
        let q = parse_query("Q() :- R(A), S(A)").unwrap();
        let view = View::root(q, Arc::new(db));
        let s = solve_boolean(&view, &AdpOptions::default()).unwrap();
        assert_eq!(s.total_outputs, 0);
        assert_eq!(s.max_removable(), 0);
    }

    #[test]
    fn dangling_tuples_do_not_inflate_cuts() {
        // R has an extra dangling tuple that must not appear in any cut.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[9]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1]]);
        let (cost, tuples, _) = solve("Q() :- R1(A), R2(A,B), R3(B)", db);
        assert_eq!(cost, 1);
        assert_ne!(tuples[0], TupleRef::new(0, 1), "dangling tuple not chosen");
    }

    /// Regression: an expired budget on the triad (greedy) path used to
    /// be misreported as "no finite cut" — a falsely *exact* empty
    /// result that the outcome builder surfaced as `Infeasible`. It must
    /// instead propagate the truncation flag so the caller gets the
    /// documented best-so-far outcome.
    #[test]
    fn expired_deadline_on_triad_truncates_instead_of_infeasible() {
        // Two disjoint triangles = one boolean output with two
        // witnesses and no sole killer: the guaranteed first greedy
        // round cannot make the query false, so the expired deadline
        // truncates with nothing achieved yet.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 2], &[4, 5]]);
        db.add_relation("R2", attrs(&["B", "C"]), &[&[2, 3], &[5, 6]]);
        db.add_relation("R3", attrs(&["C", "A"]), &[&[3, 1], &[6, 4]]);
        let q = parse_query("Q() :- R1(A,B), R2(B,C), R3(C,A)").unwrap();
        let opts = AdpOptions {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let out = crate::solver::solve_once(&q, &db, 1, &opts).unwrap();
        assert!(out.truncated, "budget expiry must be visible, not an error");
        assert!(!out.exact);
        assert_eq!(out.achieved, 0);
        assert_eq!(out.cost, 0);
        assert_eq!(out.solution.as_deref(), Some(&[][..]));
        // Without a deadline the same instance is solvable (both
        // triangles must break): never truncated.
        let out = crate::solver::solve_once(&q, &db, 1, &AdpOptions::default()).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.cost, 2);
    }

    /// Regression (second half of the truncation contract): when a
    /// *sibling* component truncates but another component still yields
    /// a finite cut, the flag must survive on the success path — the
    /// unexplored component might have been cheaper.
    #[test]
    fn truncated_sibling_component_keeps_flag_on_success_path() {
        // Triad component (truncates under the expired budget: two
        // disjoint triangles, no sole killer in round one) + a linear
        // single-tuple component whose min-cut ignores the deadline.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 2], &[4, 5]]);
        db.add_relation("R2", attrs(&["B", "C"]), &[&[2, 3], &[5, 6]]);
        db.add_relation("R3", attrs(&["C", "A"]), &[&[3, 1], &[6, 4]]);
        db.add_relation("S", attrs(&["X"]), &[&[7]]);
        let q = parse_query("Q() :- R1(A,B), R2(B,C), R3(C,A), S(X)").unwrap();
        let opts = AdpOptions {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let out = crate::solver::solve_once(&q, &db, 1, &opts).unwrap();
        assert_eq!(out.cost, 1, "deleting S(7) still makes the query false");
        assert_eq!(out.achieved, 1);
        assert!(
            out.truncated,
            "the truncated triad sibling must keep the budget expiry visible"
        );
        assert!(!out.exact, "the unexplored component could be cheaper");
    }

    #[test]
    fn triangle_falls_back_to_heuristic() {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 2]]);
        db.add_relation("R2", attrs(&["B", "C"]), &[&[2, 3]]);
        db.add_relation("R3", attrs(&["C", "A"]), &[&[3, 1]]);
        let (cost, _, exact) = solve("Q() :- R1(A,B), R2(B,C), R3(C,A)", db);
        assert_eq!(cost, 1, "one edge suffices to break the only triangle");
        assert!(!exact, "triad queries are heuristic");
    }
}
