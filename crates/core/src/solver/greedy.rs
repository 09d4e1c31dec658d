//! Greedy heuristics for NP-hard leaves (paper §7.4).
//!
//! * `solve_greedy` — `GreedyForCQ` (Algorithm 6): repeatedly delete
//!   the endogenous tuple removing the most remaining outputs. On full
//!   CQs this is the classic `O(log k)`-approximate partial-set-cover
//!   greedy (Theorem 5); with projections it is a heuristic.
//! * `solve_drastic` — `DrasticGreedyForFullCQ` (Algorithm 7): compute
//!   profits once per endogenous relation, then delete a prefix of one
//!   relation only. Much faster, full CQs only.

use super::prepared::GreedyLease;
use super::profile::CostProfile;
use super::solved::{Extractor, Solved, Step};
use super::view::View;
use super::AdpOptions;
use crate::analysis::roles::endogenous_atoms;
use crate::error::SolveError;
use adp_engine::delta::DeltaProvenance;
use adp_engine::join::EvalResult;
use adp_engine::provenance::TupleRef;

/// The greedy leaf of the dispatcher (Algorithm 2 line 5, and the
/// `force_greedy` hook): `DrasticGreedyForFullCQ` when asked for on a
/// full CQ, `GreedyForCQ` otherwise.
///
/// An anchored root view
/// ([`PreparedQuery::anchored`](super::PreparedQuery::anchored)) runs
/// `GreedyForCQ` on a base state advanced to its epoch and never
/// evaluates the epoch; the drastic variant and views without a usable
/// anchor evaluate it lazily.
pub(crate) fn solve_leaf(view: &View, cap: u64, opts: &AdpOptions) -> Result<Solved, SolveError> {
    let drastic = opts.use_drastic && view.query.is_full();
    if view.is_anchored() && !drastic {
        let endo = endogenous_atoms(&view.query);
        if let Some(lease) = view.anchored_state(&endo, !opts.sequential) {
            let total = lease.live_outputs();
            if total == 0 {
                lease.release(&[]);
                return Ok(Solved::empty());
            }
            let (steps, truncated) = delta_rounds(view, lease, cap.min(total), opts.deadline);
            return Ok(greedy_solved(steps, truncated, total));
        }
    }
    let eval = view.eval();
    if eval.output_count() == 0 {
        return Ok(Solved::empty());
    }
    if drastic {
        Ok(solve_drastic(view, &eval, cap))
    } else {
        solve_greedy(view, &eval, cap, opts)
    }
}

/// `GreedyForCQ` (Algorithm 6) on any query shape: feasible on every
/// query, optimal on none in general. Rounds run on the incremental
/// [`DeltaProvenance`] of [`delta_rounds`]; unless `opts.sequential`,
/// the one-time scoring pass of a fresh state fans out over the global
/// pool. Both settings return byte-identical results.
pub(crate) fn solve_greedy(
    view: &View,
    eval: &EvalResult,
    cap: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let deletable = vec![true; view.query.atom_count()];
    solve_greedy_filtered(view, eval, cap, &deletable, opts)
}

/// [`solve_greedy`] restricted to deletable atoms (deletion policies,
/// paper §9 future work). Without a policy, candidates are the
/// endogenous atoms (Lemma 13); with frozen atoms the endogenous
/// restriction is no longer sound (the Lemma-13 swap may land in a
/// frozen relation), so every deletable atom becomes a candidate. The
/// loop stops early if no candidate remains.
pub(crate) fn solve_greedy_filtered(
    view: &View,
    eval: &EvalResult,
    cap: u64,
    deletable: &[bool],
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let total = eval.output_count();
    let policy_active = deletable.iter().any(|&d| !d);
    let endo: Vec<bool> = endogenous_atoms(&view.query)
        .into_iter()
        .zip(deletable)
        .map(|(e, &d)| if policy_active { d } else { e })
        .collect();
    let cap = cap.min(total);
    let lease = view.greedy_state(eval, &endo, !opts.sequential)?;
    let (steps, truncated) = delta_rounds(view, lease, cap, opts.deadline);
    Ok(greedy_solved(steps, truncated, total))
}

/// The inexact [`Solved`] of a greedy run over `total` outputs.
fn greedy_solved(steps: Vec<Step>, truncated: bool, total: u64) -> Solved {
    let profile = CostProfile::from_pairs(steps.iter().map(|s| (s.cost_cum, s.removed_cum)));
    Solved::eager(profile, Extractor::steps(steps), false, total).with_truncated(truncated)
}

/// True if `deadline` has passed and at least one round already ran.
/// The first round is exempt: an expired budget still yields one unit
/// of progress, so a truncated response is never an empty shrug when
/// something removable exists.
fn deadline_expired(deadline: Option<std::time::Instant>, rounds_done: usize) -> bool {
    // adp-lint: allow(wall-clock) -- this IS the deadline plumbing: the
    // one sanctioned read, feeding only the documented truncation path.
    rounds_done > 0 && deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// Incremental greedy rounds: scores are maintained by the
/// [`DeltaProvenance`] across deletions, so each round costs `O(Δ)` in
/// the affected witnesses plus a logarithmic argmax — instead of a full
/// pass over every live witness. The candidate order is the same
/// `(score, Reverse((atom, idx)))` total order as the sequential rescan
/// reference [`rescan_greedy`](super::verify::rescan_greedy), so the
/// deletion sequence is byte-identical to it.
///
/// The rounds run on `lease` — for root views of a prepared query a
/// state checked out of a plan ([`View::greedy_state`],
/// [`View::anchored_state`]) — and the picks are handed back with it so
/// the state can be rolled back and reused.
fn delta_rounds(
    view: &View,
    mut lease: GreedyLease<'_>,
    cap: u64,
    deadline: Option<std::time::Instant>,
) -> (Vec<Step>, bool) {
    let (picks, truncated) = greedy_round_loop(lease.delta(), cap, deadline);
    let steps = picks
        .iter()
        .zip(1..)
        .map(|(&(t, removed_cum), cost_cum)| {
            let t = lease.local(t);
            Step {
                tuples: vec![view.to_original(t.atom, t.index)],
                removed_cum,
                cost_cum,
            }
        })
        .collect();
    let tuples: Vec<TupleRef> = picks.into_iter().map(|(t, _)| t).collect();
    lease.release(&tuples);
    (steps, truncated)
}

/// The greedy round loop (Algorithm 6) on a scored state whose
/// selection is enabled: delete the best sole killer — or, when none
/// exists, the tuple on the most live witnesses — until `cap` outputs
/// are gone, the state is empty, no candidate remains, or `deadline`
/// passes. Returns each pick with the cumulative outputs removed
/// through it, and whether the deadline cut the loop short.
///
/// Every pick stays deleted on `delta` except a final pick read from
/// its profit: a sole killer's profit is exactly the number of outputs
/// its deletion removes, so the round that reaches `cap` with one is
/// recorded without touching the state — `O(log n)` instead of the
/// deletion (and the caller's rollback) of the heaviest tuple.
///
/// [`delta_rounds`] is its one caller. Push subscriptions answer their
/// targets through the same pull solve, so push and pull cannot pick
/// differently.
pub(super) fn greedy_round_loop(
    delta: &mut DeltaProvenance,
    cap: u64,
    deadline: Option<std::time::Instant>,
) -> (Vec<(TupleRef, u64)>, bool) {
    let mut picks: Vec<(TupleRef, u64)> = Vec::new();
    let mut removed = 0u64;
    while removed < cap && delta.live_outputs() > 0 {
        if deadline_expired(deadline, picks.len()) {
            return (picks, true);
        }
        let (t, profit) = match delta.best_profit_candidate() {
            Some((p, atom, idx)) => (TupleRef::new(atom, idx), p),
            // No sole killer: the count pick removes no output.
            None => match delta.best_count_candidate() {
                Some((_, atom, idx)) => (TupleRef::new(atom, idx), 0),
                None => break, // no deletable candidate remains
            },
        };
        if removed + profit >= cap {
            picks.push((t, removed + profit));
            break;
        }
        removed += delta.delete(t);
        picks.push((t, removed));
    }
    (picks, false)
}

/// `DrasticGreedyForFullCQ` (Algorithm 7). Requires a full CQ: witnesses
/// and outputs coincide, so profits within one relation are additive.
pub(crate) fn solve_drastic(view: &View, eval: &EvalResult, cap: u64) -> Solved {
    assert!(
        view.query.is_full(),
        "DrasticGreedyForFullCQ requires a full CQ (paper §7.4)"
    );
    let total = eval.output_count();
    let cap = cap.min(total);
    let endo = endogenous_atoms(&view.query);
    let counts = eval.tuple_degrees(); // witness count per tuple = profit

    // For each endogenous relation: sort by profit, find the prefix
    // reaching the cap; pick the relation with the smallest prefix.
    // (prefix length needed, atom, profit-sorted tuple order)
    type Candidate = (usize, usize, Vec<(u32, u64)>);
    let mut best: Option<Candidate> = None;
    for (atom, atom_counts) in counts.iter().enumerate() {
        if !endo[atom] {
            continue;
        }
        let mut order: Vec<(u32, u64)> = (0u32..)
            .zip(atom_counts)
            .filter_map(|(i, &c)| (c > 0).then_some((i, u64::from(c))))
            .collect();
        order.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        let mut cum = 0u64;
        let mut needed = order.len();
        for (pos, &(_, c)) in order.iter().enumerate() {
            cum += c;
            if cum >= cap {
                needed = pos + 1;
                break;
            }
        }
        if cum < cap {
            continue; // cannot reach the cap inside this relation
        }
        if best.as_ref().map(|(n, _, _)| needed < *n).unwrap_or(true) {
            best = Some((needed, atom, order));
        }
    }
    let Some((_, atom, order)) = best else {
        return Solved::empty();
    };

    let mut steps = Vec::new();
    let (mut removed, mut cost) = (0u64, 0u64);
    for (idx, profit) in order {
        removed += profit;
        cost += 1;
        steps.push(Step {
            tuples: vec![view.to_original(atom, idx)],
            removed_cum: removed,
            cost_cum: cost,
        });
        if removed >= cap {
            break;
        }
    }
    let profile = CostProfile::from_pairs(steps.iter().map(|s| (s.cost_cum, s.removed_cum)));
    Solved::eager(profile, Extractor::steps(steps), false, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use adp_engine::database::Database;
    use adp_engine::join::evaluate;
    use adp_engine::schema::attrs;
    use std::sync::Arc;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation("PS", attrs(&["SK", "PK"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2]]);
        db
    }

    /// Sequential solver options (delta rounds, no pool).
    fn seq_opts() -> AdpOptions {
        AdpOptions {
            sequential: true,
            ..Default::default()
        }
    }

    #[test]
    fn greedy_is_feasible_and_monotone() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let view = View::root(q.clone(), Arc::new(chain_db()));
        let eval = evaluate(&view.db, q.atoms(), q.head());
        let total = eval.output_count();
        let s = solve_greedy(&view, &eval, total, &seq_opts()).unwrap();
        assert_eq!(s.total_outputs, total);
        assert_eq!(s.max_removable(), total, "greedy can always finish");
        assert!(!s.exact);
        // costs are monotone in m
        let mut last = 0;
        for m in 1..=total {
            let c = s.min_cost(m).unwrap().unwrap();
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn greedy_picks_high_profit_tuples_first() {
        // One S tuple covers 2 witnesses, the other 1. Removing 2 outputs
        // should cost 1 (the high-profit tuple), not 2.
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let view = View::root(q.clone(), Arc::new(chain_db()));
        let eval = evaluate(&view.db, q.atoms(), q.head());
        let s = solve_greedy(&view, &eval, 2, &seq_opts()).unwrap();
        assert_eq!(s.min_cost(2).unwrap(), Some(1));
    }

    #[test]
    fn greedy_handles_projection_without_sole_killers() {
        // Q(A) with two witnesses per output disagreeing on every atom:
        // no sole killer initially.
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A", "B"]), &[&[1, 1], &[1, 2]]);
        db.add_relation("S", attrs(&["B"]), &[&[1], &[2]]);
        let q = parse_query("Q(A) :- R(A,B), S(B)").unwrap();
        let view = View::root(q.clone(), Arc::new(db));
        let eval = evaluate(&view.db, q.atoms(), q.head());
        let s = solve_greedy(&view, &eval, 1, &seq_opts()).unwrap();
        // output a=1 needs both branches cut: cost 2
        assert_eq!(s.min_cost(1).unwrap(), Some(2));
    }

    #[test]
    fn drastic_stays_in_one_relation() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let view = View::root(q.clone(), Arc::new(chain_db()));
        let eval = evaluate(&view.db, q.atoms(), q.head());
        let s = solve_drastic(&view, &eval, 3);
        let (sol, _) = s.extract(3).unwrap();
        let atoms: std::collections::HashSet<usize> = sol.iter().map(|t| t.atom).collect();
        assert_eq!(atoms.len(), 1, "drastic deletes from a single relation");
        assert!(!s.exact);
    }

    #[test]
    fn drastic_matches_greedy_on_disjoint_profits() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let view = View::root(q.clone(), Arc::new(chain_db()));
        let eval = evaluate(&view.db, q.atoms(), q.head());
        let g = solve_greedy(&view, &eval, 2, &seq_opts()).unwrap();
        let d = solve_drastic(&view, &eval, 2);
        assert_eq!(
            g.min_cost(2).unwrap(),
            d.min_cost(2).unwrap(),
            "both remove 2 outputs with 1 supplier tuple"
        );
    }

    #[test]
    #[should_panic(expected = "full CQ")]
    fn drastic_rejects_projections() {
        let q = parse_query("Q(NK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let view = View::root(q.clone(), Arc::new(chain_db()));
        let eval = evaluate(&view.db, q.atoms(), q.head());
        let _ = solve_drastic(&view, &eval, 1);
    }
}
