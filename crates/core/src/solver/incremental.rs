//! Incremental re-solve of a prepared statement's greedy state.
//!
//! Every pull-style solve — [`PreparedQuery::solve`], the service text
//! path, the fluent builder — runs its greedy rounds on a *pristine*
//! scored [`DeltaProvenance`] for one epoch: a state checked out of the
//! prepared plan's pool (or, when the pool is empty, cloned from the
//! plan's template), rolled back and returned afterwards. Plans for
//! later epochs [anchored](super::PreparedQuery::anchored) on the base
//! plan borrow its pooled states and advance them to their epoch's dead
//! set by the difference. Either way a solve is one-shot: it leaves its
//! state as it found it and reports only an answer, where a subscriber
//! watching a statement across a stream of delete/restore batches also
//! needs to know which outputs each batch killed or revived.
//!
//! [`IncrementalGreedy`] is the push-side counterpart: one **long-lived**
//! scored delta state, advanced across epochs by
//! [`apply_deletes`](IncrementalGreedy::apply_deletes) /
//! [`apply_restores`](IncrementalGreedy::apply_restores) (which also
//! report the output liveness transitions — the SSP weight rule's
//! 1→0 / 0→1 crossings), and re-solved in place by
//! [`solve`](IncrementalGreedy::solve): greedy rounds run **on** the
//! maintained state and are rolled back afterwards through the delta
//! layer's reversible deletions, so no template clone and no re-join
//! ever happens. Each re-solve costs `O(cost · Δ_round)` — proportional
//! to the picks it makes, not to the instance. Pull and push run the
//! same round loop, so they cannot drift apart.
//!
//! ## Equivalence contract
//!
//! A solve on the maintained state is **pick-for-pick identical** to a
//! fresh greedy solve (`force_greedy`, Algorithm 6) of the same query
//! over the residual database `D − S`: live witnesses, profits, and
//! live-counts agree by the delta layer's differential invariants, and
//! the `(score, Reverse((atom, idx)))` total order is preserved because
//! dense re-indexing of a filtered relation keeps the relative order of
//! surviving tuples. Costs and achieved removals are therefore equal,
//! and deletion sets correspond coordinate-wise under the re-indexing
//! map. The `subscription_differential` suite pins this after every
//! random interleaved batch.
//!
//! Boolean queries are out of scope: their fresh path dispatches to the
//! min-cut solver, not the greedy leaf, so a maintained greedy state
//! would diverge from it. Callers gate on
//! [`Query::is_boolean`](crate::query::Query::is_boolean).
//!
//! [`PreparedQuery::solve`]: super::PreparedQuery::solve
//! [`DeltaProvenance`]: adp_engine::delta::DeltaProvenance

use super::greedy::greedy_round_loop;
use super::prepared::PreparedQuery;
use crate::analysis::roles::endogenous_atoms;
use adp_engine::delta::DeltaProvenance;
use adp_engine::error::AdpError;
use adp_engine::provenance::TupleRef;

/// One greedy solve answered from the maintained state: the same
/// numbers a fresh `force_greedy` [`AdpOutcome`](super::AdpOutcome)
/// would report for the residual database, with the deletion set in the
/// *maintained* (base) coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncrementalSolve {
    /// Tuples deleted by the greedy rounds (`= deletions.len()`).
    pub cost: u64,
    /// Outputs the deletion set removes (≥ the requested `k`, except
    /// when the candidate pool ran dry first).
    pub achieved: u64,
    /// The deletion set, sorted by `(atom, index)` — the order
    /// `AdpOutcome::solution` reports.
    pub deletions: Vec<TupleRef>,
}

/// A long-lived greedy solver state over one query evaluation: scored
/// delta provenance plus the endogenous candidate mask, advanced across
/// epochs instead of rebuilt per solve. See the module docs.
#[derive(Clone, Debug)]
pub struct IncrementalGreedy {
    delta: DeltaProvenance,
}

impl IncrementalGreedy {
    /// Builds the maintained state over a prepared query's root
    /// evaluation: a clone of the plan's scored delta template (sharing
    /// its incidence by `Arc`) with candidate selection enabled on the
    /// query's endogenous atoms — exactly the state a fresh greedy solve
    /// would derive, kept alive. Pull solves of the same plan and this
    /// state pay one join and one scoring pass between them. `parallel`
    /// lets that scoring pass, if it has not run yet, fan out over the
    /// global [`adp_runtime`] pool; the installed scores are equal
    /// either way.
    pub fn from_prepared(prep: &PreparedQuery, parallel: bool) -> Result<Self, AdpError> {
        let mut delta = DeltaProvenance::clone(&*prep.delta_template(parallel)?);
        delta.enable_selection(endogenous_atoms(prep.query()));
        Ok(IncrementalGreedy { delta })
    }

    /// `|Q(D − S)|` for the current maintained deletion state.
    pub fn live_outputs(&self) -> u64 {
        self.delta.live_outputs()
    }

    /// `|Q(D)|` before any deletion.
    pub fn total_outputs(&self) -> u64 {
        self.delta.total_outputs()
    }

    /// Is the tuple currently deleted in the maintained state?
    pub fn is_deleted(&self, t: TupleRef) -> bool {
        self.delta.is_deleted(t)
    }

    /// Advances the state through a deletion batch, returning the ids
    /// of the outputs that died (their last live witness went away) —
    /// sorted, each at most once. `O(Δ)` in the affected witnesses.
    pub fn apply_deletes(&mut self, batch: &[TupleRef]) -> Vec<u32> {
        self.delta.delete_batch_transitions(batch)
    }

    /// Advances the state through a restore batch, returning the ids of
    /// the outputs that revived — the mirror of
    /// [`apply_deletes`](Self::apply_deletes).
    pub fn apply_restores(&mut self, batch: &[TupleRef]) -> Vec<u32> {
        self.delta.restore_batch_transitions(batch)
    }

    /// Greedy-solves `ADP(Q, D − S, k)` **on** the maintained state and
    /// rolls the picks back, leaving the state exactly as it was: the
    /// delta layer's refcounted deletions are symmetric, so a
    /// delete-then-restore round trip is an identity on every maintained
    /// map (pinned by the engine's `restore_round_trips_to_initial_state`
    /// test). `k` is clamped to the live output count; `k = 0` (or a
    /// dead view) answers trivially with the empty set.
    pub fn solve(&mut self, k: u64) -> IncrementalSolve {
        let cap = k.min(self.delta.live_outputs());
        let (picks, _) = greedy_round_loop(&mut self.delta, cap, None);
        let achieved = picks.last().map_or(0, |&(_, removed)| removed);
        let mut deletions: Vec<TupleRef> = picks.into_iter().map(|(t, _)| t).collect();
        self.delta.restore_batch(&deletions);
        deletions.sort_unstable();
        IncrementalSolve {
            cost: deletions.len() as u64,
            achieved,
            deletions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::solver::{AdpOptions, PreparedQuery};
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;
    use std::sync::Arc;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation(
            "PS",
            attrs(&["SK", "PK"]),
            &[&[1, 1], &[1, 2], &[2, 1], &[2, 3]],
        );
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2], &[9, 3]]);
        db
    }

    const Q: &str = "Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)";

    fn greedy_opts() -> AdpOptions {
        AdpOptions {
            force_greedy: true,
            sequential: true,
            ..Default::default()
        }
    }

    /// Fresh greedy solve of the residual database `base − deleted`,
    /// with the solution mapped back to base coordinates through the
    /// dense re-indexing (filtering preserves relative order).
    fn fresh_residual_solve(
        query_text: &str,
        base: &Database,
        deleted: &[TupleRef],
        k: u64,
    ) -> (u64, u64, Vec<TupleRef>) {
        let q = parse_query(query_text).unwrap();
        let mut db = Database::new();
        let mut back: Vec<Vec<u32>> = Vec::new();
        for (slot, rel) in base.relations().iter().enumerate() {
            // Atom index == relation slot for these self-join-free
            // fixtures, so a TupleRef's atom names the slot directly.
            let dead: Vec<u32> = deleted
                .iter()
                .filter(|t| t.atom == slot)
                .map(|t| t.index)
                .collect();
            let (filtered, map) = rel.filter_by_index(|i| !dead.contains(&i));
            db.add(filtered);
            back.push(map);
        }
        let prep = PreparedQuery::new(q, Arc::new(db));
        let out = prep.solve(k, &greedy_opts()).unwrap();
        let mut solution: Vec<TupleRef> = out
            .solution
            .unwrap()
            .into_iter()
            .map(|t| TupleRef::new(t.atom, back[t.atom][t.index as usize]))
            .collect();
        solution.sort_unstable();
        (out.cost, out.achieved, solution)
    }

    #[test]
    fn maintained_solve_matches_fresh_greedy_at_every_epoch() {
        let base = chain_db();
        let q = parse_query(Q).unwrap();
        let prep = PreparedQuery::new(q.clone(), Arc::new(base.clone()));
        let mut inc = IncrementalGreedy::from_prepared(&prep, false).unwrap();

        // A little stream: delete two tuples, then restore one.
        let stream: &[(&[TupleRef], bool)] = &[
            (&[TupleRef::new(1, 0)], true),
            (&[TupleRef::new(2, 2), TupleRef::new(0, 0)], true),
            (&[TupleRef::new(1, 0)], false),
        ];
        let mut deleted: Vec<TupleRef> = Vec::new();
        for &(batch, delete) in stream {
            if delete {
                inc.apply_deletes(batch);
                deleted.extend_from_slice(batch);
            } else {
                inc.apply_restores(batch);
                deleted.retain(|t| !batch.contains(t));
            }
            for k in 1..=inc.live_outputs() {
                let got = inc.solve(k);
                let (cost, achieved, solution) = fresh_residual_solve(Q, &base, &deleted, k);
                assert_eq!(got.cost, cost, "cost diverged at k={k}");
                assert_eq!(got.achieved, achieved, "achieved diverged at k={k}");
                assert_eq!(got.deletions, solution, "deletion set diverged at k={k}");
            }
        }
    }

    #[test]
    fn solve_rolls_back_to_the_exact_pre_solve_state() {
        let base = chain_db();
        let q = parse_query(Q).unwrap();
        let prep = PreparedQuery::new(q.clone(), Arc::new(base));
        let mut inc = IncrementalGreedy::from_prepared(&prep, false).unwrap();
        inc.apply_deletes(&[TupleRef::new(1, 1)]);
        let live_before = inc.live_outputs();
        let first = inc.solve(3);
        assert!(first.cost > 0);
        assert_eq!(inc.live_outputs(), live_before, "solve must not consume");
        assert!(!inc.is_deleted(first.deletions[0]));
        // Determinism: the same solve again answers identically.
        assert_eq!(inc.solve(3), first);
    }

    #[test]
    fn transitions_report_liveness_flips_and_k_clamps() {
        let base = chain_db();
        let q = parse_query(Q).unwrap();
        let prep = PreparedQuery::new(q.clone(), Arc::new(base));
        let mut inc = IncrementalGreedy::from_prepared(&prep, false).unwrap();
        let total = inc.total_outputs();
        assert_eq!(inc.live_outputs(), total);
        // Full CQ: every witness is an output, so killing one S tuple
        // loses exactly its witnesses.
        let lost = inc.apply_deletes(&[TupleRef::new(0, 0)]);
        assert_eq!(lost.len() as u64, total - inc.live_outputs());
        let gained = inc.apply_restores(&[TupleRef::new(0, 0)]);
        assert_eq!(gained, lost);
        // k beyond the live count clamps to full deletion; k = 0 is
        // trivially the empty set.
        let full = inc.solve(total + 100);
        assert_eq!(full.achieved, total);
        let nothing = inc.solve(0);
        assert_eq!((nothing.cost, nothing.achieved), (0, 0));
        assert!(nothing.deletions.is_empty());
    }
}
