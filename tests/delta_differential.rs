//! Differential tests for the incremental delta maintenance layer
//! (`adp-engine::delta`).
//!
//! The invariant is strict equality against the masked full
//! re-evaluation oracle: for random `(Q, D)` and random interleaved
//! delete/undelete batches, every maintained quantity — live outputs,
//! live witnesses, profit maps, live-count maps — must equal what a
//! fresh masked re-execution (plus a fresh `ProvenanceIndex` over it)
//! reports **after every batch**, for the sequentially scored index and
//! for one scored through a 4-worker range fan-out, and so must the
//! outputs a random probe set would remove on top of each state. On top
//! of that, the delta-driven greedy solver must be byte-identical to the
//! sequential rescan reference `verify::rescan_greedy`, delta-based deletion-set
//! verification must equal masked re-execution on an independently
//! built plan, and a prepared query serving solves from its idle
//! rolled-back greedy state must answer exactly like a fresh one. The
//! lazy-heap selector's picks must equal a brute-force argmax over the
//! maintained scores after every batch, across heap rebuilds and on a
//! clone evolving on its own.

use adp::core::solver::{verify, AdpOptions, PreparedQuery};
use adp::engine::delta::DeltaProvenance;
use adp::engine::plan::{AliveMask, QueryPlan};
use adp::engine::provenance::ProvenanceIndex;
use adp::{parse_query, Database, Query, TupleRef};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pins the global pool to 4 workers so the parallel scoring paths run
/// even on a single-core box.
fn four_workers() -> &'static adp::ThreadPool {
    let _ = adp::runtime::configure_global(4);
    let pool = adp::runtime::global();
    assert_eq!(pool.threads(), 4);
    pool
}

/// Strategy: a random self-join-free query over attributes A..E with
/// 1..=4 atoms of arity 1..=3 and a random head.
fn arb_query() -> impl Strategy<Value = Query> {
    let attr_pool = ["A", "B", "C", "D", "E"];
    proptest::collection::vec(
        proptest::collection::btree_set(0usize..attr_pool.len(), 1..=3),
        1..=4,
    )
    .prop_flat_map(move |atom_sets| {
        let used: Vec<usize> = {
            let mut v: Vec<usize> = atom_sets.iter().flatten().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let used_len = used.len();
        (
            Just(atom_sets),
            proptest::collection::btree_set(0usize..used_len, 0..=used_len),
            Just(used),
        )
    })
    .prop_map(move |(atom_sets, head_pick, used)| {
        let atoms_txt: Vec<String> = atom_sets
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let names: Vec<&str> = s.iter().map(|&a| attr_pool[a]).collect();
                format!("R{}({})", i, names.join(","))
            })
            .collect();
        let head_names: Vec<&str> = head_pick.iter().map(|&i| attr_pool[used[i]]).collect();
        let text = format!("Q({}) :- {}", head_names.join(","), atoms_txt.join(", "));
        parse_query(&text).expect("generated query is valid")
    })
}

/// Strategy: a small random database for a query.
fn arb_db(q: &Query, max_rows: usize, dom: u64) -> impl Strategy<Value = Database> {
    let atoms: Vec<_> = q.atoms().to_vec();
    proptest::collection::vec(
        proptest::collection::vec(0..dom, 0..=10),
        atoms.len()..=atoms.len(),
    )
    .prop_map(move |value_streams| {
        let mut db = Database::new();
        for (atom, stream) in atoms.iter().zip(value_streams) {
            let mut inst = adp::engine::relation::RelationInstance::new(atom.clone());
            if atom.arity() == 0 {
                inst.insert(&[]);
            } else {
                let rows = (stream.len() / atom.arity().max(1)).min(max_rows);
                for r in 0..rows {
                    let t: Vec<u64> = (0..atom.arity())
                        .map(|c| stream[(r * atom.arity() + c) % stream.len()])
                        .collect();
                    inst.insert(&t);
                }
            }
            db.add(inst);
        }
        db
    })
}

/// Builds a delta index scored through a 4-worker range fan-out, so the
/// parallel install path is exercised regardless of chunk heuristics.
fn delta_scored_on_pool(eval: &adp::engine::EvalResult) -> DeltaProvenance {
    DeltaProvenance::try_new_on(eval, four_workers()).unwrap()
}

/// Strategy: a random query, a small database for it, and random
/// `(delete?, atom selector, tuple selector)` ops, grouped by the tests
/// into batches of up to 3.
type Op = (u8, usize, u64);
fn arb_instance_and_ops() -> impl Strategy<Value = (Query, Database, Vec<Op>)> {
    arb_query().prop_flat_map(|q| {
        let db = arb_db(&q, 8, 3);
        let ops = proptest::collection::vec((0u8..2, 0usize..8, 0u64..64), 0..=14);
        (Just(q), db, ops)
    })
}

/// Translates one batch of ops into a concrete delete batch and restore
/// batch; restores pick from `deleted`, the currently deleted tuples.
fn batch_of(
    q: &Query,
    db: &Database,
    batch: &[Op],
    deleted: &[TupleRef],
) -> (Vec<TupleRef>, Vec<TupleRef>) {
    let mut dels: Vec<TupleRef> = Vec::new();
    let mut rests: Vec<TupleRef> = Vec::new();
    for &(is_delete, a, i) in batch {
        if is_delete == 1 {
            let atom = a % q.atom_count();
            let len = db.expect(q.atoms()[atom].name()).len() as u64;
            if len > 0 {
                dels.push(TupleRef::new(atom, (i % len) as u32));
            }
        } else if !deleted.is_empty() {
            rests.push(deleted[(i as usize) % deleted.len()]);
        }
    }
    (dels, rests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delta maintenance ≡ masked full re-evaluation after every batch,
    /// with maintained scores equal to a fresh `ProvenanceIndex` over
    /// the masked result — for the sequentially scored index and the
    /// 4-worker-scored index alike. A random probe set counted on top
    /// of each state (`killed_by_set`) removes what the masked
    /// re-evaluation with the probe also killed removes.
    #[test]
    fn delta_batches_match_masked_reeval(
        ((q, db, ops), probe) in (
            arb_instance_and_ops(),
            proptest::collection::vec((Just(1u8), 0usize..8, 0u64..64), 1..=4),
        )
    ) {
        let (probe, _) = batch_of(&q, &db, &probe, &[]);
        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let indexes = plan.build_indexes(&db);
        let eval = plan.execute(&db, &indexes);
        let mut mask = AliveMask::all_alive(&db, q.atoms());
        let mut delta = DeltaProvenance::try_new(&eval).unwrap();
        let mut delta_par = delta_scored_on_pool(&eval);
        let mut deleted: Vec<TupleRef> = Vec::new();

        for batch in ops.chunks(3) {
            let (dels, rests) = batch_of(&q, &db, batch, &deleted);
            for &t in &dels {
                if mask.kill(t.atom, t.index) {
                    deleted.push(t);
                }
            }
            for &t in &rests {
                mask.revive(t.atom, t.index);
                deleted.retain(|&d| d != t);
            }
            let seq_died = delta.delete_batch(&dels);
            let par_died = delta_par.delete_batch(&dels);
            prop_assert_eq!(seq_died, par_died, "{}: batch effect diverged", q);
            prop_assert_eq!(delta.restore_batch(&rests), delta_par.restore_batch(&rests));

            // Oracle: masked full re-evaluation + fresh provenance.
            let masked = plan.execute_masked(&db, &indexes, &mask);
            prop_assert_eq!(
                delta.live_outputs(), masked.output_count(),
                "{}: live outputs diverged from masked re-eval", q
            );
            prop_assert_eq!(
                delta.live_witnesses(), masked.witness_count(),
                "{}: live witnesses diverged from masked re-eval", q
            );
            let oracle = ProvenanceIndex::new(&masked);
            prop_assert_eq!(
                delta.profits(), &oracle.profits()[..],
                "{}: maintained profits diverged", q
            );
            prop_assert_eq!(
                delta.live_counts(), &oracle.live_counts()[..],
                "{}: maintained live counts diverged", q
            );

            let mut probe_mask = mask.clone();
            probe_mask.kill_all(&probe);
            let killed = masked.output_count()
                - plan.execute_masked(&db, &indexes, &probe_mask).output_count();
            prop_assert_eq!(
                delta.killed_by_set(&probe), killed,
                "{}: killed_by_set({:?}) diverged from masked re-eval", q, probe
            );
            prop_assert_eq!(delta_par.killed_by_set(&probe), killed);

            // The 4-worker-scored index must track the sequential one
            // exactly at every state.
            prop_assert_eq!(delta_par.live_outputs(), delta.live_outputs());
            prop_assert_eq!(delta_par.profits(), delta.profits());
            prop_assert_eq!(delta_par.live_counts(), delta.live_counts());
        }
    }

    /// A tuple's maintained scores are exactly what deleting it does, at
    /// every state of a random delete/restore stream: the deletion
    /// removes `profits()[atom][t]` outputs (0 when absent) and kills
    /// `live_counts()[atom][t]` witnesses. The greedy reads its final
    /// pick from the profit and the rollback rule counts it by the live
    /// count instead of deleting it.
    #[test]
    fn a_tuples_scores_are_what_its_deletion_removes((q, db, ops) in arb_instance_and_ops()) {
        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let eval = plan.execute(&db, &plan.build_indexes(&db));
        let mut delta = DeltaProvenance::try_new(&eval).unwrap();
        let mut deleted: Vec<TupleRef> = Vec::new();

        // The initial state, then the state after every batch.
        for batch in std::iter::once(&[][..]).chain(ops.chunks(3)) {
            let (dels, rests) = batch_of(&q, &db, batch, &deleted);
            for &t in &dels {
                if !deleted.contains(&t) {
                    deleted.push(t);
                }
            }
            deleted.retain(|t| !rests.contains(t));
            delta.delete_batch(&dels);
            delta.restore_batch(&rests);

            for (atom, counts) in delta.live_counts().iter().enumerate() {
                let profits = &delta.profits()[atom];
                prop_assert!(profits.keys().all(|idx| counts.contains_key(idx)));
                for (&idx, &count) in counts {
                    let t = TupleRef::new(atom, idx);
                    prop_assert_eq!(delta.live_count(t), count);
                    prop_assert_eq!(delta.profit(t), profits.get(&idx).copied().unwrap_or(0));
                    let mut probe = delta.clone();
                    let died = probe.delete(t);
                    prop_assert_eq!(
                        died, profits.get(&idx).copied().unwrap_or(0),
                        "{}: deleting {:?} vs its profit", q, t
                    );
                    prop_assert_eq!(
                        delta.live_witnesses() - probe.live_witnesses(), count,
                        "{}: deleting {:?} vs its live count", q, t
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The delta-driven greedy solver is byte-identical to the
    /// sequential rescan reference `rescan_greedy` — whether the solver
    /// runs sequentially or on the 4-worker pool — and delta-based
    /// deletion-set verification equals masked re-execution.
    #[test]
    fn delta_solver_and_verifier_match_rescan_greedy(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 6, 3);
            (Just(q), db)
        })
    ) {
        four_workers();
        let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
        let total = prep.output_count();
        let ks: Vec<u64> = [1, total / 2, total]
            .into_iter()
            .filter(|&k| k >= 1 && k <= total)
            .collect();
        for k in ks {
            let picks = verify::rescan_greedy(&q, &prep.eval(), k).unwrap();
            let rescan_cost = picks.len() as u64;
            let rescan_achieved = picks.last().map_or(0, |&(_, removed)| removed);
            // An outcome's deletion set is sorted.
            let mut rescan_solution: Vec<TupleRef> = picks.into_iter().map(|(t, _)| t).collect();
            rescan_solution.sort_unstable();
            for sequential in [true, false] {
                // A fresh plan per run: on the shared plan the second
                // solve would be a memo lookup.
                let delta_out = PreparedQuery::new(q.clone(), Arc::new(db.clone()))
                    .solve(k, &AdpOptions {
                        force_greedy: true,
                        sequential,
                        ..Default::default()
                    }).unwrap();
                prop_assert_eq!(delta_out.cost, rescan_cost,
                    "{} k={} seq={}: cost diverged", q, k, sequential);
                prop_assert_eq!(delta_out.achieved, rescan_achieved,
                    "{} k={} seq={}: coverage diverged", q, k, sequential);
                prop_assert_eq!(delta_out.solution.as_ref(), Some(&rescan_solution),
                    "{} k={} seq={}: deletion set diverged", q, k, sequential);
            }

            // Verification: O(Δ) postings-based == masked re-eval.
            prop_assert_eq!(
                prep.removed_outputs(&rescan_solution),
                verify::removed_outputs(&q, &db, &rescan_solution),
                "{} k={}: verification paths diverged", q, k
            );
        }
    }
}

/// The greedy pick under `selectable`, by brute force over score maps:
/// the highest score, ties to the smallest `(atom, idx)`.
fn argmax(maps: &[HashMap<u32, u64>], selectable: &[bool]) -> Option<(u64, usize, u32)> {
    maps.iter()
        .enumerate()
        .filter(|&(atom, _)| selectable[atom])
        .flat_map(|(atom, map)| map.iter().map(move |(&idx, &s)| (s, atom, idx)))
        .max_by_key(|&(s, atom, idx)| (s, Reverse((atom, idx))))
}

/// Cases of `selector_picks_the_brute_force_argmax`; the last one checks
/// that some batch forced a heap rebuild.
const SELECTOR_CASES: u32 = 64;
static SELECTOR_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static SELECTOR_REBUILDS: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SELECTOR_CASES))]

    /// After every random delete/restore batch, both candidates of the
    /// lazy-heap selector equal the brute-force argmax over `profits()`
    /// and `live_counts()` under a random selectable mask, and neither
    /// heap holds more entries than its rebuild bound. Every batch is
    /// followed by restore churn (restore every deleted tuple, check,
    /// delete them again, check), whose pushes cross the bound. A clone
    /// taken mid-sequence replays the later batches with delete and
    /// restore swapped, and the same checks hold on both states.
    #[test]
    fn selector_picks_the_brute_force_argmax(
        ((q, db, ops), mask, split) in (
            arb_instance_and_ops(),
            proptest::collection::vec(0u8..2, 4),
            0usize..6,
        )
    ) {
        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let eval = plan.execute(&db, &plan.build_indexes(&db));
        let selectable: Vec<bool> = mask[..q.atom_count()].iter().map(|&b| b == 1).collect();
        let n_sel = selectable.iter().filter(|&&s| s).count() as u64;
        let check = |d: &DeltaProvenance, what: &str| -> Result<(), TestCaseError> {
            prop_assert_eq!(
                d.best_profit_candidate(), argmax(&d.profits(), &selectable),
                "{}: {}: profit pick", q, what
            );
            prop_assert_eq!(
                d.best_count_candidate(), argmax(&d.live_counts(), &selectable),
                "{}: {}: count pick", q, what
            );
            let (entries, bound) = d.selection_load().unwrap();
            prop_assert!(entries <= bound, "{}: {}: {} entries > {}", q, what, entries, bound);
            Ok(())
        };
        let mut delta = DeltaProvenance::try_new(&eval).unwrap();
        delta.enable_selection(selectable.clone());
        check(&delta, "enabled")?;
        // (state, its deleted tuples, flip delete/restore?)
        let mut states = vec![(delta, Vec::<TupleRef>::new(), false)];
        for (i, batch) in ops.chunks(3).enumerate() {
            if i == split {
                let (d, deleted, _) = states[0].clone();
                states.push((d, deleted, true));
            }
            for (d, deleted, flip) in &mut states {
                let batch: Vec<Op> = batch.iter().map(|&(del, a, t)| (del ^ *flip as u8, a, t)).collect();
                let (dels, rests) = batch_of(&q, &db, &batch, deleted);
                for &t in &dels {
                    if !deleted.contains(&t) {
                        deleted.push(t);
                    }
                }
                deleted.retain(|t| !rests.contains(t));
                d.delete_batch(&dels);
                check(d, "delete")?;
                d.restore_batch(&rests);
                check(d, "restore")?;

                // Restore churn: each revived witness pushes one count
                // entry per selectable atom, with no pop before the
                // batch settles; past the bound the settle rebuilds.
                let before = d.live_witnesses();
                d.restore_batch(deleted);
                let (_, bound) = d.selection_load().unwrap();
                if (d.live_witnesses() - before) * n_sel > bound as u64 {
                    SELECTOR_REBUILDS.fetch_add(1, Ordering::Relaxed);
                }
                check(d, "churn restore")?;
                d.delete_batch(deleted);
                check(d, "churn delete")?;
            }
        }
        if SELECTOR_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == SELECTOR_CASES {
            prop_assert!(SELECTOR_REBUILDS.load(Ordering::Relaxed) > 0, "no batch crossed the bound");
        }
    }
}

/// Cases of `pooled_states_answer_like_fresh_solves`; the last one checks
/// that the run as a whole reached both sides of the pool's rule.
const POOL_CASES: u32 = 40;
static POOL_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static POOL_ROLLBACKS: AtomicU32 = AtomicU32::new(0);
static POOL_DROPS: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(POOL_CASES))]

    /// One `PreparedQuery` serves a random interleaving of greedy solves
    /// — small ones whose state rolls back into the plan's pool, large
    /// ones that drop it, and deadline-truncated ones — and every answer
    /// is byte-identical to the same solve on a fresh `PreparedQuery`.
    #[test]
    fn pooled_states_answer_like_fresh_solves(
        (q, db, ops) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 10, 4);
            // (k selector, truncate?) per solve.
            let ops = proptest::collection::vec((0u64..1024, 0u8..4), 1..=12);
            (Just(q), db, ops)
        })
    ) {
        let db = Arc::new(db);
        let shared = PreparedQuery::new(q.clone(), Arc::clone(&db));
        let total = shared.output_count();
        if total > 0 {
            // Always reach the drop side too: k = total kills every witness.
            let solves = ops.iter().map(|&(sel, trunc)| (1 + sel % total, trunc == 0));
            for (k, truncate) in solves.chain([(total, false), (1, false)]) {
                let opts = AdpOptions {
                    force_greedy: true,
                    // Already expired: the first round runs, the second
                    // never does, on both sides alike.
                    deadline: truncate.then(Instant::now),
                    ..Default::default()
                };
                let got = shared.solve(k, &opts).unwrap();
                let fresh = PreparedQuery::new(q.clone(), Arc::clone(&db))
                    .solve(k, &opts)
                    .unwrap();
                prop_assert_eq!(&got, &fresh, "{} k={} truncate={}", q, k, truncate);
                // One thread, one mask: the pool holds the state iff the
                // solve rolled back.
                prop_assert!(shared.pooled_states() <= 1);
                if shared.pooled_states() == 1 {
                    POOL_ROLLBACKS.fetch_add(1, Ordering::Relaxed);
                } else {
                    POOL_DROPS.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if POOL_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == POOL_CASES {
            prop_assert!(POOL_ROLLBACKS.load(Ordering::Relaxed) > 0, "no solve rolled back");
            prop_assert!(POOL_DROPS.load(Ordering::Relaxed) > 0, "no solve dropped its state");
        }
    }
}
