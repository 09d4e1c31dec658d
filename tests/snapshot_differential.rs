//! Differential tests for copy-on-write epoch snapshots
//! (`adp-engine::relation` segments + overlays).
//!
//! The property: **no read path can tell a segmented store from a
//! freshly built one.** Starting from a random database, a random
//! interleaving of `delete_stable` / `restore_stable` / `seal` /
//! `maybe_compact` is applied step by step; after *every* step the
//! segment+overlay view must be byte-identical to a from-scratch
//! `Database` holding exactly the live tuples in stable order:
//!
//! * the dense row view (`to_rows`),
//! * the full `EvalResult` (`==`: same outputs, same witness ids, same
//!   posting order) — sequential *and* chunk-parallel on a pinned
//!   4-worker pool,
//! * delta provenance (profits + live counts), and
//! * the greedy solver's actual picks (cost, achieved, deletion set).
//!
//! A deterministic companion test walks the nastiest corner explicitly:
//! restore of a tuple whose segment already compacted it away, which
//! must re-materialize the row mid-segment in stable order.

use adp::core::solver::{AdpOptions, PreparedQuery};
use adp::engine::delta::DeltaProvenance;
use adp::engine::plan::QueryPlan;
use adp::engine::relation::RelationInstance;
use adp::{parse_query, Database, Query, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Pins the global pool to 4 workers so threshold-gated parallel paths
/// can run even on a single-core box.
fn four_workers() -> &'static adp::ThreadPool {
    let _ = adp::runtime::configure_global(4);
    let pool = adp::runtime::global();
    assert_eq!(pool.threads(), 4);
    pool
}

/// Strategy: a random self-join-free query over attributes A..E with
/// 1..=3 atoms of arity 1..=3 and a random head.
fn arb_query() -> impl Strategy<Value = Query> {
    let attr_pool = ["A", "B", "C", "D", "E"];
    proptest::collection::vec(
        proptest::collection::btree_set(0usize..attr_pool.len(), 1..=3),
        1..=3,
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

/// Strategy: a small random database for a query. Values repeat within
/// a tiny domain so joins actually match and the interner dedups.
fn arb_db(q: &Query, max_rows: usize, dom: u64) -> impl Strategy<Value = Database> {
    let atoms: Vec<_> = q.atoms().to_vec();
    proptest::collection::vec(
        proptest::collection::vec(0..dom, 0..=12),
        atoms.len()..=atoms.len(),
    )
    .prop_map(move |value_streams| {
        let mut db = Database::new();
        for (atom, stream) in atoms.iter().zip(value_streams) {
            let mut inst = RelationInstance::new(atom.clone());
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

/// One step of the mutation storm, resolved against live state at
/// application time (so every generated op is applicable or skipped).
#[derive(Clone, Debug)]
enum Op {
    /// Tombstone the `pick`-th currently live stable id of relation
    /// `rel` (both taken modulo what exists).
    Delete { rel: usize, pick: usize },
    /// Restore the `pick`-th currently deleted stable id of `rel`.
    Restore { rel: usize, pick: usize },
    /// Seal every relation's tail into segments of at most `target`.
    Seal { target: usize },
    /// Compact segments at or above a tombstone percentage.
    Compact { pct: u32 },
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..4, 0usize..64, 0usize..64).prop_map(|(sel, a, b)| match sel {
            0 => Op::Delete { rel: a, pick: b },
            1 => Op::Restore { rel: a, pick: b },
            2 => Op::Seal { target: 1 + b % 6 },
            _ => Op::Compact {
                pct: (b % 101) as u32,
            },
        }),
        1..=max,
    )
}

/// The from-scratch oracle: a fresh `Database` holding, per relation,
/// exactly the live base tuples in stable order.
fn rebuild(q: &Query, base_rows: &[Vec<Vec<Value>>], deleted: &[BTreeSet<u32>]) -> Database {
    let mut db = Database::new();
    for (slot, schema) in q.atoms().iter().enumerate() {
        let mut inst = RelationInstance::new(schema.clone());
        for (stable, row) in base_rows[slot].iter().enumerate() {
            if !deleted[slot].contains(&(stable as u32)) {
                inst.insert(row);
            }
        }
        db.add(inst);
    }
    db
}

/// Asserts every read path over `seg` is byte-identical to the rebuilt
/// oracle: dense rows, sequential + pooled `EvalResult`, provenance,
/// greedy picks.
fn assert_views_identical(
    q: &Query,
    seg: &Database,
    oracle: &Database,
    step: usize,
) -> Result<(), TestCaseError> {
    let pool = four_workers();
    for (s, o) in seg.relations().iter().zip(oracle.relations()) {
        prop_assert_eq!(
            s.to_rows(),
            o.to_rows(),
            "step {}: dense view diverged from rebuild",
            step
        );
    }

    let seg_plan = QueryPlan::new(seg, q.atoms(), q.head());
    let ora_plan = QueryPlan::new(oracle, q.atoms(), q.head());
    let seg_eval = seg_plan.execute(seg, &seg_plan.build_indexes(seg));
    let ora_eval = ora_plan.execute(oracle, &ora_plan.build_indexes(oracle));
    prop_assert_eq!(
        &seg_eval,
        &ora_eval,
        "step {}: segmented EvalResult diverged from rebuild ({})",
        step,
        q
    );
    // The pooled probe over segment-aware indexes must also be
    // byte-identical — per-segment index reuse cannot leak overlays.
    let pidx = seg_plan.build_indexes_on(seg, pool, Default::default());
    for chunks in [2usize, 5] {
        let par = seg_plan.execute_chunked(seg, &pidx, None, pool, chunks);
        prop_assert_eq!(
            &par,
            &ora_eval,
            "step {}: chunks={} diverged from rebuild",
            step,
            chunks
        );
    }

    // Provenance built over the segmented view scores identically.
    let d_seg = DeltaProvenance::try_new(&seg_eval).unwrap();
    let d_ora = DeltaProvenance::try_new(&ora_eval).unwrap();
    prop_assert_eq!(d_seg.profits(), d_ora.profits(), "step {}: profits", step);
    prop_assert_eq!(d_seg.live_counts(), d_ora.live_counts());

    // Greedy picks: identical cost *and* identical deletion set.
    let total = seg_eval.output_count();
    if total > 0 {
        let k = (1 + step as u64 % 2).min(total);
        let a = PreparedQuery::new(q.clone(), Arc::new(seg.clone()))
            .solve(k, &AdpOptions::default())
            .unwrap();
        let b = PreparedQuery::new(q.clone(), Arc::new(oracle.clone()))
            .solve(k, &AdpOptions::default())
            .unwrap();
        prop_assert_eq!(a.cost, b.cost, "step {}: greedy cost diverged", step);
        prop_assert_eq!(a.achieved, b.achieved);
        prop_assert_eq!(
            a.solution,
            b.solution,
            "step {}: greedy picks diverged",
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleaved delete/restore/seal/compact storms: after
    /// every step, every read path over the segmented store equals the
    /// from-scratch rebuild.
    #[test]
    fn mutation_storms_stay_identical_to_rebuilds(
        (q, mut db, ops) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 8, 3);
            (Just(q), db, arb_ops(10))
        })
    ) {
        // Stable ids are assigned in insertion order, so the initial
        // dense indices are the stable ids for the whole run.
        let base_rows: Vec<Vec<Vec<Value>>> =
            db.relations().iter().map(|r| r.to_rows()).collect();
        let mut deleted: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); base_rows.len()];

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Delete { rel, pick } => {
                    let slot = rel % base_rows.len();
                    let live: Vec<u32> = (0..base_rows[slot].len() as u32)
                        .filter(|s| !deleted[slot].contains(s))
                        .collect();
                    if let Some(&stable) = live.get(pick % live.len().max(1)) {
                        prop_assert!(db.relations_mut()[slot].delete_stable(stable));
                        deleted[slot].insert(stable);
                    }
                }
                Op::Restore { rel, pick } => {
                    let slot = rel % base_rows.len();
                    let dead: Vec<u32> = deleted[slot].iter().copied().collect();
                    if let Some(&stable) = dead.get(pick % dead.len().max(1)) {
                        let row = base_rows[slot][stable as usize].clone();
                        prop_assert!(db.relations_mut()[slot].restore_stable(stable, &row));
                        deleted[slot].remove(&stable);
                    }
                }
                Op::Seal { target } => db.seal_all(target),
                Op::Compact { pct } => {
                    db.maybe_compact_all(pct);
                }
            }
            let oracle = rebuild(&q, &base_rows, &deleted);
            assert_views_identical(&q, &db, &oracle, step)?;
        }
    }
}

/// The nastiest corner, deterministically: a compaction physically
/// drops tombstoned rows from the middle of a segment, and a later
/// restore must re-materialize them **in stable order**, keeping the
/// dense view and every downstream read identical to a rebuild.
#[test]
fn restore_after_compaction_equals_rebuild() {
    let q = parse_query("Q(A,B) :- R0(A), R1(A,B)").unwrap();
    let mut db = Database::new();
    let mut r0 = RelationInstance::new(q.atoms()[0].clone());
    for a in 0..8u64 {
        r0.insert(&[a]);
    }
    let mut r1 = RelationInstance::new(q.atoms()[1].clone());
    for i in 0..16u64 {
        r1.insert(&[i % 8, i / 2]);
    }
    db.add(r0);
    db.add(r1);
    let base_rows: Vec<Vec<Vec<Value>>> = db.relations().iter().map(|r| r.to_rows()).collect();
    let mut deleted: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); 2];

    db.seal_all(4);
    // Tombstone the middle of R1's first segment, then force the
    // physical rewrite.
    for stable in [1u32, 2] {
        assert!(db.relations_mut()[1].delete_stable(stable));
        deleted[1].insert(stable);
    }
    assert!(db.relations_mut()[1].compact_all() > 0);
    // The rows are physically gone; restoring them must splice them
    // back mid-segment at their stable positions.
    for stable in [2u32, 1] {
        let row = base_rows[1][stable as usize].clone();
        assert!(db.relations_mut()[1].restore_stable(stable, &row));
        deleted[1].remove(&stable);
    }

    let oracle = rebuild(&q, &base_rows, &deleted);
    for (s, o) in db.relations().iter().zip(oracle.relations()) {
        assert_eq!(s.to_rows(), o.to_rows(), "dense view must match rebuild");
    }
    let seg_plan = QueryPlan::new(&db, q.atoms(), q.head());
    let ora_plan = QueryPlan::new(&oracle, q.atoms(), q.head());
    assert_eq!(
        seg_plan.execute(&db, &seg_plan.build_indexes(&db)),
        ora_plan.execute(&oracle, &ora_plan.build_indexes(&oracle)),
        "restored-after-compaction store must evaluate identically"
    );
}
