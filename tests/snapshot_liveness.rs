//! Epoch-lifetime tests for copy-on-write snapshots: old epochs stay
//! readable while the service moves on, and segment memory is released
//! exactly when the last reader lets go.
//!
//! Invariants:
//!
//! * **Pinned epochs are immutable.** A reader holding an old epoch's
//!   `Arc<Database>` sees byte-identical rows and evaluations across
//!   any number of later mutations and compactions.
//! * **Memory follows the last reader.** Compaction replaces a segment
//!   in the *next* epoch only; the physical segment lives while any
//!   older epoch holds it ([`Weak`] upgrade succeeds) and dies with the
//!   last holder, and [`Database::memory_report`] on the surviving
//!   epoch accounts only for what it actually retains.
//! * **Handles survive compaction.** A prepared [`Statement`] re-binds
//!   across compacting epochs and keeps answering oracle-identically;
//!   subscription groups keep delivering gapless updates while their
//!   segments are rewritten underneath them.

use adp::core::solver::{AdpOptions, PreparedQuery};
use adp::service::{Service, ServiceConfig, SolveRequest, SubscribeOptions, Target};
use adp::{parse_query, Database};
use std::sync::Arc;

const Q: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

fn liveness_db() -> Database {
    let mut db = Database::new();
    let r1: Vec<Vec<u64>> = (0..8).map(|a| vec![a]).collect();
    let r3 = r1.clone();
    let r2: Vec<Vec<u64>> = (0..32).map(|i| vec![i % 8, (i / 4) % 8]).collect();
    fn rows(v: &[Vec<u64>]) -> Vec<&[u64]> {
        v.iter().map(|t| t.as_slice()).collect()
    }
    db.add_relation("R1", adp::attrs(&["A"]), &rows(&r1));
    db.add_relation("R2", adp::attrs(&["A", "B"]), &rows(&r2));
    db.add_relation("R3", adp::attrs(&["B"]), &rows(&r3));
    db
}

/// Aggressive sealing + compaction so every few tombstones physically
/// rewrite a segment — the hostile environment for pinned readers.
fn compacting_config() -> ServiceConfig {
    ServiceConfig {
        segment_target_rows: 8,
        compact_tombstone_pct: 10,
        ..Default::default()
    }
}

/// A reader pins epoch 0; 20 mutation batches (deletes, restores, and
/// the compactions they trigger) land afterwards. The pinned snapshot's
/// rows and its evaluations must not move by a byte.
#[test]
fn pinned_epochs_survive_mutations_and_compactions() {
    let _ = adp::runtime::configure_global(4);
    let svc = Service::with_config(liveness_db(), compacting_config());
    let (epoch0, pinned) = svc.snapshot();
    assert_eq!(epoch0, 0);

    let rows_before: Vec<_> = pinned.relations().iter().map(|r| r.to_rows()).collect();
    let q = parse_query(Q).unwrap();
    let eval_before = PreparedQuery::new(q.clone(), Arc::clone(&pinned)).eval();

    // The storm: toggle R2 tuples (every batch effective), deleting
    // enough per segment to cross the 10% compaction trigger many
    // times over.
    for i in 0..20u32 {
        let idx = i % 16;
        if (i / 16) % 2 == 0 {
            svc.delete_tuples(&[("R2", idx)]).unwrap();
        } else {
            svc.restore_tuples(&[("R2", idx)]).unwrap();
        }
    }
    assert!(svc.epoch() >= 20);
    let (_, current) = svc.snapshot();
    assert!(
        current.relations()[1].len() < pinned.relations()[1].len(),
        "the storm must have actually shrunk the live snapshot"
    );

    let rows_after: Vec<_> = pinned.relations().iter().map(|r| r.to_rows()).collect();
    assert_eq!(rows_before, rows_after, "pinned epoch rows moved");
    // A *fresh* evaluation over the pinned snapshot still produces the
    // identical result — the segments it shares with later epochs were
    // never mutated in place.
    let eval_after = PreparedQuery::new(q, pinned).eval();
    assert_eq!(
        eval_before.outputs().collect::<Vec<_>>(),
        eval_after.outputs().collect::<Vec<_>>(),
        "pinned epoch evaluation moved"
    );
    assert_eq!(
        eval_before.witnesses().collect::<Vec<_>>(),
        eval_after.witnesses().collect::<Vec<_>>()
    );
}

/// Segment memory is released by the last reader, not by the mutation:
/// a compaction in epoch N+1 leaves epoch N's physical segment alive
/// until the pinned `Arc<Database>` drops, at which point its `Weak`
/// handle dies — and the surviving epoch's `memory_report` shows it
/// never retained the dead rows.
#[test]
fn dropping_the_last_reader_releases_segment_memory() {
    let mut db = liveness_db();
    db.seal_all(8); // R2's 32 rows → 4 segments of 8
    let old = Arc::new(db);
    let weaks = old.relations()[1].segment_handles();
    assert_eq!(weaks.len(), 4);

    // Next epoch: clone (Arc bumps), kill all of R2's second segment
    // (stable ids 8..16), compact it away.
    let mut next = (*old).clone();
    for stable in 8u32..16 {
        assert!(next.relations_mut()[1].delete_stable(stable));
    }
    assert!(next.relations_mut()[1].maybe_compact(50) >= 1);
    let next = Arc::new(next);

    let rep_old = old.memory_report();
    let rep_next = next.memory_report();
    assert_eq!(rep_old.relations[1].tuples, 32);
    assert_eq!(rep_next.relations[1].tuples, 24, "dead rows dropped");
    assert_eq!(
        rep_next.relations[1].tombstones, 0,
        "compaction cleared them"
    );
    assert!(
        rep_next.relations[1].approx_bytes < rep_old.relations[1].approx_bytes,
        "the surviving epoch must not retain the compacted rows: {} vs {}",
        rep_next.relations[1].approx_bytes,
        rep_old.relations[1].approx_bytes
    );

    // While the old epoch lives, every physical segment lives.
    assert!(weaks.iter().all(|w| w.upgrade().is_some()));
    drop(old);
    // The replaced segment died with its last reader; the segments the
    // epochs still share stay alive through `next`.
    assert!(
        weaks[1].upgrade().is_none(),
        "compacted-away segment must be freed once the old epoch drops"
    );
    for (i, w) in weaks.iter().enumerate() {
        if i != 1 {
            assert!(w.upgrade().is_some(), "segment {i} is still shared");
        }
    }
    drop(next);
    assert!(
        weaks.iter().all(|w| w.upgrade().is_none()),
        "no reader left, no segment may survive"
    );
}

/// A prepared `Statement` keeps answering across compacting epochs:
/// every re-bound solve matches the direct oracle on the then-current
/// snapshot.
#[test]
fn statements_rebind_across_compactions() {
    let _ = adp::runtime::configure_global(4);
    let svc = Service::with_config(liveness_db(), compacting_config());
    let stmt = svc.prepare(Q).unwrap();
    let q = parse_query(Q).unwrap();

    for round in 0..6u32 {
        // Each round deletes two more R2 tuples, repeatedly tripping
        // the 10% compaction threshold on 8-row segments.
        svc.delete_tuples(&[("R2", round * 2), ("R2", round * 2 + 1)])
            .unwrap();
        let resp = stmt.solve(Target::Outputs(1)).unwrap();
        assert_eq!(resp.stats.epoch, svc.epoch(), "stale statement binding");
        let (_, snap) = svc.snapshot();
        let k = 1u64.min(resp.outcome.output_count);
        if k > 0 {
            let direct = PreparedQuery::new(q.clone(), snap)
                .solve(k, &AdpOptions::default())
                .unwrap();
            assert_eq!(resp.outcome.cost, direct.cost, "round {round}");
            assert_eq!(resp.outcome.solution, direct.solution, "round {round}");
        }
    }
    // The text path agrees with the statement path on the final epoch.
    let via_text = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
    let via_stmt = stmt.solve(Target::Outputs(1)).unwrap();
    assert_eq!(via_text.outcome.cost, via_stmt.outcome.cost);
    assert_eq!(via_text.outcome.solution, via_stmt.outcome.solution);
}

/// Subscription groups survive compaction: a subscriber keeps receiving
/// gapless, monotone updates while the segments underneath its
/// statement are repeatedly rewritten.
#[test]
fn subscriptions_survive_compaction() {
    let _ = adp::runtime::configure_global(4);
    let svc = Service::with_config(liveness_db(), compacting_config());
    let stmt = svc.prepare(Q).unwrap();
    let (_id, rx) = svc
        .subscribe(
            &stmt,
            Target::Outputs(2),
            SubscribeOptions::default().with_buffer(64),
        )
        .unwrap();

    let batches = 16u64;
    for i in 0..batches {
        let idx = (i % 12) as u32;
        if (i / 12) % 2 == 0 {
            svc.delete_tuples(&[("R2", idx)]).unwrap();
        } else {
            svc.restore_tuples(&[("R2", idx)]).unwrap();
        }
    }
    let (_, snap) = svc.snapshot();
    assert!(
        snap.relations()[1].segment_count() > 0,
        "the store must actually be segmented under the subscriber"
    );

    let mut seqs = Vec::new();
    let mut last_epoch = 0;
    while let Ok(u) = rx.try_recv() {
        assert!(u.lagged.is_none(), "ample buffer must never lag");
        assert!(u.epoch > last_epoch, "epochs must be strictly monotone");
        last_epoch = u.epoch;
        seqs.push(u.seq);
    }
    assert_eq!(
        seqs,
        (0..batches).collect::<Vec<_>>(),
        "every batch delivered exactly once, in order, across compactions"
    );
    assert_eq!(svc.stats().lagged_drops, 0);
}
