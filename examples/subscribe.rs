//! Push subscriptions end to end: register a statement for incremental
//! view maintenance, mutate the database, drain the pushed diffs, and
//! unsubscribe — without ever re-solving from scratch.
//!
//! Each `delete_tuples` / `restore_tuples` batch advances the
//! statement's pooled greedy state once, whatever the number of
//! subscribers, and pushes a minimal
//! [`ViewUpdate`] to every subscriber: output rows that crossed the
//! live/dead line, the drift in the target's greedy cost, and the churn
//! in its recommended deletion set. A subscriber replaying the diffs
//! from its subscription epoch reconstructs exactly what a fresh solve
//! at the current epoch would answer.
//!
//! Run with: `cargo run --example subscribe`
//!
//! [`ViewUpdate`]: adp::ViewUpdate

use adp::{attrs, Database, Service, SubscribeOptions, Target};

fn main() {
    // The supplier -> part -> lineitem chain from the service example.
    let mut db = Database::new();
    db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2], &[3, 1]]);
    db.add_relation(
        "PS",
        attrs(&["SK", "PK"]),
        &[&[1, 1], &[1, 2], &[2, 1], &[2, 3]],
    );
    db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2], &[9, 3]]);

    let svc = Service::new(db);
    let stmt = svc
        .prepare("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)")
        .expect("valid query");

    // Register: the service seeds the target's answer at the current
    // epoch and hands back a bounded channel of updates. The
    // buffer is the lag policy — a full buffer drops the update and the
    // next delivered one names the missed sequence numbers in
    // `lagged`, so the mutation path never blocks on a slow reader.
    let (id, updates) = svc
        .subscribe(
            &stmt,
            Target::Outputs(2),
            SubscribeOptions::default().with_buffer(16),
        )
        .expect("subscribable statement");
    println!(
        "subscribed {id:?}; {} live subscription",
        svc.live_subscriptions()
    );

    // Mutate: each effective batch pushes one update. A no-op batch
    // (restoring a live tuple, re-deleting a dead one) bumps nothing
    // and pushes nothing.
    svc.delete_tuples(&[("L", 0)]).expect("valid tuple");
    svc.delete_tuples(&[("PS", 1)]).expect("valid tuple");
    svc.restore_tuples(&[("L", 0)]).expect("valid tuple");

    // Drain: diffs arrive in mutation order with gapless seq numbers.
    for update in updates.try_iter() {
        println!(
            "epoch {} seq {}: -{} +{} rows, cost drift {:+}, churn -{} +{}{}",
            update.epoch,
            update.seq,
            update.outputs_lost.len(),
            update.outputs_gained.len(),
            update.cost_drift,
            update.deletion_set_churn.removed.len(),
            update.deletion_set_churn.added.len(),
            if update.lagged.is_some() {
                " (lagged)"
            } else {
                ""
            },
        );
        for row in &update.outputs_lost {
            println!("  lost output {}: {:?}", row.id, row.values);
        }
        for row in &update.outputs_gained {
            println!("  regained output {}: {:?}", row.id, row.values);
        }
    }

    // Unsubscribe tears the registration down; dropping the receiver
    // would have the same effect lazily on the next push.
    assert!(svc.unsubscribe(id));
    println!(
        "unsubscribed; {} live subscriptions",
        svc.live_subscriptions()
    );
}
