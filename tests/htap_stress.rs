//! HTAP stress: 4 solver threads + 2 mutator threads + 2 subscribers
//! hammer one [`Service`] over the segmented store, while a
//! deliberately slow solver pins epoch 0 for the whole storm.
//!
//! Invariants under fire:
//!
//! * **No stale-epoch answer.** Every response names an epoch at least
//!   as new as the one fully applied before the request was issued, and
//!   answers from recorded epochs are byte-identical to the sequential
//!   oracle on that epoch's snapshot.
//! * **Gapless subscriptions.** Both subscribers see `seq = 0, 1, 2, …`
//!   with no gap, duplicate, or reorder — compactions underneath the
//!   group included.
//! * **Writers don't wait for readers.** Mutation p99 stays bounded
//!   even though the slow solver holds an old epoch alive end-to-end —
//!   the O(Δ) write path shares segments instead of copying them, so a
//!   pinned reader costs the writer nothing.

use adp::core::solver::{AdpOptions, PreparedQuery};
use adp::service::{Service, ServiceConfig, SolveRequest, SubscribeOptions, Target, ViewUpdate};
use adp::{parse_query, Database};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const Q: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

fn htap_db() -> Database {
    let mut db = Database::new();
    let r1: Vec<Vec<u64>> = (0..8).map(|a| vec![a]).collect();
    let r3 = r1.clone();
    let r2: Vec<Vec<u64>> = (0..48).map(|i| vec![i % 8, (i / 6) % 8]).collect();
    fn rows(v: &[Vec<u64>]) -> Vec<&[u64]> {
        v.iter().map(|t| t.as_slice()).collect()
    }
    db.add_relation("R1", adp::attrs(&["A"]), &rows(&r1));
    db.add_relation("R2", adp::attrs(&["A", "B"]), &rows(&r2));
    db.add_relation("R3", adp::attrs(&["B"]), &rows(&r3));
    db
}

/// Drains until `expected` updates arrived (or a 10 s stall), asserting
/// gapless monotone seqs as they stream in.
fn drain_gapless(rx: &Receiver<ViewUpdate>, expected: u64) {
    let mut next_seq = 0u64;
    let mut last_epoch = 0u64;
    while next_seq < expected {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(u) => {
                assert!(u.lagged.is_none(), "ample buffers must never lag");
                assert_eq!(u.seq, next_seq, "subscription seq gap");
                assert!(u.epoch > last_epoch, "epochs must be strictly monotone");
                last_epoch = u.epoch;
                next_seq += 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("subscriber stalled at seq {next_seq} of {expected}")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("service dropped the channel"),
        }
    }
}

#[test]
fn htap_storm_stays_consistent_and_writers_stay_fast() {
    let _ = adp::runtime::configure_global(4);
    let svc = Arc::new(Service::with_config(
        htap_db(),
        ServiceConfig {
            max_in_flight: 128,
            segment_target_rows: 16,
            compact_tombstone_pct: 25, // compactions fire mid-storm
            ..Default::default()
        },
    ));
    let stmt = svc.prepare(Q).unwrap();

    const SOLVERS: usize = 4;
    const SOLVER_ITERS: usize = 30;
    const MUTATORS: usize = 2;
    const OPS_PER_MUTATOR: u64 = 24;
    const SUBS: usize = 2;
    let total_batches = MUTATORS as u64 * OPS_PER_MUTATOR;

    let subs: Vec<Receiver<ViewUpdate>> = (0..SUBS)
        .map(|_| {
            svc.subscribe(
                &stmt,
                Target::Outputs(2),
                SubscribeOptions::default().with_buffer(total_batches as usize + 8),
            )
            .unwrap()
            .1
        })
        .collect();

    // Epoch → snapshot oracle map. The install lock makes each
    // mutator's install+snapshot atomic w.r.t. the other mutator, so
    // every epoch's exact snapshot is recorded.
    let snapshots: Arc<Mutex<HashMap<u64, Arc<Database>>>> = Arc::default();
    snapshots.lock().unwrap().insert(0, svc.snapshot().1);
    let install = Mutex::new(());
    let mutation_latencies: Mutex<Vec<Duration>> = Mutex::default();
    let responses: Mutex<Vec<(u64, u64, adp::service::SolveResponse)>> = Mutex::default();

    // The slow solver pins epoch 0 for the whole storm.
    let pinned = svc.snapshot().1;

    let barrier = Barrier::new(SOLVERS + MUTATORS + SUBS + 1);
    std::thread::scope(|scope| {
        for t in 0..SOLVERS {
            let svc = Arc::clone(&svc);
            let barrier = &barrier;
            let responses = &responses;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..SOLVER_ITERS {
                    let k = 1 + ((t + i) % 3) as u64;
                    let pre_epoch = svc.epoch();
                    let resp = svc
                        .solve(&SolveRequest::outputs(Q, k))
                        .expect("ample admission limit: nothing sheds");
                    responses.lock().unwrap().push((pre_epoch, k, resp));
                }
            });
        }
        // Two mutators toggling disjoint halves of R2: every batch is
        // effective, so subscription seqs count every epoch bump.
        for m in 0..MUTATORS {
            let svc = Arc::clone(&svc);
            let snapshots = Arc::clone(&snapshots);
            let barrier = &barrier;
            let install = &install;
            let mutation_latencies = &mutation_latencies;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..OPS_PER_MUTATOR {
                    let idx = (m as u64 * 24 + i % 24) as u32;
                    let delete = (i / 24) % 2 == 0;
                    let guard = install.lock().unwrap();
                    let t0 = Instant::now();
                    let epoch = if delete {
                        svc.delete_tuples(&[("R2", idx)]).unwrap()
                    } else {
                        svc.restore_tuples(&[("R2", idx)]).unwrap()
                    };
                    let dt = t0.elapsed();
                    let (snap_epoch, snap) = svc.snapshot();
                    drop(guard);
                    assert_eq!(snap_epoch, epoch, "install lock serializes mutators");
                    snapshots.lock().unwrap().insert(epoch, snap);
                    mutation_latencies.lock().unwrap().push(dt);
                    std::thread::yield_now();
                }
            });
        }
        for rx in subs {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                drain_gapless(&rx, total_batches);
            });
        }
        // The deliberately slow solver: holds epoch 0 across the whole
        // storm, napping between glances, then answers from it.
        let barrier = &barrier;
        let pinned = &pinned;
        scope.spawn(move || {
            barrier.wait();
            for _ in 0..6 {
                std::thread::sleep(Duration::from_millis(50));
            }
            let q = parse_query(Q).unwrap();
            let slow = PreparedQuery::new(q.clone(), Arc::clone(pinned))
                .solve(2, &AdpOptions::default())
                .unwrap();
            // Epoch 0 == the untouched base: a from-scratch build of the
            // same data is the oracle.
            let fresh = PreparedQuery::new(q.clone(), Arc::new(htap_db()))
                .solve(2, &AdpOptions::default())
                .unwrap();
            assert_eq!(slow.cost, fresh.cost, "pinned epoch drifted");
            assert_eq!(slow.output_count, fresh.output_count);
            assert_eq!(slow.solution, fresh.solution);
        });
    });

    // No stale answers; recorded epochs answer oracle-identically.
    let q = parse_query(Q).unwrap();
    let snapshots = snapshots.lock().unwrap();
    let responses = responses.lock().unwrap();
    assert_eq!(responses.len(), SOLVERS * SOLVER_ITERS);
    assert_eq!(
        snapshots.len() as u64,
        total_batches + 1,
        "every epoch recorded"
    );
    for (pre_epoch, k, resp) in responses.iter() {
        assert!(
            resp.stats.epoch >= *pre_epoch,
            "stale answer: issued at epoch {pre_epoch}, answered from {}",
            resp.stats.epoch
        );
        let snap = snapshots
            .get(&resp.stats.epoch)
            .unwrap_or_else(|| panic!("response from unknown epoch {}", resp.stats.epoch));
        let k_eff = (*k).min(resp.outcome.output_count);
        if k_eff > 0 {
            let oracle = PreparedQuery::new(q.clone(), Arc::clone(snap))
                .solve(k_eff, &AdpOptions::default())
                .unwrap();
            assert_eq!(resp.outcome.cost, oracle.cost, "k={k}");
            assert_eq!(resp.outcome.achieved, oracle.achieved, "k={k}");
            assert_eq!(resp.outcome.solution, oracle.solution, "k={k}");
        } else {
            assert_eq!(resp.outcome.cost, 0);
        }
    }

    // Writer latency: the pinned reader slept ~300 ms across the storm;
    // if the write path ever waited for readers (or fell back to O(n)
    // copying under a held snapshot), p99 would blow through this
    // bound. O(Δ) installs on this workload are microseconds.
    let mut lat = mutation_latencies.into_inner().unwrap();
    lat.sort_unstable();
    assert_eq!(lat.len() as u64, total_batches);
    let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
    assert!(
        p99 < Duration::from_millis(250),
        "mutation p99 {p99:?} — the write path must not wait on pinned readers"
    );

    let stats = svc.stats();
    assert_eq!(stats.epoch_bumps, total_batches);
    assert_eq!(stats.lagged_drops, 0);
    assert_eq!(stats.requests, (SOLVERS * SOLVER_ITERS) as u64);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
}
