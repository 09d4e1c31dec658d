//! Stress tests for the serving layer: N client threads hammer one
//! [`Service`] with mixed solve + epoch-bump traffic.
//!
//! Invariants under fire:
//!
//! * **No stale-epoch answer is ever returned.** Every response names
//!   the epoch it was computed against; that epoch is at least the one
//!   fully applied before the request was issued, and the answer is
//!   byte-identical to a direct sequential solve on that epoch's
//!   snapshot.
//! * **Cache stats add up**: every admitted request performs exactly
//!   one plan-cache lookup, so `hits + misses == requests` once the
//!   threads join.
//! * **The bounded queue sheds, never blocks**: with the admission
//!   limit saturated, every further request fails *immediately* with
//!   the typed
//!   [`AdpError::Overloaded`](adp::engine::error::AdpError::Overloaded)
//!   — the hammering threads all join without anyone parking forever.

use adp::core::solver::{AdpOptions, AdpOutcome, PreparedQuery};
use adp::engine::error::AdpError;
use adp::service::{Service, ServiceConfig, ServiceError, SolveRequest};
use adp::{parse_query, Database};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const Q: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

fn stress_db() -> Database {
    let mut db = Database::new();
    let r1: Vec<Vec<u64>> = (0..6).map(|a| vec![a]).collect();
    let r3 = r1.clone();
    let r2: Vec<Vec<u64>> = (0..24).map(|i| vec![i % 6, (i / 3) % 6]).collect();
    fn rows(v: &[Vec<u64>]) -> Vec<&[u64]> {
        v.iter().map(|t| t.as_slice()).collect()
    }
    db.add_relation("R1", adp::attrs(&["A"]), &rows(&r1));
    db.add_relation("R2", adp::attrs(&["A", "B"]), &rows(&r2));
    db.add_relation("R3", adp::attrs(&["B"]), &rows(&r3));
    db
}

fn assert_outcomes_identical(a: &AdpOutcome, b: &AdpOutcome, ctx: &str) {
    assert_eq!(a.cost, b.cost, "{ctx}: cost diverged");
    assert_eq!(a.achieved, b.achieved, "{ctx}: achieved diverged");
    assert_eq!(a.exact, b.exact, "{ctx}: exactness diverged");
    assert_eq!(a.truncated, b.truncated, "{ctx}: truncation diverged");
    assert_eq!(a.output_count, b.output_count, "{ctx}: |Q(D)| diverged");
    assert_eq!(a.solution, b.solution, "{ctx}: deletion set diverged");
}

/// Mixed solve + epoch-bump traffic: 4 solver threads race 1 mutator
/// thread applying the `fig_stream`-style delete/restore schedule. No
/// response may be stale, and every response must match the sequential
/// oracle for the epoch it claims.
#[test]
fn mixed_traffic_never_serves_stale_epochs() {
    let _ = adp::runtime::configure_global(4);
    let svc = Arc::new(Service::with_config(
        stress_db(),
        ServiceConfig {
            max_in_flight: 64, // ample: this test is about staleness, not shedding
            ..Default::default()
        },
    ));

    // The mutator's deterministic schedule: delete two R2 tuples, then
    // one R1 tuple, then restore the R2 tuples, then delete R3(0).
    let schedule: Vec<(bool, Vec<(&str, u32)>)> = vec![
        (true, vec![("R2", 0), ("R2", 7)]),
        (true, vec![("R1", 3)]),
        (false, vec![("R2", 0), ("R2", 7)]),
        (true, vec![("R3", 0)]),
    ];

    // Epoch snapshots for the oracle: epoch -> database Arc. Epoch 0 is
    // the base; the mutator records each new epoch as it installs it.
    let snapshots: Arc<std::sync::Mutex<HashMap<u64, Arc<Database>>>> = Arc::default();
    snapshots
        .lock()
        .unwrap()
        .insert(0, svc.snapshot().1.clone());

    const SOLVERS: usize = 4;
    const ITERS: usize = 40;
    let barrier = Arc::new(Barrier::new(SOLVERS + 1));
    let responses: Arc<std::sync::Mutex<Vec<(u64, u64, adp::service::SolveResponse)>>> =
        Arc::default();

    std::thread::scope(|scope| {
        for t in 0..SOLVERS {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            let responses = Arc::clone(&responses);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..ITERS {
                    let k = 1 + ((t + i) % 3) as u64;
                    let pre_epoch = svc.epoch();
                    let resp = svc
                        .solve(&SolveRequest::outputs(Q, k))
                        .expect("ample admission limit: nothing sheds");
                    responses.lock().unwrap().push((pre_epoch, k, resp));
                }
            });
        }
        // Mutator: spread the schedule across the solver iterations.
        let svc_m = Arc::clone(&svc);
        let snapshots_m = Arc::clone(&snapshots);
        let barrier_m = Arc::clone(&barrier);
        scope.spawn(move || {
            barrier_m.wait();
            for (delete, batch) in &schedule {
                std::thread::yield_now();
                let epoch = if *delete {
                    svc_m.delete_tuples(batch).unwrap()
                } else {
                    svc_m.restore_tuples(batch).unwrap()
                };
                let (snap_epoch, snap) = svc_m.snapshot();
                assert!(snap_epoch >= epoch);
                snapshots_m.lock().unwrap().insert(epoch, snap);
            }
        });
    });

    // Oracle pass: every response is (a) not stale and (b) identical to
    // the direct sequential solve on its epoch's snapshot.
    let q = parse_query(Q).unwrap();
    let snapshots = snapshots.lock().unwrap();
    let responses = responses.lock().unwrap();
    assert_eq!(responses.len(), SOLVERS * ITERS);
    for (pre_epoch, k, resp) in responses.iter() {
        assert!(
            resp.stats.epoch >= *pre_epoch,
            "stale answer: request issued at epoch {pre_epoch} answered from {}",
            resp.stats.epoch
        );
        let snap = snapshots
            .get(&resp.stats.epoch)
            .unwrap_or_else(|| panic!("response from unknown epoch {}", resp.stats.epoch));
        let k_eff = (*k).min(resp.outcome.output_count);
        let reference = if k_eff == 0 {
            AdpOutcome {
                cost: 0,
                achieved: 0,
                exact: true,
                truncated: false,
                output_count: 0,
                solution: Some(Vec::new()),
            }
        } else {
            PreparedQuery::new(q.clone(), Arc::clone(snap))
                .solve(k_eff, &AdpOptions::default())
                .unwrap()
        };
        assert_outcomes_identical(
            &resp.outcome,
            &reference,
            &format!("k={k} epoch={}", resp.stats.epoch),
        );
    }

    // Accounting: every admitted request did exactly one cache lookup.
    let stats = svc.stats();
    assert_eq!(stats.requests, (SOLVERS * ITERS) as u64);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.epoch_bumps, 4);
    // One query shape over 5 epochs: one cold miss per epoch, plus a
    // bounded allowance for the invalidation race — a solver that
    // snapshotted epoch e right before the bump to e+1 finds (Q, e)
    // already evicted and legitimately re-compiles it, at most once per
    // in-flight solver per bump. Anything beyond that bound would mean
    // the cache failed to share plans (the no-sharing failure mode is
    // ~one miss per request, 40x this bound).
    let race_allowance = stats.epoch_bumps * SOLVERS as u64;
    assert!(
        stats.cache_misses <= 5 + race_allowance,
        "at most one plan compile per epoch (+{race_allowance} racing re-compiles), got {} misses",
        stats.cache_misses
    );
}

/// With the admission limit saturated, every concurrent request is shed
/// immediately with the typed overload error — nobody blocks, and the
/// books still balance.
#[test]
fn bounded_queue_sheds_load_instead_of_blocking() {
    let svc = Arc::new(Service::with_config(
        stress_db(),
        ServiceConfig {
            max_in_flight: 1,
            ..Default::default()
        },
    ));
    // Saturate the queue: hold the only admission slot for the whole
    // hammering phase.
    let permit = svc.try_admit().unwrap();

    const THREADS: usize = 8;
    const ITERS: usize = 25;
    let shed = AtomicU64::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..ITERS {
                    // If shedding ever blocked, this join would hang the
                    // whole test instead of finishing instantly.
                    match svc.solve(&SolveRequest::outputs(Q, 1)) {
                        Err(ServiceError::Admission(AdpError::Overloaded { in_flight, limit })) => {
                            assert_eq!(limit, 1);
                            assert!(in_flight >= 1);
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("expected Overloaded, got {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(shed.load(Ordering::Relaxed), (THREADS * ITERS) as u64);

    // Books balance: all shed, none admitted, no cache traffic.
    let stats = svc.stats();
    assert_eq!(stats.shed, (THREADS * ITERS) as u64);
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);

    // Releasing the permit restores service.
    drop(permit);
    let resp = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
    assert_eq!(resp.stats.epoch, 0);
    let stats = svc.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
}

/// Concurrent cold-start on one key: many threads racing the same
/// (query, epoch) must share one plan — the cache compiles at most once
/// per key, and every response is identical.
#[test]
fn racing_cold_misses_share_one_plan() {
    let _ = adp::runtime::configure_global(4);
    let svc = Arc::new(Service::new(stress_db()));
    const THREADS: usize = 8;
    let barrier = Barrier::new(THREADS);
    let results: std::sync::Mutex<Vec<adp::service::SolveResponse>> = std::sync::Mutex::default();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                let r = svc.solve(&SolveRequest::outputs(Q, 2)).unwrap();
                results.lock().unwrap().push(r);
            });
        }
    });
    let results = results.lock().unwrap();
    for r in results.iter().skip(1) {
        assert_outcomes_identical(&r.outcome, &results[0].outcome, "racing cold start");
    }
    assert_eq!(svc.cached_plans(), 1, "one shared plan, not {THREADS}");
    let stats = svc.stats();
    assert_eq!(stats.requests, THREADS as u64);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
    assert_eq!(stats.cache_misses, 1, "exactly one compile for the key");
}
