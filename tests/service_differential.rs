//! Differential tests for the serving layer (`adp-service`).
//!
//! The invariant is strict: for random `(Q, D, k)` streams, every
//! response the service produces — through the plan cache, concurrently,
//! on either the cold-miss or the cache-hit path — must be
//! **byte-identical** to a direct sequential
//! [`PreparedQuery::solve`] on a freshly compiled plan over the same
//! snapshot. The serving layer adds sharing and scheduling; it must
//! never add (or lose) a single byte of answer.

use adp::core::solver::{AdpOptions, AdpOutcome, PreparedQuery};
use adp::service::{Service, ServiceConfig, SolveRequest, SolveResponse, Statement, Target};
use adp::{parse_query, Database, Query};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Pins the global pool to 4 workers so `solve_batch` genuinely runs
/// requests concurrently even on a single-core box.
fn four_workers() {
    let _ = adp::runtime::configure_global(4);
    assert_eq!(adp::runtime::global().threads(), 4);
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

fn assert_outcomes_identical(a: &AdpOutcome, b: &AdpOutcome, ctx: &str) {
    assert_eq!(a.cost, b.cost, "{ctx}: cost diverged");
    assert_eq!(a.achieved, b.achieved, "{ctx}: achieved diverged");
    assert_eq!(a.exact, b.exact, "{ctx}: exactness diverged");
    assert_eq!(a.truncated, b.truncated, "{ctx}: truncation diverged");
    assert_eq!(a.output_count, b.output_count, "{ctx}: |Q(D)| diverged");
    assert_eq!(a.solution, b.solution, "{ctx}: deletion set diverged");
}

/// A lexically noisy but semantically identical spelling of the query,
/// so the cache-hit path is exercised through normalization, not string
/// equality.
fn noisy_text(q: &Query) -> String {
    format!("{q}")
        .replace(" :- ", "   :-  ")
        .replace("Q(", "Renamed( ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concurrent plan-cached responses ≡ direct sequential solves, on
    /// both the cold-miss and the cache-hit path.
    #[test]
    fn concurrent_service_matches_sequential_compute(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 8, 3);
            (Just(q), db)
        })
    ) {
        four_workers();
        let svc = Service::new(db.clone());
        let shared = Arc::new(db);
        let total = PreparedQuery::new(q.clone(), Arc::clone(&shared)).output_count();
        let ks: Vec<u64> = [1, total / 2, total]
            .into_iter()
            .filter(|&k| k >= 1 && k <= total)
            .collect();

        // Each k twice (cold then hit), plus a lexically noisy variant
        // that must land on the same cached plan.
        let mut reqs: Vec<SolveRequest> = Vec::new();
        for &k in &ks {
            reqs.push(SolveRequest::outputs(format!("{q}"), k));
            reqs.push(SolveRequest::outputs(format!("{q}"), k));
            reqs.push(SolveRequest::outputs(noisy_text(&q), k));
        }
        let responses = svc.solve_batch(&reqs);

        for (req, resp) in reqs.iter().zip(&responses) {
            let resp = resp.as_ref().unwrap_or_else(|e| panic!("{}: {e}", req.query));
            let k = match req.target {
                adp::Target::Outputs(k) => k,
                adp::Target::Ratio(_) => unreachable!(),
            };
            let reference = PreparedQuery::new(q.clone(), Arc::clone(&shared)).solve(k, &AdpOptions::default())
                .unwrap_or_else(|e| panic!("{q} k={k}: {e}"));
            assert_outcomes_identical(&resp.outcome, &reference, &format!("{q} k={k}"));
            prop_assert_eq!(resp.stats.epoch, 0);
        }

        // Cache accounting: every admitted request did exactly one
        // lookup; with one query shape there is exactly one cold miss
        // (the three spellings share one normalized key).
        let stats = svc.stats();
        prop_assert_eq!(stats.requests, reqs.len() as u64);
        prop_assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
        if !reqs.is_empty() {
            prop_assert_eq!(stats.cache_misses, 1, "{}: one plan per epoch", q);
            prop_assert_eq!(svc.cached_plans(), 1);
            let hits = responses.iter().filter(|r| r.as_ref().unwrap().stats.cache_hit).count();
            prop_assert_eq!(hits as u64, stats.cache_hits);
            prop_assert!(hits >= reqs.len() - 1, "all but the cold miss must hit");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch bumps: after a random delete batch, responses must equal
    /// direct computes on the *new* snapshot (cold path again), and the
    /// old epoch's answers must never resurface.
    #[test]
    fn responses_follow_epoch_bumps(
        (q, db, dels) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 8, 3);
            let dels = proptest::collection::vec((0usize..4, 0u64..64), 1..=5);
            (Just(q), db, dels)
        })
    ) {
        four_workers();
        let svc = Service::new(db);
        let text = format!("{q}");

        let solve_all = |svc: &Service, expect_epoch: u64| {
            let (epoch, snap) = svc.snapshot();
            assert_eq!(epoch, expect_epoch);
            let total = PreparedQuery::new(q.clone(), Arc::clone(&snap)).output_count();
            for k in [1, total].into_iter().filter(|&k| k >= 1 && k <= total) {
                let resp = svc.solve(&SolveRequest::outputs(text.clone(), k)).unwrap();
                let reference =
                    PreparedQuery::new(q.clone(), Arc::clone(&snap)).solve(k, &AdpOptions::default()).unwrap();
                assert_outcomes_identical(
                    &resp.outcome,
                    &reference,
                    &format!("{q} k={k} epoch={expect_epoch}"),
                );
                assert_eq!(resp.stats.epoch, expect_epoch);
            }
        };
        solve_all(&svc, 0);

        // Random (valid) delete batch against base coordinates.
        let (_, base) = svc.snapshot();
        let batch: Vec<(String, u32)> = dels
            .iter()
            .filter_map(|&(ai, ti)| {
                let atom = q.atoms()[ai % q.atom_count()].name().to_owned();
                let len = base.expect(&atom).len() as u64;
                (len > 0).then(|| {
                    let idx = (ti % len) as u32;
                    (atom, idx)
                })
            })
            .collect();
        if batch.is_empty() {
            return Ok(());
        }
        let borrowed: Vec<(&str, u32)> = batch.iter().map(|(n, i)| (n.as_str(), *i)).collect();
        let epoch = svc.delete_tuples(&borrowed).unwrap();
        prop_assert_eq!(epoch, 1);
        solve_all(&svc, 1);

        // Restoring the same batch returns to the original contents at
        // a fresh epoch — and must again match direct computation.
        let epoch = svc.restore_tuples(&borrowed).unwrap();
        prop_assert_eq!(epoch, 2);
        solve_all(&svc, 2);
        let (_, restored) = svc.snapshot();
        prop_assert_eq!(restored.total_tuples(), base.total_tuples());
    }
}

/// The differential suite must also cover requests that *carry* the
/// serving-layer conveniences (ρ targets), pinned against the explicit
/// k they resolve to.
#[test]
fn ratio_targets_resolve_like_explicit_k() {
    four_workers();
    let mut db = Database::new();
    db.add_relation("R1", adp::attrs(&["A"]), &[&[1], &[2], &[3]]);
    db.add_relation(
        "R2",
        adp::attrs(&["A", "B"]),
        &[&[1, 1], &[2, 2], &[3, 3], &[1, 2]],
    );
    let svc = Service::with_config(db, ServiceConfig::default());
    let text = "Q(A,B) :- R1(A), R2(A,B)";
    let total = svc
        .solve(&SolveRequest::outputs(text, 1))
        .unwrap()
        .outcome
        .output_count;
    for rho in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let by_ratio = svc.solve(&SolveRequest::ratio(text, rho)).unwrap();
        let k = ((total as f64) * rho).ceil() as u64;
        let by_k = svc.solve(&SolveRequest::outputs(text, k)).unwrap();
        assert_outcomes_identical(&by_ratio.outcome, &by_k.outcome, &format!("rho={rho}"));
    }
}

/// The solver options the epoch-stream suites run every target under:
/// the default dispatch, and the greedy leaf on every query shape.
fn stream_opts() -> [AdpOptions; 2] {
    [
        AdpOptions::default(),
        AdpOptions {
            force_greedy: true,
            ..Default::default()
        },
    ]
}

/// Large targets first: a solve that kills more than a quarter of the
/// witnesses drops its pooled state, so ending each epoch on small
/// targets leaves a state for the next epoch to advance by its batch.
const STREAM_TARGETS: [Target; 4] = [
    Target::Ratio(1.0),
    Target::Ratio(0.5),
    Target::Outputs(3),
    Target::Outputs(1),
];

/// Strategy: the NP-hard path query `R0(A), R1(A,B), R2(B)` over a
/// random dense `R1 ⊆ dom × dom`, large enough that small batches
/// move a pooled state by the difference rather than rebuilding it.
fn arb_path_instance() -> impl Strategy<Value = (Query, Database)> {
    (6u64..10).prop_flat_map(|dom| {
        proptest::collection::btree_set(0..dom * dom, 16..=(dom * dom) as usize).prop_map(
            move |pairs| {
                let q = parse_query("Q(A,B) :- R0(A), R1(A,B), R2(B)").unwrap();
                let ends: Vec<Vec<u64>> = (0..dom).map(|v| vec![v]).collect();
                let r1: Vec<Vec<u64>> = pairs.iter().map(|&p| vec![p / dom, p % dom]).collect();
                let mut db = Database::new();
                for (name, attrs, tuples) in [
                    ("R0", &["A"][..], &ends),
                    ("R1", &["A", "B"][..], &r1),
                    ("R2", &["B"][..], &ends),
                ] {
                    let borrowed: Vec<&[u64]> = tuples.iter().map(Vec::as_slice).collect();
                    db.add_relation(name, adp::attrs(attrs), &borrowed);
                }
                (q, db)
            },
        )
    })
}

/// Strategy: the path instance above (whose epoch plans solve on the
/// anchored base state) or a random query over a small database.
fn arb_stream_instance() -> impl Strategy<Value = (Query, Database)> {
    (0usize..2, arb_path_instance(), arb_query()).prop_flat_map(|(pick, path, random)| {
        let random_db = arb_db(&random, 8, 3);
        (Just(pick), Just(path), Just(random), random_db).prop_map(
            |(pick, path, random, random_db)| {
                if pick == 0 {
                    path
                } else {
                    (random, random_db)
                }
            },
        )
    })
}

/// Strategy: a stream of mutation batches, each `(kind, picks)`. Kinds
/// 0–1 delete the picked tuples; kinds 2–3 restore picks from the
/// tuples deleted so far (so restores of compacted rows happen).
fn arb_stream() -> impl Strategy<Value = Vec<(u8, Vec<u64>)>> {
    proptest::collection::vec(
        (0u8..4, proptest::collection::vec(0u64..1000, 1..=3)),
        1..=12,
    )
}

/// Applies one batch of [`arb_stream`] and mirrors its effect on
/// `deleted` (base `(relation, index)` pairs). Returns the epoch the
/// batch is visible at.
fn apply_stream_batch(
    svc: &Service,
    q: &Query,
    base: &Database,
    deleted: &mut BTreeSet<(String, u32)>,
    (kind, picks): &(u8, Vec<u64>),
) -> u64 {
    let restore = *kind >= 2;
    let batch: Vec<(String, u32)> = if restore {
        let dead: Vec<&(String, u32)> = deleted.iter().collect();
        if dead.is_empty() {
            return svc.epoch();
        }
        picks
            .iter()
            .map(|&p| dead[p as usize % dead.len()].clone())
            .collect()
    } else {
        picks
            .iter()
            .filter_map(|&p| {
                let name = q.atoms()[p as usize % q.atom_count()].name();
                let len = base.expect(name).len() as u64;
                (len > 0).then(|| (name.to_owned(), ((p / 7) % len) as u32))
            })
            .collect()
    };
    let borrowed: Vec<(&str, u32)> = batch.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    let epoch = if restore {
        svc.restore_tuples(&borrowed).unwrap()
    } else {
        svc.delete_tuples(&borrowed).unwrap()
    };
    for entry in batch {
        if restore {
            deleted.remove(&entry);
        } else {
            deleted.insert(entry);
        }
    }
    epoch
}

/// A served response must equal a fresh `PreparedQuery` over the
/// snapshot of the epoch it answered at, with the target resolved the
/// way the service resolves it.
fn assert_matches_fresh_at_epoch(
    q: &Query,
    snapshots: &BTreeMap<u64, Arc<Database>>,
    target: Target,
    opts: &AdpOptions,
    resp: &SolveResponse,
    ctx: &str,
) {
    let snap = &snapshots[&resp.stats.epoch];
    let fresh = PreparedQuery::new(q.clone(), Arc::clone(snap));
    let total = fresh.output_count();
    let k = match target {
        Target::Outputs(k) => k,
        Target::Ratio(rho) => (total as f64 * rho).ceil() as u64,
    }
    .min(total);
    let expected = if k == 0 {
        AdpOutcome {
            cost: 0,
            achieved: 0,
            exact: true,
            truncated: false,
            output_count: total,
            solution: Some(Vec::new()),
        }
    } else {
        fresh
            .solve(k, opts)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"))
    };
    let ctx = format!("{ctx} epoch={} {target:?}", resp.stats.epoch);
    assert_outcomes_identical(&resp.outcome, &expected, &ctx);
}

/// Every target and option set through both front doors — the
/// prepared statement and the query text — at the current epoch.
fn solve_all_targets(
    svc: &Service,
    stmt: &Statement<'_>,
    text: &str,
) -> Vec<(Target, AdpOptions, SolveResponse)> {
    let mut out = Vec::new();
    for opts in stream_opts() {
        for target in STREAM_TARGETS {
            let by_stmt = stmt.solve_with(target, Some(&opts), None).unwrap();
            let req = SolveRequest {
                target,
                ..SolveRequest::outputs(text, 1).with_opts(opts.clone())
            };
            let by_text = svc.solve(&req).unwrap();
            out.push((target, opts.clone(), by_stmt));
            out.push((target, opts.clone(), by_text));
        }
    }
    out
}

fn stream_service(db: Database, compact: usize) -> Service {
    Service::with_config(
        db,
        ServiceConfig {
            segment_target_rows: 4,
            compact_tombstone_pct: [0, 50, 100][compact],
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random delete/restore streams: after every batch, statement and
    /// text-path solves (k and ρ targets, Report mode) equal a fresh
    /// plan over that epoch's snapshot on every outcome field — whether
    /// the epoch's plan answered from the anchored base state or from
    /// its own evaluation, and whether compaction dropped the rows a
    /// restore brings back.
    #[test]
    fn epoch_streams_match_fresh_plans(
        ((q, db), stream, compact) in (arb_stream_instance(), arb_stream(), 0usize..3)
    ) {
        four_workers();
        let svc = stream_service(db, compact);
        let (_, base) = svc.snapshot();
        let text = format!("{q}");
        let stmt = svc.prepare(&text).unwrap();
        let mut snapshots = BTreeMap::from([(0, Arc::clone(&base))]);
        let mut deleted = BTreeSet::new();
        let check = |svc: &Service, snapshots: &BTreeMap<u64, Arc<Database>>| {
            for (target, opts, resp) in solve_all_targets(svc, &stmt, &text) {
                prop_assert_eq!(resp.stats.epoch, svc.epoch());
                assert_matches_fresh_at_epoch(&q, snapshots, target, &opts, &resp, &text);
            }
            Ok(())
        };
        check(&svc, &snapshots)?;
        for batch in &stream {
            let epoch = apply_stream_batch(&svc, &q, &base, &mut deleted, batch);
            snapshots.insert(epoch, svc.snapshot().1);
            check(&svc, &snapshots)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same stream with a reader thread solving while the writer
    /// applies it: every response, at whichever epoch it answered,
    /// equals a fresh plan over that epoch's snapshot.
    #[test]
    fn epoch_streams_match_fresh_plans_under_a_racing_writer(
        ((q, db), stream, compact) in (arb_stream_instance(), arb_stream(), 0usize..3)
    ) {
        four_workers();
        let svc = stream_service(db, compact);
        let (_, base) = svc.snapshot();
        let text = format!("{q}");
        let stmt = svc.prepare(&text).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (snapshots, responses) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut responses = Vec::new();
                loop {
                    let finished = done.load(std::sync::atomic::Ordering::Acquire);
                    responses.extend(solve_all_targets(&svc, &stmt, &text));
                    if finished {
                        return responses;
                    }
                }
            });
            let mut snapshots = BTreeMap::from([(0, Arc::clone(&base))]);
            let mut deleted = BTreeSet::new();
            for batch in &stream {
                let epoch = apply_stream_batch(&svc, &q, &base, &mut deleted, batch);
                snapshots.insert(epoch, svc.snapshot().1);
                // Let the reader land solves on most epochs, not just
                // the first and the last.
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            (snapshots, reader.join().unwrap())
        });
        prop_assert!(!responses.is_empty());
        for (target, opts, resp) in &responses {
            assert_matches_fresh_at_epoch(&q, &snapshots, *target, opts, resp, &text);
        }
    }
}
