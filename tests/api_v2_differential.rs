//! Differential tests for the v2 API.
//!
//! The v2 surface — [`QueryBuilder`], the fluent [`Solve`] builder, and
//! the service [`Statement`] handles — is pinned to the library's
//! direct entry points:
//!
//! * `Solve::{new, shared, prepared}(..).k(k).run()` and
//!   `Solve..resilience()` ≡ `PreparedQuery::solve` at `k` and at
//!   `|Q(D)|` (including typed errors) — the solve the removed
//!   `compute_adp` and `compute_resilience` ran;
//! * `Solve..brute_force()` ≡ `brute::brute_force` on every outcome
//!   field;
//! * `Solve..policy(p)` keeps the policy's promises: an empty policy is
//!   no policy, frozen atoms never appear in the deletion set, the set
//!   removes exactly `achieved ≥ k` outputs at cost `|set|`, and a
//!   boolean poly-time query stays exact;
//! * `Statement::solve(target)` ≡ `Service::solve(&SolveRequest)` on
//!   the same snapshot — cold, hot, across epoch bumps, and under
//!   cache-eviction pressure;
//! * `parse_query(&q.to_text()) == q` for every builder-built query.

use adp::core::solver::brute::{brute_force, BruteForceOptions};
use adp::service::{Service, ServiceConfig, SolveRequest};
use adp::{
    is_ptime, parse_query, removed_outputs, AdpOptions, AdpOutcome, Database, DeletionPolicy,
    PreparedQuery, Query, Solve, SolveError, Target,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random self-join-free query over attributes A..E with
/// 1..=4 atoms of arity 1..=3 and a random head (text route, shared
/// with the service differential suite).
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

fn feasible_ks(q: &Query, db: &Database) -> Vec<u64> {
    let total = adp::PreparedQuery::new(q.clone(), Arc::new(db.clone())).output_count();
    let mut ks: Vec<u64> = [1, total / 2, total]
        .into_iter()
        .filter(|&k| k >= 1 && k <= total)
        .collect();
    ks.dedup();
    ks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fluent `Solve` (borrowed, shared and prepared) ≡
    /// `PreparedQuery::solve` — the one-shot solve the removed
    /// `compute_adp` ran — on random `(Q, D, k, opts)`, including
    /// counting mode and the forced-greedy benchmark hook.
    #[test]
    fn fluent_solve_matches_legacy_compute_adp(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 8, 3);
            (Just(q), db)
        })
    ) {
        let option_sets = [
            AdpOptions::default(),
            AdpOptions::counting(),
            AdpOptions { force_greedy: true, ..Default::default() },
        ];
        let shared = Arc::new(db.clone());
        let prep = PreparedQuery::new(q.clone(), Arc::clone(&shared));
        let total = prep.output_count();
        for opts in &option_sets {
            for k in feasible_ks(&q, &db) {
                let direct = PreparedQuery::new(q.clone(), Arc::clone(&shared))
                    .solve(k, opts)
                    .unwrap_or_else(|e| panic!("{q} k={k}: {e}"));
                let borrowed = Solve::new(&q, &db).k(k).opts(opts.clone()).run()
                    .unwrap_or_else(|e| panic!("{q} k={k}: {e}"));
                assert_outcomes_identical(&borrowed.outcome, &direct, &format!("{q} k={k}"));
                let arc = Solve::shared(&q, Arc::clone(&shared)).k(k).opts(opts.clone()).run()
                    .unwrap();
                assert_outcomes_identical(&arc.outcome, &direct, &format!("{q} k={k} (arc)"));
                let reused = Solve::prepared(&prep).k(k).opts(opts.clone()).run().unwrap();
                assert_outcomes_identical(&reused.outcome, &direct, &format!("{q} k={k} (prep)"));
            }
        }
        // Error cases are typed identically.
        prop_assert!(matches!(Solve::new(&q, &db).k(0).run(), Err(SolveError::KZero)));
        if total > 0 {
            let too_many = Solve::new(&q, &db).k(total + 1).run().map(|r| r.outcome);
            prop_assert_eq!(too_many, prep.solve(total + 1, &AdpOptions::default()));
            prop_assert!(matches!(
                Solve::new(&q, &db).k(total + 1).run(),
                Err(SolveError::KTooLarge { .. })
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fluent `Solve..policy` keeps the policy's promises on random
    /// `(Q, D, frozen set, k)`: an empty policy is byte-identical to no
    /// policy; frozen atoms never appear in the deletion set; the set
    /// costs `|set|` and removes exactly `achieved ≥ k` outputs; a
    /// boolean poly-time query stays exact. All-frozen and otherwise
    /// unreachable targets fail with the typed `Infeasible` error.
    #[test]
    fn fluent_policy_keeps_its_promises(
        (q, db, frozen_mask) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 6, 3);
            let n = q.atom_count();
            let mask = proptest::collection::vec(0u64..2, n..=n);
            (Just(q), db, mask)
        })
    ) {
        let mut policy = DeletionPolicy::unrestricted();
        for (atom, freeze) in q.atoms().iter().zip(&frozen_mask) {
            if *freeze == 1 {
                policy = policy.freeze(atom.name());
            }
        }
        let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
        for k in feasible_ks(&q, &db) {
            let unrestricted = Solve::new(&q, &db).k(k).policy(DeletionPolicy::unrestricted()).run()
                .unwrap();
            let plain = prep.solve(k, &AdpOptions::default()).unwrap();
            assert_outcomes_identical(&unrestricted.outcome, &plain, &format!("{q} k={k} (empty)"));

            if policy.frozen().is_empty() {
                continue;
            }
            let out = match Solve::new(&q, &db).k(k).policy(policy.clone()).run() {
                Ok(r) => r.outcome,
                Err(SolveError::Infeasible { .. }) => continue,
                Err(e) => panic!("{q} k={k}: {e}"),
            };
            let sol = out.solution.clone().unwrap();
            for t in &sol {
                prop_assert!(
                    !policy.is_frozen(q.atoms()[t.atom].name()),
                    "{} k={}: frozen tuple {:?} deleted", q, k, t
                );
            }
            prop_assert_eq!(out.cost, sol.len() as u64, "{} k={}", q, k);
            prop_assert!(out.achieved >= k, "{} k={}", q, k);
            prop_assert_eq!(removed_outputs(&q, &db, &sol), out.achieved, "{} k={}", q, k);
            if q.is_boolean() && is_ptime(&q) {
                prop_assert!(out.exact, "{} k={}: boolean min-cut must stay exact", q, k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Solve..resilience()` ≡ `PreparedQuery::solve` at `|Q(D)|` (the
    /// empty set on an empty result), and `Solve..brute_force()` ≡
    /// `brute::brute_force` on every outcome field (and in the typed
    /// error), on the borrowed and the prepared door.
    #[test]
    fn fluent_resilience_and_brute_match_legacy(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 4, 2);
            (Just(q), db)
        })
    ) {
        let opts = AdpOptions::default();
        let total = PreparedQuery::new(q.clone(), Arc::new(db.clone())).output_count();
        let resilience = Solve::new(&q, &db).resilience().run().unwrap();
        let direct = PreparedQuery::new(q.clone(), Arc::new(db.clone()))
            .solve(total.max(1), &opts)
            .unwrap();
        assert_outcomes_identical(&resilience.outcome, &direct, &format!("{q} resilience"));
        if total == 0 {
            prop_assert_eq!(resilience.outcome.cost, 0);
            prop_assert_eq!(resilience.explain.solver, "trivial");
        }
        // Brute force on the smallest feasible k only (exponential).
        if let Some(&k) = feasible_ks(&q, &db).first() {
            let bf_opts = BruteForceOptions { max_subsets: 200_000, ..Default::default() };
            let prep = PreparedQuery::new(q.clone(), Arc::new(db.clone()));
            let search = brute_force(&prep, k, &bf_opts);
            for report in [
                Solve::new(&q, &db).k(k).brute_force_opts(bf_opts).run(),
                Solve::prepared(&prep).k(k).brute_force_opts(bf_opts).run(),
            ] {
                match (&search, report) {
                    (Ok(a), Ok(b)) => {
                        assert_outcomes_identical(&b.outcome, a, &format!("{q} k={k}"));
                        prop_assert_eq!(b.explain.solver, "brute-force");
                    }
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea, &eb),
                    (a, b) => panic!("{q} k={k}: search={a:?} but fluent={b:?}"),
                }
            }
        }
    }
}

/// Strategy: a random builder-constructed query (names exercised with
/// underscores and digits), for the `to_text` round-trip law.
fn arb_built_query() -> impl Strategy<Value = Query> {
    let rel_names = ["R0", "Rel_1", "r2x", "_R3", "R_4"];
    let attr_pool = ["A", "B_1", "c2", "_D", "E"];
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
        let mut b = Query::builder("Query_1");
        let head: Vec<&str> = head_pick.iter().map(|&i| attr_pool[used[i]]).collect();
        b = b.head(head);
        for (i, s) in atom_sets.iter().enumerate() {
            let attrs: Vec<&str> = s.iter().map(|&a| attr_pool[a]).collect();
            b = b.atom(rel_names[i], attrs);
        }
        b.build().expect("generated builder query is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder round-trip law: `parse_query(&q.to_text()) == q` for
    /// every builder-built query, and the normalized cache key agrees.
    #[test]
    fn builder_to_text_round_trips(q in arb_built_query()) {
        let reparsed = parse_query(&q.to_text())
            .unwrap_or_else(|e| panic!("{:?} did not re-parse: {e}", q.to_text()));
        prop_assert_eq!(&reparsed, &q, "round-trip changed the query");
        prop_assert_eq!(reparsed.normalized_text(), q.normalized_text());
        prop_assert_eq!(reparsed.fingerprint(), q.fingerprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Statement::solve` ≡ `Service::solve` on the same snapshot:
    /// cold and hot, across epoch bumps (delete + restore), and with a
    /// 1-record registry under eviction churn from two other queries.
    /// Those evict each other; the statement's record, which it holds,
    /// is never evicted. The statement handle must never diverge from
    /// the text front door.
    #[test]
    fn statement_matches_text_path_across_epochs_and_evictions(
        (q, db, dels) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 8, 3);
            let dels = proptest::collection::vec((0usize..4, 0u64..64), 1..=5);
            (Just(q), db, dels)
        })
    ) {
        // A deliberately tiny registry so the churn queries evict each
        // other between solves.
        let svc = Service::with_config(
            db.clone(),
            ServiceConfig {
                cache_entries: 1,
                ..Default::default()
            },
        );
        let text = format!("{q}");
        let stmt = svc.prepare(&text).unwrap();
        // The churn queries: always valid, and a full and a boolean
        // plan over the same atom.
        let head = q.atoms()[0].attrs().iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let churns = [
            format!("Churn({}) :- {}", head.join(","), q.atoms()[0]),
            format!("Churn() :- {}", q.atoms()[0]),
        ];
        let distinct = {
            let keys: std::collections::BTreeSet<String> = [&text, &churns[0], &churns[1]]
                .iter()
                .map(|t| parse_query(t).unwrap().normalized_text())
                .collect();
            keys.len() == 3
        };

        let check_epoch = |expect_epoch: u64| {
            let (epoch, snap) = svc.snapshot();
            assert_eq!(epoch, expect_epoch);
            let total = adp::PreparedQuery::new(q.clone(), Arc::clone(&snap)).output_count();
            for (i, k) in [0, 1, total / 2, total, total + 3].into_iter().enumerate() {
                // Evict the other churn query's record first.
                svc.solve(&SolveRequest::outputs(churns[i % 2].clone(), 0)).unwrap();
                let a = stmt.solve(Target::Outputs(k)).unwrap();
                let b = svc.solve(&SolveRequest::outputs(text.clone(), k)).unwrap();
                assert_outcomes_identical(
                    &a.outcome,
                    &b.outcome,
                    &format!("{q} k={k} epoch={expect_epoch}"),
                );
                assert_eq!(a.stats.epoch, expect_epoch, "{q} k={k}");
                assert_eq!(a.stats.epoch, b.stats.epoch, "{q} k={k}");
                assert_eq!(a.stats.solver, b.stats.solver, "{q} k={k}");
            }
        };
        check_epoch(0);

        // Random (valid) delete batch against base coordinates.
        let (_, base) = svc.snapshot();
        let batch: Vec<(String, u32)> = dels
            .iter()
            .filter_map(|&(ai, ti)| {
                let atom = q.atoms()[ai % q.atom_count()].name().to_owned();
                let len = base.expect(&atom).len() as u64;
                (len > 0).then(|| ((ti % len) as u32, atom)).map(|(i, a)| (a, i))
            })
            .collect();
        if batch.is_empty() {
            return Ok(());
        }
        let borrowed: Vec<(&str, u32)> = batch.iter().map(|(n, i)| (n.as_str(), *i)).collect();
        svc.delete_tuples(&borrowed).unwrap();
        check_epoch(1);
        svc.restore_tuples(&borrowed).unwrap();
        check_epoch(2);

        // Accounting invariant must hold on the mixed workload.
        let s = svc.stats();
        prop_assert_eq!(s.cache_hits + s.cache_misses, s.requests);
        prop_assert!(!distinct || s.evicted > 0, "the churn queries evicted each other");
    }
}

/// Concurrent statement use: many threads hammer one `Statement` while
/// a mutator bumps epochs; every response must match a direct solve on
/// its answering epoch's snapshot (no stale answers, no torn bindings).
#[test]
fn concurrent_statement_solves_are_consistent() {
    let mut db = Database::new();
    db.add_relation("R1", adp::attrs(&["A"]), &[&[1], &[2], &[3]]);
    db.add_relation(
        "R2",
        adp::attrs(&["A", "B"]),
        &[&[1, 1], &[1, 2], &[2, 1], &[3, 3]],
    );
    db.add_relation("R3", adp::attrs(&["B"]), &[&[1], &[2], &[3]]);
    let svc = Service::new(db);
    let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
    let stmt = svc.prepare("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();

    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                for i in 0..40u64 {
                    let resp = stmt.solve(Target::Outputs(1 + i % 2)).unwrap();
                    // An answer at epoch e must equal a direct solve on
                    // some snapshot of epoch e; re-derive it.
                    let (cur_epoch, snap) = svc.snapshot();
                    if resp.stats.epoch == cur_epoch {
                        let k = (1 + i % 2).min(resp.outcome.output_count);
                        let direct = Solve::shared(&q, snap).k(k.max(1)).run();
                        if k >= 1 {
                            let direct = direct.unwrap();
                            assert_eq!(resp.outcome.cost, direct.outcome.cost);
                            assert_eq!(resp.outcome.solution, direct.outcome.solution);
                        }
                    }
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..10 {
                svc.delete_tuples(&[("R2", 0)]).unwrap();
                svc.restore_tuples(&[("R2", 0)]).unwrap();
            }
        });
    });
    let s = svc.stats();
    assert_eq!(s.cache_hits + s.cache_misses, s.requests);
    assert_eq!(s.epoch_bumps, 20);
}
