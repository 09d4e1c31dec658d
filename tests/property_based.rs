//! Property-based tests (proptest) over randomly generated queries and
//! instances, checking the paper's theorems as executable invariants.

use adp::core::analysis;
use adp::core::solver::brute::brute_force;
use adp::core::solver::CostProfile;
use adp::{
    is_ptime, parse_query, removed_outputs, AdpOptions, AdpOutcome, BruteForceOptions, Database,
    PreparedQuery, Query, SolveError,
};
use std::sync::Arc;

/// A one-shot solve on a private copy of `db`.
fn solve_once(
    q: &Query,
    db: &Database,
    k: u64,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    PreparedQuery::new(q.clone(), Arc::new(db.clone())).solve(k, opts)
}

/// The exhaustive-search answer on a private copy of `db`.
fn brute_once(q: &Query, db: &Database, k: u64, opts: &BruteForceOptions) -> AdpOutcome {
    brute_force(
        &PreparedQuery::new(q.clone(), Arc::new(db.clone())),
        k,
        opts,
    )
    .unwrap()
}
use proptest::prelude::*;

/// Strategy: a random self-join-free query over attributes A..E with
/// 1..=4 atoms of arity 1..=3 and a random head.
fn arb_query() -> impl Strategy<Value = Query> {
    let attr_pool = ["A", "B", "C", "D", "E"];
    proptest::collection::vec(
        proptest::collection::btree_set(0usize..attr_pool.len(), 1..=3),
        1..=4,
    )
    .prop_flat_map(move |atom_sets| {
        // head: random subset of the attributes used
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
        proptest::collection::vec(0..dom, 0..=8),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 2 ≡ Theorem 3: the procedural and structural dichotomies
    /// agree on every query.
    #[test]
    fn dichotomies_always_agree(q in arb_query()) {
        prop_assert_eq!(
            is_ptime(&q),
            !analysis::has_hard_structure(&q),
            "disagreement on {}", q
        );
    }

    /// Hard queries always have a validated hardness certificate; easy
    /// queries never do.
    #[test]
    fn certificates_iff_hard(q in arb_query()) {
        match analysis::hardness_certificate(&q) {
            Some(cert) => {
                prop_assert!(!is_ptime(&q));
                if let Some(m) = cert.mapping() {
                    prop_assert!(analysis::validate_mapping(&cert.subquery, m));
                }
            }
            None => prop_assert!(is_ptime(&q)),
        }
    }

    /// Cost profiles produced by from_pairs are always valid Pareto
    /// frontiers with consistent inverse queries.
    #[test]
    fn profile_invariants(pairs in proptest::collection::vec((0u64..50, 0u64..50), 0..20)) {
        let p = CostProfile::from_pairs(pairs.clone());
        prop_assert!(p.is_valid());
        for m in 0..=p.total_removable() {
            let c = p.min_cost(m).unwrap();
            prop_assert!(p.max_removed(c) >= m);
            if c > 0 {
                prop_assert!(p.max_removed(c - 1) < m);
            }
        }
        prop_assert_eq!(p.min_cost(p.total_removable() + 1), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash-join executor agrees with the nested-loop reference on
    /// witnesses and outputs (up to order), and the semijoin reducer
    /// keeps exactly the participating tuples.
    #[test]
    fn join_matches_reference_and_reducer_is_sound(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 6, 3);
            (Just(q), db)
        })
    ) {
        use adp::engine::{join, naive, semijoin};
        let fast = join::evaluate(&db, q.atoms(), q.head());
        let slow = naive::evaluate_nested_loop(&db, q.atoms(), q.head());
        let norm = |r: &join::EvalResult| {
            let mut o: Vec<Vec<u64>> = r.outputs().map(|x| x.to_vec()).collect();
            o.sort();
            let mut w: Vec<Vec<u32>> = r.witnesses().map(|x| x.to_vec()).collect();
            w.sort();
            (o, w)
        };
        prop_assert_eq!(norm(&fast), norm(&slow), "{}", q);

        // reducer: same query result, and every surviving tuple participates
        let reduced = semijoin::remove_dangling(&db, q.atoms());
        let after = join::evaluate(&reduced.db, q.atoms(), q.head());
        let mut a: Vec<Vec<u64>> = fast.outputs().map(|x| x.to_vec()).collect();
        let mut b: Vec<Vec<u64>> = after.outputs().map(|x| x.to_vec()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "reduction must preserve Q(D) for {}", q);
        let parts = after.participating();
        for (i, atom) in q.atoms().iter().enumerate() {
            prop_assert_eq!(
                parts[i].len(),
                reduced.db.expect(atom.name()).len(),
                "dangling tuple survived reduction in {} of {}", atom.name(), q
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The unified solver is sound (feasible solutions whose size matches
    /// the reported cost) and, on poly-time queries, optimal.
    #[test]
    fn solver_sound_and_exact_on_easy_queries(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 5, 3);
            (Just(q), db)
        })
    ) {
        let probe = match solve_once(&q, &db, 1, &AdpOptions::counting()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // empty result set
        };
        let total = probe.output_count;
        let ks: Vec<u64> = [1, total / 2, total]
            .into_iter()
            .filter(|&k| k >= 1 && k <= total)
            .collect();
        for k in ks {
            let out = solve_once(&q, &db, k, &AdpOptions::default()).unwrap();
            let sol = out.solution.clone().unwrap();
            prop_assert!(sol.len() as u64 <= out.cost);
            prop_assert!(
                removed_outputs(&q, &db, &sol) >= k,
                "{} k={}: solution infeasible", q, k
            );
            if db.total_tuples() <= 14 {
                let opt = brute_once(&q, &db, k, &BruteForceOptions::default()).cost;
                if is_ptime(&q) {
                    prop_assert!(out.exact, "{} k={}", q, k);
                    prop_assert_eq!(out.cost, opt, "{} k={} not optimal", q, k);
                } else {
                    prop_assert!(out.cost >= opt, "{} k={} below optimum", q, k);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan-once/execute-many: evaluating through a cached `QueryPlan` +
    /// `JoinIndexes` under a random sequence of deletion masks must
    /// equal a fresh nested-loop evaluation of the correspondingly
    /// masked database, at every intermediate deletion state — the same
    /// plan and indexes serve all of them.
    #[test]
    fn cached_plan_masked_eval_matches_nested_loop(
        (q, db, kills) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 6, 3);
            let kills = proptest::collection::vec((0usize..8, 0u64..64), 0..=10);
            (Just(q), db, kills)
        })
    ) {
        use adp::engine::naive::evaluate_nested_loop;
        use adp::engine::plan::{AliveMask, QueryPlan};

        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let indexes = plan.build_indexes(&db);
        let mut mask = AliveMask::all_alive(&db, q.atoms());

        // Random kill sequence in (atom, tuple) coordinates, skipping
        // empty relations.
        let steps: Vec<(usize, u32)> = kills
            .into_iter()
            .filter_map(|(a, i)| {
                let atom = a % q.atom_count();
                let len = db.expect(q.atoms()[atom].name()).len() as u64;
                if len == 0 {
                    None
                } else {
                    Some((atom, (i % len) as u32))
                }
            })
            .collect();

        for state in 0..=steps.len() {
            if state > 0 {
                let (atom, idx) = steps[state - 1];
                mask.kill(atom, idx);
            }
            let masked = plan.execute_masked(&db, &indexes, &mask);

            // Reference: materialize the masked database, evaluate by
            // nested loops, then map tuple indices back to original
            // coordinates through the filter backmaps.
            let mut masked_db = adp::Database::new();
            let mut backs: Vec<Vec<u32>> = Vec::new();
            for (ai, atom) in q.atoms().iter().enumerate() {
                let rel = db.expect(atom.name());
                let (kept, back) = rel.filter_by_index(|idx| mask.is_alive(ai, idx));
                backs.push(back);
                masked_db.add(kept);
            }
            let reference = evaluate_nested_loop(&masked_db, q.atoms(), q.head());

            let mut outs_a: Vec<Vec<u64>> =
                masked.outputs().map(|o| o.to_vec()).collect();
            let mut outs_b: Vec<Vec<u64>> =
                reference.outputs().map(|o| o.to_vec()).collect();
            outs_a.sort();
            outs_b.sort();
            prop_assert_eq!(outs_a, outs_b, "{} after {} kills", q, state);

            let mut wits_a: Vec<Vec<u32>> =
                masked.witnesses().map(|w| w.to_vec()).collect();
            let mut wits_b: Vec<Vec<u32>> = reference
                .witnesses()
                .map(|w| {
                    w.iter()
                        .enumerate()
                        .map(|(ai, &t)| backs[ai][t as usize])
                        .collect()
                })
                .collect();
            wits_a.sort();
            wits_b.sort();
            prop_assert_eq!(wits_a, wits_b, "{} after {} kills", q, state);
        }
    }
}
