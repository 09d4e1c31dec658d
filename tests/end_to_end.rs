//! End-to-end integration tests spanning all crates: paper examples,
//! every solver path, and cross-checks between the facade APIs.

use adp::core::analysis;
use adp::core::solver::brute::brute_force;
use adp::engine::schema::attr;
use adp::{
    attrs, is_ptime, parse_query, removed_outputs, solve_selection, AdpOptions, AdpOutcome,
    BruteForceOptions, Database, DeletionPolicy, Mode, PreparedQuery, Query, SelectionQuery, Solve,
    SolveError,
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

fn figure1_db() -> Database {
    let mut db = Database::new();
    db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
    db.add_relation(
        "R2",
        attrs(&["B", "C"]),
        &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
    );
    db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
    db
}

#[test]
fn figure1_q1_and_q2_output_counts() {
    let db = figure1_db();
    let q1 = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
    let q2 = parse_query("Q2(A,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
    assert_eq!(
        solve_once(&q1, &db, 1, &AdpOptions::default())
            .unwrap()
            .output_count,
        4
    );
    assert_eq!(
        solve_once(&q2, &db, 1, &AdpOptions::default())
            .unwrap()
            .output_count,
        3
    );
}

#[test]
fn example1_waitlist_pipeline() {
    // The paper's Example 1 query with a hand-built instance; solutions
    // must be feasible and within the brute-force optimum factor.
    let q = parse_query("QWL(S,C) :- Major(S,M), Req(M,C), NoSeat(C)").unwrap();
    let mut db = Database::new();
    db.add_relation("Major", attrs(&["S", "M"]), &[&[1, 1], &[2, 1], &[3, 2]]);
    db.add_relation("Req", attrs(&["M", "C"]), &[&[1, 10], &[1, 11], &[2, 10]]);
    db.add_relation("NoSeat", attrs(&["C"]), &[&[10], &[11]]);
    let probe = solve_once(&q, &db, 1, &AdpOptions::default()).unwrap();
    for k in 1..=probe.output_count {
        let out = solve_once(&q, &db, k, &AdpOptions::default()).unwrap();
        let sol = out.solution.unwrap();
        assert!(removed_outputs(&q, &db, &sol) >= k);
        let opt = brute_once(&q, &db, k, &BruteForceOptions::default()).cost;
        assert!(out.cost >= opt);
        assert!(out.cost <= opt * 3, "heuristic within small factor here");
    }
}

#[test]
fn dichotomies_agree_on_generated_queries() {
    // Cross-validate Theorem 2 vs Theorem 3 over a systematic family.
    let templates = [
        "Q({h}) :- R1(A,B), R2(B,C), R3(C,E)",
        "Q({h}) :- R1(A), R2(A,B), R3(B)",
        "Q({h}) :- R1(A,B), R2(B,C), R3(C,A)",
        "Q({h}) :- R1(A,B,C), R2(A), R3(B), R4(C)",
        "Q({h}) :- R1(A,E), R2(B,E), R3(C,E)",
    ];
    let heads = ["", "A", "B", "A,B", "A,B,C", "A,C", "B,C", "A,B,C,E"];
    for t in templates {
        for h in heads {
            let text = t.replace("{h}", h);
            let Ok(q) = parse_query(&text) else { continue };
            assert_eq!(
                is_ptime(&q),
                !analysis::has_hard_structure(&q),
                "dichotomies disagree on {text}"
            );
            // hard queries must produce validated certificates
            if !is_ptime(&q) {
                let cert = analysis::hardness_certificate(&q)
                    .unwrap_or_else(|| panic!("no certificate for {text}"));
                if let Some(m) = cert.mapping() {
                    assert!(
                        analysis::validate_mapping(&cert.subquery, m),
                        "invalid mapping for {text}"
                    );
                }
            }
        }
    }
}

#[test]
fn selection_vs_manual_filtering() {
    // Lemma 12: solving σ PK=c Q1 equals solving the residual query on
    // the manually filtered database.
    let q = parse_query("Q1(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
    let cfg = adp::datagen::tpch::TpchConfig {
        hot_part_share: 0.3,
        ..adp::datagen::tpch::TpchConfig::scaled(150, 17)
    };
    let db = adp::datagen::tpch_chain(&cfg);
    let sq = SelectionQuery::new(q.clone(), vec![(attr("PK"), 0)]).unwrap();
    let probe = solve_selection(&sq, &db, 1, &AdpOptions::counting()).unwrap();
    assert!(probe.output_count > 0, "hot part produces outputs");
    assert!(sq.is_ptime());

    // manual filtering + residual query
    let residual = parse_query("Q1r(NK,SK,OK) :- S(NK,SK), PS(SK), L(OK)").unwrap();
    let mut fdb = Database::new();
    fdb.add_relation("S", attrs(&["NK", "SK"]), &[]);
    fdb.add_relation("PS", attrs(&["SK"]), &[]);
    fdb.add_relation("L", attrs(&["OK"]), &[]);
    for t in db.expect("S").iter() {
        fdb.insert("S", &t.to_vec());
    }
    for t in db.expect("PS").iter() {
        if t[1] == 0 {
            fdb.insert("PS", &[t[0]]);
        }
    }
    for t in db.expect("L").iter() {
        if t[1] == 0 {
            fdb.insert("L", &[t[0]]);
        }
    }
    for ratio in [0.1, 0.5, 0.9] {
        let k = ((probe.output_count as f64 * ratio) as u64).max(1);
        let a = solve_selection(&sq, &db, k, &AdpOptions::counting()).unwrap();
        let b = solve_once(&residual, &fdb, k, &AdpOptions::counting()).unwrap();
        assert_eq!(a.cost, b.cost, "k={k}");
        assert!(a.exact && b.exact);
    }
}

#[test]
fn counting_equals_reporting_cost() {
    let q = adp::datagen::queries::q6();
    let db = adp::datagen::zipf_pair(&adp::datagen::zipf::ZipfConfig::new(400, 1.0, 5, false));
    let probe = solve_once(&q, &db, 1, &AdpOptions::counting()).unwrap();
    for ratio in [0.1, 0.25, 0.5, 0.75] {
        let k = ((probe.output_count as f64 * ratio) as u64).max(1);
        let count = solve_once(&q, &db, k, &AdpOptions::counting()).unwrap();
        let report = solve_once(
            &q,
            &db,
            k,
            &AdpOptions {
                mode: Mode::Report,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(count.cost, report.cost);
        let sol = report.solution.unwrap();
        assert_eq!(sol.len() as u64, report.cost);
        assert!(removed_outputs(&q, &db, &sol) >= k);
    }
}

#[test]
fn snap_queries_heuristics_are_feasible() {
    use adp::datagen::ego::{ego_database_for, ego_network, EgoConfig};
    let (_, edges) = ego_network(&EgoConfig {
        nodes: 24,
        circles: 3,
        edges: 60,
        intra_share: 0.8,
        seed: 21,
    });
    for q in [
        adp::datagen::queries::q2(),
        adp::datagen::queries::q3(),
        adp::datagen::queries::q4(),
        adp::datagen::queries::q5(),
    ] {
        let db = ego_database_for(&edges, q.atoms());
        let probe = match solve_once(&q, &db, 1, &AdpOptions::default()) {
            Ok(p) => p,
            Err(adp::SolveError::KTooLarge { .. }) => continue, // empty result
            Err(e) => panic!("{q}: {e}"),
        };
        for ratio in [0.25, 0.75] {
            let k = ((probe.output_count as f64 * ratio) as u64).max(1);
            let out = solve_once(&q, &db, k, &AdpOptions::default()).unwrap();
            let sol = out.solution.unwrap();
            assert!(removed_outputs(&q, &db, &sol) >= k, "{q} k={k}: infeasible");
        }
    }
}

#[test]
fn q7_and_q8_optimization_paths_agree() {
    use adp::core::solver::{DecomposeStrategy, UniverseStrategy};
    let q7 = adp::datagen::queries::q7();
    let db7 = adp::datagen::uniform::uniform_db_for_query(&q7, &[20, 40, 40, 30], 3, 23);
    let probe = solve_once(&q7, &db7, 1, &AdpOptions::default()).unwrap();
    let total = probe.output_count;
    for ratio in [0.5, 0.75] {
        let k = ((total as f64 * ratio) as u64).max(1);
        let singleton = solve_once(&q7, &db7, k, &AdpOptions::default()).unwrap();
        let combined = solve_once(
            &q7,
            &db7,
            k,
            &AdpOptions {
                skip_singleton: true,
                universe: UniverseStrategy::Combined,
                ..Default::default()
            },
        )
        .unwrap();
        let one_by_one = solve_once(
            &q7,
            &db7,
            k,
            &AdpOptions {
                skip_singleton: true,
                universe: UniverseStrategy::OneByOne,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(singleton.cost, combined.cost, "k={k}");
        assert_eq!(singleton.cost, one_by_one.cost, "k={k}");
        assert!(singleton.exact && combined.exact && one_by_one.exact);
    }

    let q8 = adp::datagen::queries::q8();
    let db8 = adp::datagen::uniform::uniform_db_for_query(&q8, &[10, 20, 10, 20, 10, 20], 40, 29);
    let probe = solve_once(&q8, &db8, 1, &AdpOptions::default()).unwrap();
    let k = (probe.output_count / 10).max(1);
    let mut costs = Vec::new();
    for strat in [
        DecomposeStrategy::Auto,
        DecomposeStrategy::NaiveFull,
        DecomposeStrategy::NaivePairs,
        DecomposeStrategy::ImprovedDp,
    ] {
        let out = solve_once(
            &q8,
            &db8,
            k,
            &AdpOptions {
                decompose: strat,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.exact);
        costs.push(out.cost);
    }
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
}

#[test]
fn boolean_resilience_matches_brute_force_on_random_data() {
    let queries = [
        "Q() :- R1(A), R2(A,B), R3(B)",
        "Q() :- R1(A,B), R2(B,C), R3(C,E)",
        "Q() :- R1(A,B), R2(B,C), R3(B,D)",
        "Q() :- R1(A), R2(A)",
    ];
    let mut seed = 7u64;
    for text in queries {
        let q = parse_query(text).unwrap();
        for n in [3usize, 5] {
            let sizes = vec![n; q.atom_count()];
            seed = seed.wrapping_add(1);
            let db = adp::datagen::uniform::uniform_db_for_query(&q, &sizes, 3, seed);
            let out = match solve_once(&q, &db, 1, &AdpOptions::default()) {
                Ok(o) => o,
                Err(adp::SolveError::KTooLarge { .. }) => continue,
                Err(e) => panic!("{text}: {e}"),
            };
            let opt = brute_once(&q, &db, 1, &BruteForceOptions::default()).cost;
            assert_eq!(out.cost, opt, "{text} n={n}");
            assert!(out.exact, "{text} is triad-free");
        }
    }
}

/// Regression: the policy and selection doors report the removal at
/// the chosen profile point, not the target. At `k = 1` their one-tuple
/// sets remove 2 outputs, and `achieved` must say 2.
#[test]
fn achieved_is_what_the_set_removes_on_policy_and_selection_doors() {
    let mut db = Database::new();
    db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
    db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
    db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);

    // Policy door: freeze R3 on Q_path, k = 1.
    let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
    let policy = DeletionPolicy::unrestricted().freeze("R3");
    let out = Solve::new(&q, &db)
        .k(1)
        .policy(policy)
        .run()
        .unwrap()
        .outcome;
    let sol = out.solution.clone().unwrap();
    assert_eq!(sol.len(), 1);
    assert_eq!(removed_outputs(&q, &db, &sol), 2);
    assert_eq!(out.achieved, 2, "policy door");

    // Selection door: σ C=7, with every S tuple selected so that
    // `removed_outputs` counts selected outputs only.
    db.add_relation("S", attrs(&["C", "A"]), &[&[7, 1], &[7, 2]]);
    let q = parse_query("Q(A,B,C) :- R1(A), R2(A,B), R3(B), S(C,A)").unwrap();
    let sq = SelectionQuery::new(q.clone(), vec![(attr("C"), 7)]).unwrap();
    let out = solve_selection(&sq, &db, 1, &AdpOptions::default()).unwrap();
    let sol = out.solution.clone().unwrap();
    assert_eq!(sol.len(), 1);
    assert_eq!(removed_outputs(&q, &db, &sol), 2);
    assert_eq!(out.achieved, 2, "selection door");
}
