//! Differential determinism tests for the `adp-runtime` subsystem.
//!
//! Determinism is a **hard requirement**, not best-effort: for random
//! `(Q, D, k)`, every parallel path — brute-force subset search, greedy
//! candidate scoring, and whole ρ-sweeps — must return results
//! **byte-identical** (cost, deletion set, outputs removed) to the
//! sequential path. These tests pin the global pool to 4 workers (so
//! the parallel code paths run even on a single-core CI box) and
//! compare against `sequential: true` runs of the same instances.

use adp::core::solver::brute::brute_force;
use adp::core::solver::{AdpOptions, AdpOutcome, Mode, PreparedQuery};
use adp::datagen::zipf::ZipfConfig;
use adp::{parallel_sweep, parse_query, BruteForceOptions, Database, Query, SolveError};
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

/// Pins the global pool to 4 workers. Every test calls this first, so
/// the pool is always multi-worker regardless of the machine.
fn four_workers() {
    adp::runtime::configure_global(4).expect("pool already built with a different size");
    assert_eq!(adp::runtime::global().threads(), 4);
}

/// Deterministic LCG-filled database: values in `[0, dom)`.
fn random_db(q: &Query, rows_per_atom: usize, dom: u64, seed: &mut u64) -> Database {
    let mut next = move || {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) % dom
    };
    let mut db = Database::new();
    for atom in q.atoms() {
        let mut inst = adp::engine::relation::RelationInstance::new(atom.clone());
        for _ in 0..rows_per_atom {
            let t: Vec<u64> = (0..atom.arity()).map(|_| next()).collect();
            inst.insert(&t);
        }
        db.add(inst);
    }
    db
}

fn assert_identical(a: &AdpOutcome, b: &AdpOutcome, ctx: &str) {
    assert_eq!(a.cost, b.cost, "{ctx}: cost differs");
    assert_eq!(a.achieved, b.achieved, "{ctx}: outputs removed differ");
    assert_eq!(a.exact, b.exact, "{ctx}: exactness differs");
    assert_eq!(a.output_count, b.output_count, "{ctx}: |Q(D)| differs");
    assert_eq!(a.solution, b.solution, "{ctx}: deletion set differs");
}

/// Brute force: the parallel first-element partitioning must return the
/// same (cost, deletion set) as the sequential lexicographic scan, on
/// instances small enough to stay sequential *and* large enough to fan
/// out (`PAR_MIN_SUBSETS` crossed at sizes ≥ 2).
#[test]
fn brute_force_parallel_is_byte_identical() {
    four_workers();
    let catalogue = [
        ("Q(A,B) :- R1(A), R2(A,B), R3(B)", 8usize, 4u64),
        ("Q(A) :- R2(A,B), R3(B)", 12, 3),
        ("Q(A,B) :- R1(A,B), R2(A,B)", 10, 3),
        ("Q() :- R1(A), R2(A,B), R3(B)", 9, 3),
    ];
    let mut seed = 0xD1FF_u64;
    for (text, rows, dom) in catalogue {
        let q = parse_query(text).unwrap();
        for trial in 0..3 {
            let db = random_db(&q, rows + trial, dom, &mut seed);
            let seq_opts = BruteForceOptions {
                sequential: true,
                ..Default::default()
            };
            let par_opts = BruteForceOptions::default();
            let total = PreparedQuery::new(q.clone(), Arc::new(db.clone())).output_count();
            if total == 0 {
                continue; // empty result set
            }
            // Push into subset sizes ≥ 2..3 so the parallel stage engages.
            for k in [1, total / 2, (total * 3) / 4, total] {
                if k == 0 {
                    continue;
                }
                let seq = brute_once(&q, &db, k, &seq_opts);
                let par = brute_once(&q, &db, k, &par_opts);
                assert_eq!(seq.cost, par.cost, "{text} k={k}: cost differs");
                assert_eq!(
                    seq.solution, par.solution,
                    "{text} k={k}: deletion set differs"
                );
                assert_eq!(seq, par, "{text} k={k}: outcome differs");
            }
        }
    }
}

/// The full solver (greedy leaves included) under the 4-worker pool vs
/// `sequential: true`, across random easy and hard queries and a range
/// of k.
#[test]
fn solver_parallel_is_byte_identical_on_random_instances() {
    four_workers();
    let catalogue = [
        "Q(A,B) :- R1(A), R2(A,B)",                        // singleton
        "Q(A,B) :- R1(A), R2(B)",                          // decompose
        "Q() :- R1(A), R2(A,B), R3(B)",                    // boolean min-cut
        "Q(A,B) :- R1(A), R2(A,B), R3(B)",                 // NP-hard: greedy leaf
        "Q(A) :- R2(A,B), R3(B)",                          // NP-hard with projection
        "Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)", // hard chain
    ];
    let mut seed = 77u64;
    for text in catalogue {
        let q = parse_query(text).unwrap();
        for trial in 0..3 {
            let db = random_db(&q, 4 + trial, 3, &mut seed);
            let par_opts = AdpOptions::default();
            let seq_opts = AdpOptions {
                sequential: true,
                ..Default::default()
            };
            let total = match solve_once(&q, &db, 1, &AdpOptions::counting()) {
                Ok(p) => p.output_count,
                Err(_) => continue, // empty result set
            };
            for k in 1..=total.min(6) {
                let par = solve_once(&q, &db, k, &par_opts).unwrap();
                let seq = solve_once(&q, &db, k, &seq_opts).unwrap();
                assert_identical(&par, &seq, &format!("{text} k={k}"));
            }
        }
    }
}

/// Greedy candidate scoring above the fan-out threshold: a hard-query
/// workload large enough that every round's profit scan actually runs
/// in parallel, solved for every paper ratio.
#[test]
fn greedy_parallel_scoring_is_byte_identical_at_scale() {
    four_workers();
    let q = adp::datagen::queries::qpath();
    let db = Arc::new(adp::datagen::zipf_pair(&ZipfConfig::new(
        2_000, 0.5, 0xBEEF, true,
    )));
    let prep = PreparedQuery::new(q, Arc::clone(&db));
    let total = prep.output_count();
    assert!(total > 1_000, "workload must cross the scoring threshold");
    for rho in [0.10, 0.25, 0.50, 0.75] {
        let k = ((total as f64 * rho).ceil() as u64).clamp(1, total);
        for drastic in [false, true] {
            let base = AdpOptions {
                force_greedy: true,
                use_drastic: drastic,
                mode: Mode::Report,
                ..Default::default()
            };
            let par = prep.solve(k, &base).unwrap();
            let seq = prep
                .solve(
                    k,
                    &AdpOptions {
                        sequential: true,
                        ..base
                    },
                )
                .unwrap();
            assert_identical(&par, &seq, &format!("qpath rho={rho} drastic={drastic}"));
        }
    }
}

/// Whole ρ-sweeps fanned out with [`parallel_sweep`] over (k, variant,
/// trial) cells: same cells, same order, same bytes as the sequential
/// loop.
#[test]
fn parallel_sweep_is_byte_identical_to_sequential_loop() {
    four_workers();
    let q = adp::datagen::queries::qpath();
    let preps: Vec<PreparedQuery> = [1u64, 2]
        .into_iter()
        .map(|trial_seed| {
            let db = Arc::new(adp::datagen::zipf_pair(&ZipfConfig::new(
                800, 0.5, trial_seed, true,
            )));
            PreparedQuery::new(q.clone(), db)
        })
        .collect();
    // (trial, ρ, drastic) cells.
    let mut cells = Vec::new();
    for (t, prep) in preps.iter().enumerate() {
        let total = prep.output_count();
        for rho in [0.10, 0.50, 0.75] {
            let k = ((total as f64 * rho).ceil() as u64).clamp(1, total);
            for drastic in [false, true] {
                cells.push((t, k, drastic));
            }
        }
    }
    let solve = |&(t, k, drastic): &(usize, u64, bool)| {
        let opts = AdpOptions {
            force_greedy: true,
            use_drastic: drastic,
            ..Default::default()
        };
        preps[t].solve(k, &opts).unwrap()
    };
    let sequential: Vec<AdpOutcome> = cells.iter().map(solve).collect();
    let parallel = parallel_sweep(adp::runtime::global(), &cells, |_, cell| solve(cell));
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_identical(p, s, &format!("cell {i} {:?}", cells[i]));
    }
}
