//! Criterion micro-benchmarks for the substrates behind the experiments:
//! join + provenance, plan-once/execute-many re-evaluation, min-cut
//! resilience, profile combination, greedy iterations, and the
//! query-complexity analyses.
// The replan-per-call baselines compile a fresh `PreparedQuery` per
// call rather than going through the fluent `Solve`, whose per-run
// explain pass would skew the comparison. A prepared plan memoizes its
// root answers, so benches that re-solve a target time each solve on
// a fresh plan (`fresh_plan`, outside the timer) instead of a lookup.

use adp_bench::fresh_plan;
use adp_core::analysis::{find_hard_structures, is_ptime};
use adp_core::solver::{AdpOptions, CostProfile, PreparedQuery};
use adp_datagen::queries;
use adp_datagen::zipf::ZipfConfig;
use adp_engine::database::Database;
use adp_engine::join::evaluate;
use adp_engine::plan::{AliveMask, QueryPlan};
use adp_engine::provenance::ProvenanceIndex;
use adp_engine::semijoin::remove_dangling;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

fn bench_join(c: &mut Criterion) {
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(10_000, 0.5, 7, true));
    let q = queries::qpath();
    c.bench_function("join_qpath_10k", |b| {
        b.iter(|| {
            let r = evaluate(black_box(&db), q.atoms(), q.head());
            black_box(r.output_count())
        })
    });
}

/// The acceptance benchmark for the plan-once/execute-many refactor:
/// re-evaluating the same query under a deletion mask with a cached
/// `QueryPlan` + `JoinIndexes` must beat the old regime of materializing
/// the masked database and evaluating from scratch (fresh plan, fresh
/// indexes) on the same workload.
fn bench_plan_reuse(c: &mut Criterion) {
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(10_000, 0.5, 7, true));
    let q = queries::qpath();
    let plan = QueryPlan::new(&db, q.atoms(), q.head());
    let indexes = plan.build_indexes(&db);
    // Deletion state: every 10th tuple of every relation dead.
    let mut mask = AliveMask::all_alive(&db, q.atoms());
    for (atom, schema) in q.atoms().iter().enumerate() {
        let n = db.expect(schema.name()).len() as u32;
        for idx in (0..n).step_by(10) {
            mask.kill(atom, idx);
        }
    }
    c.bench_function("masked_reeval_cached_plan_10k", |b| {
        b.iter(|| black_box(plan.execute_masked(&db, &indexes, &mask).output_count()))
    });
    c.bench_function("masked_reeval_rebuild_per_call_10k", |b| {
        b.iter(|| {
            let mut masked_db = Database::new();
            for (atom, schema) in q.atoms().iter().enumerate() {
                let rel = db.expect(schema.name());
                let (kept, _) = rel.filter_by_index(|i| mask.is_alive(atom, i));
                masked_db.add(kept);
            }
            black_box(evaluate(&masked_db, q.atoms(), q.head()).output_count())
        })
    });
}

/// Plan reuse across a ρ-sweep: one `PreparedQuery` solved for all four
/// ratios vs a fresh `PreparedQuery` per ratio (which replans, rebuilds
/// indexes, and re-joins every time).
fn bench_prepared_sweep(c: &mut Criterion) {
    let db = Arc::new(adp_datagen::zipf_pair(&ZipfConfig::new(
        2_000, 0.5, 11, true,
    )));
    let q = queries::qpath();
    let opts = AdpOptions {
        force_greedy: true,
        use_drastic: true,
        mode: adp_core::solver::Mode::Count,
        ..Default::default()
    };
    let total = PreparedQuery::new(q.clone(), Arc::clone(&db)).output_count();
    let ks: Vec<u64> = adp_bench::RATIOS
        .iter()
        .map(|&r| adp_bench::k_for_ratio(total, r))
        .collect();
    c.bench_function("rho_sweep_prepared_2k", |b| {
        b.iter(|| {
            let prep = PreparedQuery::new(q.clone(), Arc::clone(&db));
            let mut acc = 0;
            for &k in &ks {
                acc += prep.solve(k, &opts).unwrap().cost;
            }
            black_box(acc)
        })
    });
    c.bench_function("rho_sweep_solve_per_ratio_2k", |b| {
        b.iter(|| {
            let mut acc = 0;
            for &k in &ks {
                acc += PreparedQuery::new(q.clone(), Arc::clone(&db))
                    .solve(k, &opts)
                    .unwrap()
                    .cost;
            }
            black_box(acc)
        })
    });
}

/// The acceptance benchmark for the `adp-runtime` subsystem: the same
/// hard-query ρ-sweep — (trial, ρ) cells over the NP-hard `Q_path`,
/// greedy reporting — run sequentially and fanned out over a 4-worker
/// pool. On a machine with ≥4 cores the parallel pair must be ≥2×
/// faster (8 cells whose cost is dominated by the two ρ=75% solves);
/// on fewer cores it degrades gracefully. Outcomes are asserted
/// byte-identical (cost, deletion set, outputs removed) before either
/// variant is timed, so the pair always also checks determinism. Each
/// cell solves on its own fresh plan: on a shared one, a larger-k cell
/// that finished first would answer a smaller-k cell from its memo.
fn bench_parallel_sweep(c: &mut Criterion) {
    // Two independent trials of the hard workload: more cells than a
    // single 4-ratio sweep, so 4 workers stay busy.
    let preps: Vec<PreparedQuery> = [13u64, 14]
        .into_iter()
        .map(|seed| {
            let db = Arc::new(adp_datagen::zipf_pair(&ZipfConfig::new(
                1_000, 0.5, seed, true,
            )));
            PreparedQuery::new(queries::qpath(), Arc::clone(&db))
        })
        .collect();
    // The inner solver stays sequential in *both* variants: the pair
    // isolates the sweep-level fan-out.
    let opts = AdpOptions {
        force_greedy: true,
        sequential: true,
        ..Default::default()
    };
    // (trial, k) cells, hardest ratios included.
    let cells: Vec<(usize, u64)> = preps
        .iter()
        .enumerate()
        .flat_map(|(t, prep)| {
            let total = prep.output_count();
            adp_bench::RATIOS
                .iter()
                .map(move |&r| (t, adp_bench::k_for_ratio(total, r)))
                .collect::<Vec<_>>()
        })
        .collect();
    let pool = adp_runtime::ThreadPool::new(4);

    let fresh_cells = || -> Vec<(PreparedQuery, u64)> {
        cells
            .iter()
            .map(|&(t, k)| (fresh_plan(&preps[t]), k))
            .collect()
    };
    let solve_seq = |cells: Vec<(PreparedQuery, u64)>| -> Vec<_> {
        cells
            .iter()
            .map(|(prep, k)| prep.solve(*k, &opts).unwrap())
            .collect()
    };
    let solve_par = |cells: Vec<(PreparedQuery, u64)>| -> Vec<_> {
        adp_runtime::parallel_sweep(&pool, &cells, |_, (prep, k)| prep.solve(*k, &opts).unwrap())
    };

    // Determinism gate: the parallel sweep must be byte-identical.
    let seq = solve_seq(fresh_cells());
    let par = solve_par(fresh_cells());
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.cost, p.cost, "parallel sweep changed a cost");
        assert_eq!(s.achieved, p.achieved, "parallel sweep changed coverage");
        assert_eq!(
            s.solution, p.solution,
            "parallel sweep changed a deletion set"
        );
    }

    let total_cost =
        |outs: Vec<adp_core::solver::AdpOutcome>| -> u64 { outs.iter().map(|o| o.cost).sum() };
    c.bench_function("rho_sweep_hard_sequential", |b| {
        b.iter_batched(
            fresh_cells,
            |cells| total_cost(solve_seq(cells)),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("rho_sweep_hard_parallel_4t", |b| {
        b.iter_batched(
            fresh_cells,
            |cells| total_cost(solve_par(cells)),
            BatchSize::LargeInput,
        )
    });
}

/// The acceptance benchmark for the incremental delta maintenance
/// layer: the same fig10-style hard workload (`Q_path` over skewed Zipf
/// data), solved by greedy at ρ=75%, once per round-strategy —
/// `greedy_rounds_masked` pays a full scoring rescan per round
/// (`full_reeval`, the pre-delta oracle), `greedy_rounds_delta` runs on
/// the incrementally maintained scores (`O(Δ)` per round). Outcomes are
/// asserted byte-identical (cost, deletion set, outputs removed)
/// **before** either variant is timed; the delta pair must be ≥5×
/// faster (measured ~14–20× at this size, growing with n). The delta
/// variant solves on a fresh plan per iteration, so it also pays its
/// scoring pass: on the shared plan its repeat would be a memo lookup
/// (the `full_reeval` oracle never reads the memo).
fn bench_greedy_rounds(c: &mut Criterion) {
    let db = Arc::new(adp_datagen::zipf_pair(&ZipfConfig::new(
        4_000, 0.5, 21, true,
    )));
    let prep = PreparedQuery::new(queries::qpath(), db);
    let total = prep.output_count();
    let k = adp_bench::k_for_ratio(total, 0.75);
    // Sequential inner loops in both variants: the pair isolates the
    // per-round maintenance strategy, not the pool.
    let delta_opts = AdpOptions {
        force_greedy: true,
        sequential: true,
        ..Default::default()
    };
    let masked_opts = AdpOptions {
        full_reeval: true,
        ..delta_opts.clone()
    };

    // Determinism gate: the incremental rounds must be byte-identical.
    let d = prep.solve(k, &delta_opts).unwrap();
    let m = prep.solve(k, &masked_opts).unwrap();
    assert_eq!(d.cost, m.cost, "delta rounds changed the cost");
    assert_eq!(d.achieved, m.achieved, "delta rounds changed coverage");
    assert_eq!(
        d.solution, m.solution,
        "delta rounds changed the deletion set"
    );

    c.bench_function("greedy_rounds_masked", |b| {
        b.iter(|| black_box(prep.solve(k, &masked_opts).unwrap().cost))
    });
    c.bench_function("greedy_rounds_delta", |b| {
        b.iter_batched(
            || fresh_plan(&prep),
            |own| own.solve(k, &delta_opts).unwrap().cost,
            BatchSize::LargeInput,
        )
    });
}

fn bench_provenance(c: &mut Criterion) {
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(5_000, 0.5, 7, true));
    let q = queries::qpath();
    let eval = evaluate(&db, q.atoms(), q.head());
    c.bench_function("provenance_build_5k", |b| {
        b.iter(|| black_box(ProvenanceIndex::new(&eval)))
    });
    let prov = ProvenanceIndex::new(&eval);
    c.bench_function("provenance_profits_5k", |b| {
        b.iter(|| black_box(prov.profits()))
    });
}

fn bench_semijoin(c: &mut Criterion) {
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(10_000, 1.0, 3, true));
    let q = queries::qpath();
    c.bench_function("full_reducer_10k", |b| {
        b.iter(|| black_box(remove_dangling(&db, q.atoms())))
    });
}

fn bench_mincut_resilience(c: &mut Criterion) {
    // boolean chain over zipf data: exercises linearization + Dinic
    let db = Arc::new(adp_datagen::zipf_pair(&ZipfConfig::new(
        5_000, 0.5, 9, true,
    )));
    let q = adp_core::query::parse_query("Q() :- R1(A), R2(A,B), R3(B)").unwrap();
    c.bench_function("boolean_resilience_5k", |b| {
        b.iter(|| {
            let out = PreparedQuery::new(q.clone(), Arc::clone(&db))
                .solve(1, &AdpOptions::counting())
                .unwrap();
            black_box(out.cost)
        })
    });
}

fn bench_singleton_solver(c: &mut Criterion) {
    let db = Arc::new(adp_datagen::zipf_pair(&ZipfConfig::new(
        50_000, 1.0, 5, false,
    )));
    let q = queries::q6();
    let probe = PreparedQuery::new(q.clone(), Arc::clone(&db))
        .solve(1, &AdpOptions::counting())
        .unwrap();
    let k = probe.output_count / 2;
    c.bench_function("singleton_q6_50k_half", |b| {
        b.iter(|| {
            let out = PreparedQuery::new(q.clone(), Arc::clone(&db))
                .solve(k, &AdpOptions::counting())
                .unwrap();
            black_box(out.cost)
        })
    });
}

fn bench_profile_ops(c: &mut Criterion) {
    let pairs: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 3 + (i % 7))).collect();
    c.bench_function("profile_from_pairs_10k", |b| {
        b.iter(|| black_box(CostProfile::from_pairs(pairs.iter().copied())))
    });
    let p = CostProfile::from_pairs(pairs.iter().copied());
    c.bench_function("profile_min_cost_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for m in (0..30_000).step_by(37) {
                acc = acc.wrapping_add(p.min_cost(m).unwrap_or(0));
            }
            black_box(acc)
        })
    });
}

fn bench_analysis(c: &mut Criterion) {
    let catalogue: Vec<adp_core::query::Query> = [
        "Q(A,B) :- R1(A), R2(A,B), R3(B)",
        "Q(A,F,G,H) :- R1(A,B), R2(F,G), R3(B,C), R4(C), R5(G,H)",
        "Q(A,B,C,E,F,H) :- R1(A,B,C), R2(A,B,F), R3(A,E), R4(A,E,H)",
        "Q(E,F,G) :- R1(A,B,E), R2(B,C,F), R3(C,A,G)",
    ]
    .iter()
    .map(|t| adp_core::query::parse_query(t).unwrap())
    .collect();
    c.bench_function("is_ptime_catalogue", |b| {
        b.iter(|| {
            for q in &catalogue {
                black_box(is_ptime(q));
            }
        })
    });
    c.bench_function("hard_structures_catalogue", |b| {
        b.iter(|| {
            for q in &catalogue {
                black_box(find_hard_structures(q));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_join,
    bench_plan_reuse,
    bench_prepared_sweep,
    bench_parallel_sweep,
    bench_greedy_rounds,
    bench_provenance,
    bench_semijoin,
    bench_mincut_resilience,
    bench_singleton_solver,
    bench_profile_ops,
    bench_analysis
);
criterion_main!(benches);
