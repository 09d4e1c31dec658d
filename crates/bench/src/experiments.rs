//! The paper's experiments (§8), one function per figure group.
//!
//! Every function prints a [`Figure`] table plus CSV lines; binaries in
//! `src/bin/` are thin wrappers so `--bin figures` can run everything.

use crate::record::{num, percentile, Json};
use crate::{
    k_for_ratio, prepare, quick_mode, size_ladder, sweep_solve, timed_solve, workload_seed, Figure,
    SweepCell, RATIOS,
};
use adp_core::selection::{solve_selection, SelectionQuery};
use adp_core::solver::brute::BruteForceOptions;
use adp_core::solver::{AdpOptions, DecomposeStrategy, Mode, UniverseStrategy};
use adp_datagen::ego::{ego_database_for, ego_network, EgoConfig};
use adp_datagen::queries;
use adp_datagen::zipf::ZipfConfig;
use adp_engine::database::Database;
use adp_engine::schema::attr;
use std::time::Instant;

/// A plan's output keys, in output id order.
fn output_rows(prep: &adp_core::solver::PreparedQuery) -> Vec<Box<[adp_engine::Value]>> {
    prep.eval().outputs().map(Box::from).collect()
}

fn greedy_opts() -> AdpOptions {
    AdpOptions {
        force_greedy: true,
        ..Default::default()
    }
}

fn drastic_opts() -> AdpOptions {
    AdpOptions {
        force_greedy: true,
        use_drastic: true,
        ..Default::default()
    }
}

/// Figure 7: exact counting vs reporting on σθQ1 over input size and ρ.
pub fn fig07() {
    let sizes = size_ladder(&[1_000, 10_000, 100_000, 300_000], &[1_000, 10_000]);
    let mut fig = Figure::new("fig07", "exact count/report on σθQ1 (easy) vs input size");
    for &n in &sizes {
        let db = adp_datagen::tpch::tpch_selected(n, workload_seed(0xF16));
        let sq = SelectionQuery::new(queries::q1(), vec![(attr("PK"), 0)]).unwrap();
        let probe = solve_selection(&sq, &db, 1, &AdpOptions::counting()).unwrap();
        let total = probe.output_count;
        for rho in RATIOS {
            let k = k_for_ratio(total, rho);
            for (mode, label) in [(Mode::Count, "Counting"), (Mode::Report, "Reporting")] {
                let opts = AdpOptions {
                    mode,
                    ..Default::default()
                };
                let start = Instant::now();
                let out = solve_selection(&sq, &db, k, &opts).unwrap();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(out.exact, "σθQ1 is poly-time");
                fig.push(
                    &format!("{label}, rho={:.0}%", rho * 100.0),
                    n as f64,
                    ms,
                    out.cost,
                );
            }
        }
    }
    fig.finish();
}

/// Figures 8 + 9: heuristics (Greedy / Drastic) vs Exact on σθQ1 —
/// running time and quality (tuples removed).
pub fn fig08_09() {
    // Greedy materializes the cross-product join, so its ladder is short
    // (the paper reaches the same conclusion at larger SQL-backed sizes).
    let sizes = size_ladder(&[1_000, 3_000, 6_000], &[600, 1_000]);
    let mut f8 = Figure::new("fig08", "heuristics vs exact on σθQ1: reporting time");
    let mut f9 = Figure::new("fig09", "heuristics vs exact on σθQ1: quality");
    for &n in &sizes {
        let db = adp_datagen::tpch::tpch_selected(n, workload_seed(0xF89));
        let sq = SelectionQuery::new(queries::q1(), vec![(attr("PK"), 0)]).unwrap();
        let probe = solve_selection(&sq, &db, 1, &AdpOptions::counting()).unwrap();
        let total = probe.output_count;
        // cap greedy's ratios on larger inputs: its per-iteration rescan
        // over all witnesses makes ρ=75% prohibitive exactly as in the
        // paper's Figure 8 (where Greedy stops at 100k).
        for rho in RATIOS {
            let k = k_for_ratio(total, rho);
            for (label, opts) in [
                ("Exact", AdpOptions::default()),
                ("Greedy", greedy_opts()),
                ("Drastic", drastic_opts()),
            ] {
                if label == "Greedy" && (n > 3_000 || (n > 1_000 && rho > 0.5)) {
                    continue; // Greedy does not scale there (paper, §8.2)
                }
                let start = Instant::now();
                let out = solve_selection(&sq, &db, k, &opts).unwrap();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let series = format!("{label}, rho={:.0}%", rho * 100.0);
                f8.push(&series, n as f64, ms, u64::MAX);
                f9.push(&series, n as f64, ms, out.cost);
            }
        }
    }
    f8.finish();
    f9.finish();
}

/// Figures 10 + 11: the NP-hard Q1 — Greedy vs Drastic, time and quality.
///
/// The (ρ, heuristic) cells of each workload are independent, so they
/// fan out across the global runtime pool (`--threads`); results and
/// point order are identical to the sequential loop.
pub fn fig10_11() {
    let sizes = size_ladder(&[1_000, 10_000, 100_000], &[1_000, 5_000]);
    let mut f10 = Figure::new("fig10", "heuristics on Q1 (hard): reporting time");
    let mut f11 = Figure::new("fig11", "heuristics on Q1 (hard): quality");
    let q = queries::q1();
    for &n in &sizes {
        let cfg = adp_datagen::tpch::TpchConfig::scaled(n, workload_seed(0xAB));
        // One prepared query per workload gives |Q(D)|; `sweep_solve`
        // rebinds it per cell, so every cell times its own solve.
        let prep = prepare(&q, adp_datagen::tpch_chain(&cfg));
        let total = prep.output_count();
        let mut cells = Vec::new();
        for rho in RATIOS {
            let k = k_for_ratio(total, rho);
            for (label, opts) in [("Greedy", greedy_opts()), ("Drastic", drastic_opts())] {
                if label == "Greedy" && n > 10_000 {
                    continue; // paper: Greedy is not scalable past ~100k
                }
                cells.push(SweepCell::new(
                    format!("{label}, rho={:.0}%", rho * 100.0),
                    k,
                    opts,
                ));
            }
        }
        for (cell, (ms, out)) in cells.iter().zip(sweep_solve(&prep, &cells)) {
            f10.push(&cell.series, n as f64, ms, u64::MAX);
            f11.push(&cell.series, n as f64, ms, out.cost);
        }
    }
    f10.finish();
    f11.finish();
}

/// Figures 12 + 13: BruteForce vs heuristics on small hard Q1 instances.
pub fn fig12_13() {
    let sizes = size_ladder(&[100, 200, 300, 400, 500], &[100, 200]);
    let mut f12 = Figure::new("fig12", "BruteForce vs heuristics on Q1: time");
    let mut f13 = Figure::new("fig13", "BruteForce vs heuristics on Q1: quality");
    let q = queries::q1();
    for &n in &sizes {
        let cfg = adp_datagen::tpch::TpchConfig::scaled(n, workload_seed(0xBF));
        let prep = prepare(&q, adp_datagen::tpch_chain(&cfg));
        let k = k_for_ratio(prep.output_count(), 0.10);
        for (label, opts) in [("Greedy", greedy_opts()), ("Drastic", drastic_opts())] {
            let (ms, out) = timed_solve(&prep, k, &opts);
            f12.push(label, n as f64, ms, u64::MAX);
            f13.push(label, n as f64, ms, out.cost);
        }
        // Times the exhaustive search alone on purpose: the fluent
        // brute path also runs the dichotomy analysis for its explain
        // trace, which would skew this series against the paper
        // baseline.
        let start = Instant::now();
        match adp_core::solver::brute::brute_force(&prep, k, &BruteForceOptions::default()) {
            Ok(out) => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                f12.push("BruteForce", n as f64, ms, u64::MAX);
                f13.push("BruteForce", n as f64, ms, out.cost);
            }
            Err(e) => {
                // The paper's BruteForce also "did not stop in several
                // hours" beyond small sizes — report the DNF honestly.
                println!("  BruteForce did not finish at x={n}: {e}");
            }
        }
    }
    f12.finish();
    f13.finish();
}

/// Figures 14 + 15: Q2..Q5 on the ego-network, sweeping ρ.
pub fn fig14_15() {
    let cfg = if quick_mode() {
        EgoConfig {
            nodes: 40,
            circles: 4,
            edges: 140,
            intra_share: 0.85,
            seed: workload_seed(414),
        }
    } else {
        EgoConfig {
            nodes: 100,
            circles: 7,
            edges: 700,
            intra_share: 0.85,
            seed: workload_seed(414),
        }
    };
    let (_, edges) = ego_network(&cfg);
    let mut f14 = Figure::new("fig14", "Q2..Q5 on the ego-network: time vs ρ");
    let mut f15 = Figure::new("fig15", "Q2..Q5 on the ego-network: quality vs ρ");
    let named = [
        ("Q2", queries::q2()),
        ("Q3", queries::q3()),
        ("Q4", queries::q4()),
        ("Q5", queries::q5()),
    ];
    for (name, q) in named {
        let prep = prepare(&q, ego_database_for(&edges, q.atoms()));
        let total = prep.output_count();
        if total == 0 {
            continue; // e.g. no triangles in a sparse quick graph
        }
        for rho in RATIOS {
            let k = k_for_ratio(total, rho);
            let (ms, out) = timed_solve(&prep, k, &greedy_opts());
            f14.push(&format!("Greedy, {name}"), rho, ms, u64::MAX);
            f15.push(&format!("Greedy, {name}"), rho, ms, out.cost);
            // Drastic applies to the full CQs Q2, Q3 only (paper §8.3).
            if q.is_full() {
                let (ms, out) = timed_solve(&prep, k, &drastic_opts());
                f14.push(&format!("Drastic, {name}"), rho, ms, u64::MAX);
                f15.push(&format!("Drastic, {name}"), rho, ms, out.cost);
            }
        }
    }
    f14.finish();
    f15.finish();
}

/// Figures 16–19 and 24–27: the NP-hard `Q_path` over Zipf(α) data.
pub fn fig_zipf_hard() {
    let alphas = [0.0, 0.25, 0.5, 1.0];
    let sizes = size_ladder(&[1_000, 10_000, 100_000], &[1_000, 4_000]);
    for alpha in alphas {
        let figure_no = match alpha {
            0.0 => "fig16-17",
            0.25 => "fig24-25",
            0.5 => "fig26-27",
            _ => "fig18-19",
        };
        let mut fig = Figure::new(
            figure_no,
            &format!("Q_path (hard) on Zipf α={alpha}: time+quality"),
        );
        for &n in &sizes {
            let q = queries::qpath();
            let prep = prepare(
                &q,
                adp_datagen::zipf_pair(&ZipfConfig::new(n, alpha, workload_seed(0x21F), true)),
            );
            let total = prep.output_count();
            // Independent (ρ, heuristic) cells: fan out across workers.
            let mut cells = Vec::new();
            for rho in RATIOS {
                let k = k_for_ratio(total, rho);
                for (label, opts) in [("Greedy", greedy_opts()), ("Drastic", drastic_opts())] {
                    if label == "Greedy" && n > 10_000 {
                        continue;
                    }
                    cells.push(SweepCell::new(
                        format!("{label}, rho={:.0}%", rho * 100.0),
                        k,
                        opts,
                    ));
                }
            }
            for (cell, (ms, out)) in cells.iter().zip(sweep_solve(&prep, &cells)) {
                fig.push(&cell.series, n as f64, ms, out.cost);
            }
        }
        fig.finish();
    }
}

/// Figures 20–23: the poly-time singleton `Q6` over Zipf(α) data, exact.
pub fn fig_zipf_easy() {
    let alphas = [0.0, 1.0];
    let sizes = size_ladder(&[1_000, 10_000, 100_000, 1_000_000], &[1_000, 10_000]);
    for alpha in alphas {
        let figure_no = if alpha == 0.0 { "fig20-21" } else { "fig22-23" };
        let mut fig = Figure::new(
            figure_no,
            &format!("Q6 (easy) on Zipf α={alpha}: exact time+quality"),
        );
        for &n in &sizes {
            let q = queries::q6();
            let prep = prepare(
                &q,
                adp_datagen::zipf_pair(&ZipfConfig::new(n, alpha, workload_seed(0x21E), false)),
            );
            let total = prep.output_count();
            for rho in RATIOS {
                let k = k_for_ratio(total, rho);
                let (ms, out) = timed_solve(&prep, k, &AdpOptions::default());
                assert!(out.exact);
                fig.push(
                    &format!("Exact, rho={:.0}%", rho * 100.0),
                    n as f64,
                    ms,
                    out.cost,
                );
            }
        }
        fig.finish();
    }
}

/// Figure 28: singleton-query optimizations on Q7 — universal attributes
/// removed one-by-one vs as a whole vs the sort-based Singleton routine.
pub fn fig28() {
    let mut fig = Figure::new(
        "fig28",
        "Q7 singleton ablation (universal-attribute handling)",
    );
    let q = queries::q7();
    let per_rel = if quick_mode() { 200 } else { 500 };
    let prep = prepare(
        &q,
        adp_datagen::uniform::correlated_q7(&q, per_rel, 60, 100, workload_seed(0x728)),
    );
    let total = prep.output_count();
    for rho in [0.5, 0.75] {
        let k = k_for_ratio(total, rho);
        let variants: [(&str, AdpOptions); 3] = [
            (
                "Remove one by one",
                AdpOptions {
                    skip_singleton: true,
                    universe: UniverseStrategy::OneByOne,
                    ..Default::default()
                },
            ),
            (
                "Remove as whole",
                AdpOptions {
                    skip_singleton: true,
                    universe: UniverseStrategy::Combined,
                    ..Default::default()
                },
            ),
            ("Improved algorithm", AdpOptions::default()),
        ];
        let mut costs = Vec::new();
        for (label, opts) in variants {
            let (ms, out) = timed_solve(&prep, k, &opts);
            assert!(out.exact);
            costs.push(out.cost);
            fig.push(
                &format!("{label}, rho={:.0}%", rho * 100.0),
                rho,
                ms,
                out.cost,
            );
        }
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "all Q7 variants must agree: {costs:?}"
        );
    }
    fig.finish();
}

/// Figure 29: decomposition optimizations on Q8 — full partitions vs two
/// partitions at a time vs the improved DP.
pub fn fig29() {
    let mut fig = Figure::new("fig29", "Q8 decompose ablation (component combination)");
    let q = queries::q8();
    let (small, large) = if quick_mode() { (15, 30) } else { (25, 50) };
    let sizes = vec![small, large, small, large, small, large];
    let prep = prepare(
        &q,
        adp_datagen::uniform::uniform_db_for_query(&q, &sizes, 100, workload_seed(0x829)),
    );
    let total = prep.output_count();
    for rho in [0.01, 0.10] {
        let k = k_for_ratio(total, rho);
        let variants: [(&str, DecomposeStrategy); 3] = [
            ("Full partitions", DecomposeStrategy::NaiveFull),
            ("Two partitions", DecomposeStrategy::NaivePairs),
            ("Improved DP", DecomposeStrategy::ImprovedDp),
        ];
        let mut costs = Vec::new();
        for (label, strat) in variants {
            let opts = AdpOptions {
                decompose: strat,
                ..Default::default()
            };
            let (ms, out) = timed_solve(&prep, k, &opts);
            assert!(out.exact);
            costs.push(out.cost);
            fig.push(
                &format!("{label}, rho={:.0}%", rho * 100.0),
                rho,
                ms,
                out.cost,
            );
        }
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "all Q8 variants must agree: {costs:?}"
        );
    }
    fig.finish();
}

/// `fig_stream`: the streaming-deletion workload the delta layer opens
/// up. A `Q_path` instance over skewed Zipf data receives a stream of
/// deletion batches (with periodic re-insertion batches, as a serving
/// layer undoing speculative deletions would); after every batch the
/// maintained `|Q(D − S)|` is **asserted equal** to a masked full
/// re-evaluation of the cached plan, and both maintenance strategies
/// are timed. The delta series does `O(Δ)` work per batch; the masked
/// series re-joins.
///
/// A third series isolates the **snapshot-install** cost: the same
/// batches are absorbed by a sealed copy-on-write epoch chain (clone +
/// per-tuple tombstones + threshold compaction + `Arc` install), the
/// write path the service pays per mutation. Earlier revisions folded
/// an `O(n)` snapshot rebuild into the per-batch loop, hiding the
/// install/apply split; the three components now land separately in
/// `BENCH_stream.json`.
pub fn fig_stream() {
    use adp_engine::delta::DeltaProvenance;
    use adp_engine::plan::{AliveMask, QueryPlan};
    use adp_engine::provenance::TupleRef;

    let sizes = size_ladder(&[10_000, 50_000, 200_000], &[2_000, 8_000]);
    let batches = if quick_mode() { 48 } else { 192usize };
    let batch_size = 8usize;
    let q = queries::qpath();
    let mut fig = Figure::new(
        "fig-stream",
        "Streaming deletions: delta maintenance vs masked re-eval (avg ms/batch)",
    );
    let mut results = Vec::new();
    for &n in &sizes {
        let db = adp_datagen::zipf_pair(&ZipfConfig::new(n, 0.5, workload_seed(0x57E), true));
        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let indexes = plan.build_indexes(&db);
        let eval = plan.execute(&db, &indexes);
        let mut delta = DeltaProvenance::try_new(&eval).expect("instance fits u32 witness ids");
        let mut mask = AliveMask::all_alive(&db, q.atoms());
        let rel_lens: Vec<u64> = q
            .atoms()
            .iter()
            .map(|a| db.expect(a.name()).len() as u64)
            .collect();

        // The copy-on-write epoch chain absorbing the same batches.
        // The base seals with nothing deleted, so its dense indices
        // are the permanent stable ids and the stream's `TupleRef`
        // base coordinates address it directly.
        let slots: Vec<usize> = q
            .atoms()
            .iter()
            .map(|a| db.rel_id(a.name()).expect("atom names a relation").index())
            .collect();
        let mut sealed = db.clone();
        sealed.seal_all(1 << 14);
        let mut epoch_db = std::sync::Arc::new(sealed);

        // Deterministic LCG op stream; every 4th batch restores tuples
        // deleted earlier instead of deleting new ones.
        let mut state = workload_seed(0x57E) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut deleted: Vec<TupleRef> = Vec::new();
        let (mut delta_ms, mut masked_ms, mut install_ms) = (0.0f64, 0.0f64, 0.0f64);
        for round in 0..batches {
            let restore_round = round % 4 == 3 && !deleted.is_empty();
            let batch: Vec<TupleRef> = if restore_round {
                (0..batch_size.min(deleted.len()))
                    .map(|_| deleted[(next() as usize) % deleted.len()])
                    .collect()
            } else {
                (0..batch_size)
                    .map(|_| {
                        let atom = (next() as usize) % rel_lens.len();
                        TupleRef::new(atom, (next() % rel_lens[atom]) as u32)
                    })
                    .collect()
            };

            let start = Instant::now();
            if restore_round {
                delta.restore_batch(&batch);
            } else {
                delta.delete_batch(&batch);
            }
            delta_ms += start.elapsed().as_secs_f64() * 1e3;

            // Timed: the same batch as an O(Δ) epoch install.
            let start = Instant::now();
            let batch_ids = batch.iter().map(|t| (t.atom, t.index));
            epoch_db = install(&epoch_db, &db, &slots, !restore_round, batch_ids);
            install_ms += start.elapsed().as_secs_f64() * 1e3;

            for &t in &batch {
                if restore_round {
                    mask.revive(t.atom, t.index);
                    deleted.retain(|&d| d != t);
                } else if mask.kill(t.atom, t.index) {
                    deleted.push(t);
                }
            }
            let start = Instant::now();
            let masked = plan.execute_masked(&db, &indexes, &mask);
            masked_ms += start.elapsed().as_secs_f64() * 1e3;
            // Soft check: a divergence is recorded (and fails the
            // process at exit) without hiding the remaining batches.
            crate::checks::check_eq(&delta.live_outputs(), &masked.output_count(), || {
                format!("fig_stream n={n}: delta diverged from the masked oracle at batch {round}")
            });
        }
        // The chain's final epoch must answer identically to the
        // maintained view (same live set, fresh join).
        let epoch_plan = QueryPlan::new(&epoch_db, q.atoms(), q.head());
        let epoch_eval = epoch_plan.execute(&epoch_db, &epoch_plan.build_indexes(&epoch_db));
        crate::checks::check_eq(&epoch_eval.output_count(), &delta.live_outputs(), || {
            format!("fig_stream n={n}: epoch snapshot diverged from delta maintenance")
        });

        fig.push(
            "Delta (O(batch))",
            n as f64,
            delta_ms / batches as f64,
            delta.removed_outputs(),
        );
        fig.push(
            "Epoch install (O(batch))",
            n as f64,
            install_ms / batches as f64,
            delta.removed_outputs(),
        );
        fig.push(
            "Masked re-eval",
            n as f64,
            masked_ms / batches as f64,
            delta.removed_outputs(),
        );
        results.push(
            Json::obj()
                .field("n", n)
                .field("delta_ms_per_batch", num(delta_ms / batches as f64, 4))
                .field("install_ms_per_batch", num(install_ms / batches as f64, 4))
                .field("masked_ms_per_batch", num(masked_ms / batches as f64, 4)),
        );
    }
    fig.finish();

    crate::write_record(
        "fig-stream",
        Json::obj()
            .field("batches", batches)
            .field("batch_size", batch_size)
            .field("results", results),
    );
}

/// The copy-on-write epoch after `cur`: a clone (`Arc` bumps on sealed
/// segments) with each `(atom, stable index)` of `batch` tombstoned, or
/// restored from `base`, then compacted after a delete. Mutations are
/// idempotent, so a batch may repeat a tuple.
fn install(
    cur: &Database,
    base: &Database,
    slots: &[usize],
    delete: bool,
    batch: impl IntoIterator<Item = (usize, u32)>,
) -> std::sync::Arc<Database> {
    let mut next = cur.clone();
    for (atom, idx) in batch {
        let slot = slots[atom];
        if delete {
            let _ = next.relations_mut()[slot].delete_stable(idx);
        } else {
            let row = base.relations()[slot].tuple_vec(idx);
            let _ = next.relations_mut()[slot].restore_stable(idx, &row);
        }
    }
    if delete {
        next.maybe_compact_all(50);
    }
    std::sync::Arc::new(next)
}

/// A deterministic stream of `batches` delete/restore batches of
/// `batch_size` tuples over relations of `rel_lens` rows, in atom
/// coordinates, built so every batch is effective: deletes only hit
/// live tuples, and every 4th batch restores earlier deletions.
/// `(true, batch)` deletes, `(false, batch)` restores.
fn effective_ops(
    seed: u64,
    batches: usize,
    batch_size: usize,
    rel_lens: &[u64],
) -> Vec<(bool, Vec<(usize, u32)>)> {
    use std::collections::BTreeSet;
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut deleted: Vec<(usize, u32)> = Vec::new();
    let mut deleted_set: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut ops = Vec::with_capacity(batches);
    for round in 0..batches {
        let restore_round = round % 4 == 3 && !deleted.is_empty();
        let mut batch: BTreeSet<(usize, u32)> = BTreeSet::new();
        if restore_round {
            for _ in 0..batch_size.min(deleted.len()) {
                batch.insert(deleted[(next() as usize) % deleted.len()]);
            }
            deleted.retain(|t| !batch.contains(t));
            for t in &batch {
                deleted_set.remove(t);
            }
        } else {
            while batch.len() < batch_size {
                let atom = (next() as usize) % rel_lens.len();
                let idx = (next() % rel_lens[atom]) as u32;
                if !deleted_set.contains(&(atom, idx)) {
                    batch.insert((atom, idx));
                }
            }
            for &t in &batch {
                deleted_set.insert(t);
                deleted.push(t);
            }
        }
        ops.push((!restore_round, batch.into_iter().collect()));
    }
    ops
}

/// `fig_subscribe`: push-based incremental view maintenance vs pull
/// re-solving — the subscription subsystem's reason to exist. One hot
/// `Q_path` statement receives a deterministic stream of
/// always-effective delete/restore batches (every 4th batch restores
/// earlier deletions), and two identical services race at each fan-out
/// N ∈ {1, 8, 64}:
///
/// * **Push** — N subscribers registered once up front; each batch pays
///   one advance of the statement's pooled greedy state, one solve for
///   the shared target on it, and N bounded-channel sends. The timed span
///   is the *aggregate update latency*: mutation call through all N
///   deliveries drained.
/// * **Pull** — the pre-subscription world: after the same batch each
///   of N clients re-solves the prepared statement at the new epoch. The
///   re-solves share the epoch's plan and its advanced pooled state, so
///   this is the *favorable* pull baseline, not a strawman. It is
///   reported, not gated: push and pull run on the same state, and the
///   gap is N − 1 solves.
///
/// Every pushed diff is equality-checked in-harness: subscriber 0's
/// replica (live rows + target cost + deletion set, advanced only by
/// the pushed diffs) must byte-identically equal a fresh evaluation +
/// sequential greedy solve at every single epoch (soft check;
/// divergence fails the process at exit).
///
/// The gate is what push saves: a subscriber adds a send, not an
/// advance. Every fan-out must count exactly one shared advance per
/// batch (`shared_delta_applications == batches`), and the
/// per-subscriber increment of push ms/batch, `(push(64) − push(1)) /
/// 63`, may be at most [`SUBSCRIBE_INCREMENT_BOUND`] times the shared
/// advance-and-solve span per batch at N = 1. The whole record is
/// written as `BENCH_subscribe.json`.
///
/// The mutation span is additionally split: a third, subscriber-free
/// service absorbs the same batches so the O(Δ) **snapshot install**
/// is timed alone, and the record separates it from the shared
/// **advance and solve** the subscription group adds on top.
pub fn fig_subscribe() {
    use adp_core::solver::PreparedQuery;
    use adp_engine::provenance::TupleRef;
    use adp_engine::value::Value;
    use adp_service::{Service, SubscribeOptions, Target};
    use std::collections::BTreeMap;

    let n = if quick_mode() { 2_000 } else { 20_000 };
    let batches = if quick_mode() { 24 } else { 96usize };
    let batch_size = 8usize;
    let k = 8u64;
    let fan_outs: [usize; 3] = [1, 8, 64];
    let q = queries::qpath();
    let q_text = format!("{q}");
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(n, 0.5, workload_seed(0x5AB), true));
    let rel_names: Vec<String> = q.atoms().iter().map(|a| a.name().to_string()).collect();
    let rel_lens: Vec<u64> = rel_names
        .iter()
        .map(|r| db.expect(r).len() as u64)
        .collect();
    let seq_greedy = || AdpOptions {
        force_greedy: true,
        sequential: true,
        ..Default::default()
    };

    // One op stream shared by both arms and every fan-out.
    let ops = effective_ops(workload_seed(0x5AB), batches, batch_size, &rel_lens);

    let mut fig = Figure::new(
        "fig-subscribe",
        "Push subscriptions vs pull re-solves (aggregate ms/batch)",
    );
    println!(
        "  workload: Q_path over Zipf(0.5) n={n}, {batches} batches x {batch_size} ops, \
         k={k}, fan-out {fan_outs:?}"
    );
    let mut results = Vec::new();
    let mut push_per_batch = Vec::new();
    let mut apply_per_batch = Vec::new();

    for &subs_n in &fan_outs {
        // --- Push arm: register once, then every batch fans out. ----
        let push_svc = Service::new(db.clone());
        let stmt = push_svc.prepare(&q_text).expect("hot query parses");
        let receivers: Vec<_> = (0..subs_n)
            .map(|_| {
                push_svc
                    .subscribe(
                        &stmt,
                        Target::Outputs(k),
                        // Drained every batch; 8 slots is plenty.
                        SubscribeOptions::default().with_buffer(8),
                    )
                    .expect("subscribe")
                    .1
            })
            .collect();

        // Subscriber 0's replica, advanced only by pushed diffs and
        // checked against a fresh solve after every batch.
        let (_epoch0, snap0) = push_svc.snapshot();
        let prep0 = PreparedQuery::new(q.clone(), snap0);
        let mut rows: BTreeMap<u32, Box<[Value]>> = prep0
            .eval()
            .outputs()
            .zip(0u32..)
            .map(|(r, i)| (i, r.into()))
            .collect();
        let seed_out = prep0
            .solve(k.min(prep0.output_count()), &seq_greedy())
            .expect("seed solve");
        let mut cost = seed_out.cost as i64;
        // At epoch 0 solver coordinates are base coordinates.
        let mut deletions: Vec<TupleRef> = {
            let mut d = seed_out.solution.expect("greedy reports its set");
            d.sort_unstable();
            d
        };

        // --- Pull arm: an identical service, re-solved per batch. ---
        let pull_svc = Service::new(db.clone());
        let pull_stmt = pull_svc.prepare(&q_text).expect("hot query parses");

        // --- Bare arm: no statements, no subscribers — each batch is
        // a pure O(Δ) snapshot install, isolating the write path's
        // floor from the advance and solve the group adds on top.
        let bare_svc = Service::new(db.clone());

        let (mut push_ms, mut pull_ms) = (0.0f64, 0.0f64);
        let (mut mutate_ms, mut install_ms) = (0.0f64, 0.0f64);
        for (round, (is_delete, batch)) in ops.iter().enumerate() {
            let named: Vec<(&str, u32)> = batch
                .iter()
                .map(|&(a, i)| (rel_names[a].as_str(), i))
                .collect();

            let apply = |svc: &Service| {
                let applied = if *is_delete {
                    svc.delete_tuples(&named)
                } else {
                    svc.restore_tuples(&named)
                };
                applied.expect("every batch is effective");
            };

            // Timed: mutation (advance + target solve + N sends)
            // plus draining all N deliveries.
            let t0 = Instant::now();
            apply(&push_svc);
            mutate_ms += t0.elapsed().as_secs_f64() * 1e3;
            let mut first = None;
            for (s, rx) in receivers.iter().enumerate() {
                let u = rx
                    .try_recv()
                    .expect("updates are buffered before the mutation returns");
                if s == 0 {
                    first = Some(u);
                }
            }
            push_ms += t0.elapsed().as_secs_f64() * 1e3;

            // Timed: same batch, then N re-solves at the new epoch.
            let t1 = Instant::now();
            apply(&pull_svc);
            for _ in 0..subs_n {
                let resp = pull_stmt.solve(Target::Outputs(k)).expect("pull solve");
                std::hint::black_box(resp);
            }
            pull_ms += t1.elapsed().as_secs_f64() * 1e3;

            // Timed: the same batch with nobody watching — the O(Δ)
            // epoch install alone.
            let t2 = Instant::now();
            apply(&bare_svc);
            install_ms += t2.elapsed().as_secs_f64() * 1e3;

            // Untimed: advance subscriber 0's replica by the pushed
            // diff and compare against a fresh solve of the snapshot.
            let u = first.expect("every effective batch pushes one update");
            crate::checks::check_eq(&u.seq, &(round as u64), || {
                format!("fig_subscribe N={subs_n}: seq gap at batch {round}")
            });
            crate::checks::check(u.lagged.is_none(), || {
                format!("fig_subscribe N={subs_n}: drained subscriber lagged at batch {round}")
            });
            for row in &u.outputs_lost {
                let prev = rows.remove(&row.id);
                crate::checks::check(prev.as_ref() == Some(&row.values), || {
                    format!("fig_subscribe N={subs_n}: lost row {} was not live", row.id)
                });
            }
            for row in &u.outputs_gained {
                let prev = rows.insert(row.id, row.values.clone());
                crate::checks::check(prev.is_none(), || {
                    format!("fig_subscribe N={subs_n}: gained row {} was live", row.id)
                });
            }
            cost += u.cost_drift;
            for t in &u.deletion_set_churn.removed {
                if let Ok(pos) = deletions.binary_search(t) {
                    deletions.remove(pos);
                }
            }
            for t in &u.deletion_set_churn.added {
                if let Err(pos) = deletions.binary_search(t) {
                    deletions.insert(pos, *t);
                }
            }

            let (epoch, snap) = push_svc.snapshot();
            let prep = PreparedQuery::new(q.clone(), snap);
            let mut fresh_rows = output_rows(&prep);
            fresh_rows.sort();
            let mut replica_rows: Vec<Box<[Value]>> = rows.values().cloned().collect();
            replica_rows.sort();
            crate::checks::check_eq(&replica_rows, &fresh_rows, || {
                format!("fig_subscribe N={subs_n}: replica rows diverged at batch {round}")
            });
            let k_eff = k.min(prep.output_count());
            if k_eff == 0 {
                crate::checks::check(cost == 0 && deletions.is_empty(), || {
                    format!("fig_subscribe N={subs_n}: empty view must cost 0 at batch {round}")
                });
            } else {
                let out = prep.solve(k_eff, &seq_greedy()).expect("oracle solve");
                crate::checks::check_eq(&cost, &(out.cost as i64), || {
                    format!("fig_subscribe N={subs_n}: replica cost diverged at batch {round}")
                });
                let base_pairs = push_svc
                    .to_base_tuples(&q_text, epoch, &out.solution.expect("greedy reports"))
                    .expect("coordinate bridge");
                let mut fresh_deletions: Vec<TupleRef> = base_pairs
                    .iter()
                    .map(|(name, idx)| {
                        let atom = rel_names
                            .iter()
                            .position(|r| r == name)
                            .expect("relation name maps to a query atom");
                        TupleRef::new(atom, *idx)
                    })
                    .collect();
                fresh_deletions.sort_unstable();
                crate::checks::check_eq(&deletions, &fresh_deletions, || {
                    format!("fig_subscribe N={subs_n}: deletion set diverged at batch {round}")
                });
            }
        }

        let stats = push_svc.stats();
        crate::checks::check_eq(&stats.shared_delta_applications, &(batches as u64), || {
            format!("fig_subscribe N={subs_n}: expected one shared advance per batch")
        });
        crate::checks::check_eq(&stats.updates_pushed, &((batches * subs_n) as u64), || {
            format!("fig_subscribe N={subs_n}: every subscriber gets every batch")
        });
        drop(receivers);

        crate::checks::check_eq(&bare_svc.epoch(), &(batches as u64), || {
            format!("fig_subscribe N={subs_n}: bare service must install every batch")
        });

        let push_per = push_ms / batches as f64;
        let pull_per = pull_ms / batches as f64;
        let install_per = install_ms / batches as f64;
        // What the subscription group adds to the mutation span beyond
        // the bare install (shared advance + target solve + sends). Clamped: both spans are measured, so
        // noise on tiny batches could dip the difference below zero.
        let apply_per = ((mutate_ms - install_ms) / batches as f64).max(0.0);
        let speedup = pull_ms / push_ms;
        fig.push(
            &format!("Push (1 advance + {subs_n} pushes)"),
            subs_n as f64,
            push_per,
            u64::MAX,
        );
        fig.push(
            &format!("Pull ({subs_n} re-solves)"),
            subs_n as f64,
            pull_per,
            u64::MAX,
        );
        println!(
            "      {subs_n} subscribers: push {push_per:.3} ms/batch \
             (install {install_per:.3} + advance/solve {apply_per:.3} + fan-out), \
             pull {pull_per:.3} ms/batch, pull/push {speedup:.1}x"
        );
        results.push(
            Json::obj()
                .field("subscribers", subs_n)
                .field("push_ms_per_batch", num(push_per, 3))
                .field("install_ms_per_batch", num(install_per, 4))
                .field("delta_apply_ms_per_batch", num(apply_per, 4))
                .field("pull_ms_per_batch", num(pull_per, 3))
                .field("speedup", num(speedup, 2))
                .field("updates_pushed", stats.updates_pushed)
                .field("shared_delta_applications", stats.shared_delta_applications)
                .field("lagged_drops", stats.lagged_drops),
        );
        push_per_batch.push(push_per);
        apply_per_batch.push(apply_per);
    }
    fig.finish();

    // The gate: one more subscriber costs a small share of the shared
    // advance and solve at N = 1.
    let flatness = push_per_batch[2] / push_per_batch[0];
    let increment = (push_per_batch[2] - push_per_batch[0]) / (fan_outs[2] - fan_outs[0]) as f64;
    let share = increment / apply_per_batch[0];
    let summary = format!(
        "fig_subscribe: each subscriber past the first adds {:.2} us per batch, {share:.3} of \
         the shared advance/solve {:.2} us (bound {SUBSCRIBE_INCREMENT_BOUND})",
        increment * 1e3,
        apply_per_batch[0] * 1e3
    );
    println!("  push N=64 / N=1 = {flatness:.2}x; {summary}");
    crate::checks::check(share <= SUBSCRIBE_INCREMENT_BOUND, || summary);

    crate::write_record(
        "fig-subscribe",
        Json::obj()
            .field("n", n)
            .field("batches", batches)
            .field("batch_size", batch_size)
            .field("k", k)
            .field("push_flatness_64_over_1", num(flatness, 2))
            .field("push_increment_ms_per_subscriber", num(increment, 5))
            .field("push_increment_bound", num(SUBSCRIBE_INCREMENT_BOUND, 2))
            .field("results", results),
    );
}

/// `fig_subscribe`'s gate: the per-subscriber increment of push
/// ms/batch over the shared advance-and-solve span at one subscriber.
/// Unlike a ratio of push totals at 64 and 1 subscribers, it does not
/// rise when the shared advance gets faster. A subscriber that advances
/// the state itself adds about half that span or more.
pub const SUBSCRIBE_INCREMENT_BOUND: f64 = 0.2;

/// `fig_htap`: the copy-on-write snapshot layer under HTAP load — the
/// acceptance harness for the O(Δ) write path.
///
/// **Phase A (write path).** For each input size a sealed base
/// snapshot absorbs one deterministic, always-effective delete/restore
/// stream two ways, both timed per batch:
///
/// * **"Epoch install (O(batch))"** — clone the current epoch (`Arc`
///   bumps on every sealed segment), tombstone / re-materialize the
///   batch, run threshold compaction, install the next
///   `Arc<Database>`.
/// * **"Full rebuild (O(n))"** — what a batch cost before the segment
///   layer: every surviving row re-materialized into fresh columnar
///   stores.
///
/// Sampled epochs (every 8th batch and the last) are byte-checked:
/// evaluation outputs and greedy picks on the installed epoch must
/// equal the rebuild's. Acceptance: across the 10× size step the
/// install stays flat (≤2× full mode; ≤4× quick, where both sides are
/// microseconds) while the rebuild grows ≥4× (≥3× quick).
///
/// **Phase B (HTAP storm).** 4 solver threads + 2 mutators + 2
/// subscribers share one [`Service`] while the main thread pins epoch
/// 0 end-to-end. Every response is answered from a recorded epoch and
/// re-solved against that exact snapshot (byte-equal cost / achieved /
/// solution); both subscribers must see gapless, strictly-monotone
/// updates; the pinned epoch must still evaluate byte-identically
/// after the storm. Mutation and solve latency quantiles land in
/// `BENCH_htap.json` together with the Phase A growth ratios.
///
/// [`Service`]: adp_service::Service
pub fn fig_htap() {
    use adp_core::solver::PreparedQuery;
    use adp_engine::RelationInstance;
    use adp_service::{Service, ServiceConfig, SolveRequest, SubscribeOptions, Target};
    use std::collections::{BTreeSet, HashMap};
    use std::sync::{Arc, Barrier, Mutex};
    use std::time::Duration;

    let sizes = size_ladder(&[20_000, 200_000], &[2_000, 20_000]);
    let batches = if quick_mode() { 24 } else { 64usize };
    let batch_size = 64usize; // Δ big enough that per-tuple work, not
                              // fixed clone overhead, dominates a batch
    let k = 4u64;
    let q = queries::qpath();

    // ---- Phase A: O(batch) install vs O(n) rebuild. ----
    let mut fig = Figure::new(
        "fig-htap",
        "HTAP write path: O(batch) epoch install vs O(n) rebuild (avg ms/batch)",
    );
    let mut write_sizes = Vec::new();
    // (install, rebuild) ms per batch, per size.
    let mut per_batch: Vec<(f64, f64)> = Vec::new();
    for &n in &sizes {
        let mut sealed =
            adp_datagen::zipf_pair(&ZipfConfig::new(n, 0.5, workload_seed(0x47A9), true));
        // Size-proportional seal policy: ~8 segments per relation at
        // every n, so the epoch header an install clones is O(1) in n
        // (the clone is O(Δ + segments); a fixed segment size would
        // leak an O(n / target) term into every install).
        sealed.seal_all((n / 8).max(1));
        let base = Arc::new(sealed);
        let rel_lens: Vec<u64> = q
            .atoms()
            .iter()
            .map(|a| base.expect(a.name()).len() as u64)
            .collect();
        let slots: Vec<usize> = q
            .atoms()
            .iter()
            .map(|a| {
                base.rel_id(a.name())
                    .expect("atom names a relation")
                    .index()
            })
            .collect();

        // The base sealed with nothing deleted, so base dense indices
        // are the permanent stable ids the stream addresses.
        let ops = effective_ops(workload_seed(0x47A9), batches, batch_size, &rel_lens);

        // Pass 1 (timed): the O(Δ) epoch-install chain alone, under
        // its own cache regime — interleaving the O(n) rebuild would
        // evict the chain's working set between batches and charge the
        // misses to the install. A whole chain is microseconds, so the
        // pass runs three times and the minimum counts (the usual
        // microbenchmark guard against allocator warm-up and frequency
        // noise); the streams are identical, so the last pass's
        // sampled epochs (kept alive by `Arc` bump, not copy) serve
        // the equality pass.
        let is_sample = |round: usize| round % 8 == 7 || round + 1 == batches;
        let mut sampled: Vec<Arc<Database>> = Vec::new();
        let mut install_ms = f64::INFINITY;
        for pass in 0..3 {
            let mut cur = Arc::clone(&base);
            let mut pass_ms = 0.0f64;
            for (round, (is_delete, batch)) in ops.iter().enumerate() {
                let t0 = Instant::now();
                cur = install(&cur, &base, &slots, *is_delete, batch.iter().copied());
                pass_ms += t0.elapsed().as_secs_f64() * 1e3;
                if pass == 2 && is_sample(round) {
                    sampled.push(Arc::clone(&cur));
                }
            }
            install_ms = install_ms.min(pass_ms);
        }

        // Pass 2 (timed): replay the stream as O(n) rebuilds — what a
        // batch cost before the segment layer — and byte-check the
        // sampled epochs against them.
        let mut dead: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); slots.len()];
        let mut rebuild_ms = 0.0f64;
        let mut checked = 0usize;
        let mut sampled = sampled.into_iter();
        for (round, (is_delete, batch)) in ops.iter().enumerate() {
            for &(a, idx) in batch {
                if *is_delete {
                    dead[a].insert(idx);
                } else {
                    dead[a].remove(&idx);
                }
            }

            let t1 = Instant::now();
            let mut fresh = Database::new();
            for (a, atom) in q.atoms().iter().enumerate() {
                let src = &base.relations()[slots[a]];
                let mut inst = RelationInstance::new(atom.clone());
                for stable in 0..rel_lens[a] as u32 {
                    if !dead[a].contains(&stable) {
                        inst.insert(&src.tuple_vec(stable));
                    }
                }
                fresh.add(inst);
            }
            rebuild_ms += t1.elapsed().as_secs_f64() * 1e3;

            // Untimed, sampled: the installed epoch answers
            // byte-identically to the from-scratch rebuild.
            if is_sample(round) {
                checked += 1;
                let cow = PreparedQuery::new(
                    q.clone(),
                    sampled.next().expect("one sampled epoch per sampled round"),
                );
                let oracle = PreparedQuery::new(q.clone(), Arc::new(fresh));
                crate::checks::check_eq(&output_rows(&cow), &output_rows(&oracle), || {
                    format!(
                        "fig_htap n={n}: epoch {} diverged from the fresh rebuild",
                        round + 1
                    )
                });
                let k_eff = k.min(cow.output_count());
                if k_eff > 0 {
                    let a = cow.solve(k_eff, &AdpOptions::default()).expect("cow solve");
                    let b = oracle
                        .solve(k_eff, &AdpOptions::default())
                        .expect("oracle solve");
                    crate::checks::check_eq(&a.cost, &b.cost, || {
                        format!(
                            "fig_htap n={n}: greedy cost diverged at epoch {}",
                            round + 1
                        )
                    });
                    crate::checks::check_eq(&a.solution, &b.solution, || {
                        format!(
                            "fig_htap n={n}: greedy picks diverged at epoch {}",
                            round + 1
                        )
                    });
                }
            }
        }

        let install_per = install_ms / batches as f64;
        let rebuild_per = rebuild_ms / batches as f64;
        fig.push("Epoch install (O(batch))", n as f64, install_per, u64::MAX);
        fig.push("Full rebuild (O(n))", n as f64, rebuild_per, u64::MAX);
        println!(
            "      n={n}: install {install_per:.4} ms/batch vs rebuild {rebuild_per:.3} ms/batch \
             ({checked} epochs byte-checked)"
        );
        write_sizes.push(
            Json::obj()
                .field("n", n)
                .field("install_ms_per_batch", num(install_per, 4))
                .field("rebuild_ms_per_batch", num(rebuild_per, 4)),
        );
        per_batch.push((install_per, rebuild_per));
    }
    fig.finish();

    let (first, last) = (per_batch[0], per_batch[per_batch.len() - 1]);
    let install_growth = last.0 / first.0.max(1e-6);
    let rebuild_growth = last.1 / first.1.max(1e-6);
    // Acceptance: install flat across the 10× size step, rebuild not.
    // Quick mode runs instances where the install is single-digit
    // microseconds, so its cap absorbs timer noise.
    let (flat_cap, growth_floor) = if quick_mode() { (4.0, 3.0) } else { (2.0, 4.0) };
    crate::checks::check(install_growth <= flat_cap, || {
        format!(
            "fig_htap: epoch install grew {install_growth:.2}x across a 10x size step \
             (cap {flat_cap}x) — the write path must be O(batch), not O(n)"
        )
    });
    crate::checks::check(rebuild_growth >= growth_floor, || {
        format!(
            "fig_htap: the O(n) rebuild grew only {rebuild_growth:.2}x across a 10x size \
             step (floor {growth_floor}x) — the baseline is not exercising n"
        )
    });
    println!("    10x size step: install x{install_growth:.2}, rebuild x{rebuild_growth:.2}");

    // ---- Phase B: the storm. ----
    let n_htap = sizes[0];
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(n_htap, 0.5, workload_seed(0x47A9), true));
    let svc = Arc::new(Service::with_config(
        db,
        ServiceConfig {
            max_in_flight: 256,
            segment_target_rows: (n_htap / 8).max(1), // several segments per relation
            compact_tombstone_pct: 25,                // compactions fire mid-storm
            ..Default::default()
        },
    ));
    let q_text = format!("{q}");
    let stmt = svc.prepare(&q_text).expect("hot query parses");

    let solvers = 4usize;
    let solver_iters = if quick_mode() { 8 } else { 25 };
    let mutators = 2usize;
    let ops_per_mutator: u64 = if quick_mode() { 12 } else { 32 };
    let subs_n = 2usize;
    let total_epochs = mutators as u64 * ops_per_mutator;
    println!(
        "  storm: n={n_htap}, {solvers} solvers x {solver_iters}, {mutators} mutators x \
         {ops_per_mutator}, {subs_n} subscribers, epoch 0 pinned throughout"
    );

    let receivers: Vec<_> = (0..subs_n)
        .map(|_| {
            svc.subscribe(
                &stmt,
                Target::Outputs(k),
                SubscribeOptions::default().with_buffer(total_epochs as usize + 8),
            )
            .expect("subscribe")
            .1
        })
        .collect();

    // Epoch → snapshot oracle map; the install lock makes each
    // mutator's install+snapshot atomic, so every epoch is recorded.
    let snapshots: Mutex<HashMap<u64, Arc<Database>>> = Mutex::new(HashMap::new());
    snapshots.lock().unwrap().insert(0, svc.snapshot().1);
    let install_lock = Mutex::new(());
    let mutation_lat: Mutex<Vec<f64>> = Mutex::default();
    let solve_lat: Mutex<Vec<f64>> = Mutex::default();
    let responses: Mutex<Vec<(u64, u64, adp_service::SolveResponse)>> = Mutex::default();
    // The in-flight reader: epoch 0 stays pinned across the storm.
    let pinned = svc.snapshot().1;
    let rel0 = q.atoms()[0].name().to_string();

    let barrier = Barrier::new(solvers + mutators + subs_n);
    std::thread::scope(|scope| {
        for t in 0..solvers {
            let svc = Arc::clone(&svc);
            let (barrier, responses, solve_lat) = (&barrier, &responses, &solve_lat);
            let q_text = q_text.as_str();
            scope.spawn(move || {
                barrier.wait();
                for i in 0..solver_iters {
                    let kk = 1 + ((t + i) % 3) as u64;
                    let pre = svc.epoch();
                    let t0 = Instant::now();
                    let resp = svc
                        .solve(&SolveRequest::outputs(q_text, kk))
                        .expect("ample admission limit: nothing sheds");
                    solve_lat
                        .lock()
                        .unwrap()
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                    responses.lock().unwrap().push((pre, kk, resp));
                }
            });
        }
        // Disjoint index ranges: every delete is effective, so
        // subscription seqs count every epoch bump.
        for m in 0..mutators {
            let svc = Arc::clone(&svc);
            let (barrier, snapshots, install_lock, mutation_lat) =
                (&barrier, &snapshots, &install_lock, &mutation_lat);
            let rel0 = rel0.as_str();
            scope.spawn(move || {
                barrier.wait();
                for i in 0..ops_per_mutator {
                    let idx = (m as u64 * ops_per_mutator + i) as u32;
                    let guard = install_lock.lock().unwrap();
                    let t0 = Instant::now();
                    let epoch = svc.delete_tuples(&[(rel0, idx)]).expect("effective delete");
                    let dt = t0.elapsed().as_secs_f64() * 1e3;
                    let (snap_epoch, snap) = svc.snapshot();
                    drop(guard);
                    assert_eq!(snap_epoch, epoch, "install lock serializes mutators");
                    snapshots.lock().unwrap().insert(epoch, snap);
                    mutation_lat.lock().unwrap().push(dt);
                    std::thread::yield_now();
                }
            });
        }
        for rx in receivers {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let mut next_seq = 0u64;
                let mut last_epoch = 0u64;
                while next_seq < total_epochs {
                    let u = rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("subscriber starved");
                    assert!(u.lagged.is_none(), "ample buffers must never lag");
                    assert_eq!(u.seq, next_seq, "subscription seq gap");
                    assert!(u.epoch > last_epoch, "epochs must be strictly monotone");
                    last_epoch = u.epoch;
                    next_seq += 1;
                }
            });
        }
    });

    // Every response re-solved against the exact snapshot it was
    // answered from.
    let snapshots = snapshots.into_inner().unwrap();
    let responses = responses.into_inner().unwrap();
    crate::checks::check_eq(&(snapshots.len() as u64), &(total_epochs + 1), || {
        "fig_htap: every epoch must be recorded".to_string()
    });
    let mut preps: HashMap<u64, PreparedQuery> = HashMap::new();
    let mut oracle_checked = 0usize;
    for (pre, kk, resp) in &responses {
        crate::checks::check(resp.stats.epoch >= *pre, || {
            format!(
                "fig_htap: stale answer (issued at epoch {pre}, answered from {})",
                resp.stats.epoch
            )
        });
        let Some(snap) = snapshots.get(&resp.stats.epoch) else {
            crate::checks::check(false, || {
                format!(
                    "fig_htap: response from unrecorded epoch {}",
                    resp.stats.epoch
                )
            });
            continue;
        };
        let prep = preps
            .entry(resp.stats.epoch)
            .or_insert_with(|| PreparedQuery::new(q.clone(), Arc::clone(snap)));
        let k_eff = (*kk).min(resp.outcome.output_count);
        if k_eff == 0 {
            crate::checks::check_eq(&resp.outcome.cost, &0, || {
                format!(
                    "fig_htap: empty view must cost 0 at epoch {}",
                    resp.stats.epoch
                )
            });
            continue;
        }
        let oracle = prep
            .solve(k_eff, &AdpOptions::default())
            .expect("oracle solve");
        crate::checks::check_eq(&resp.outcome.cost, &oracle.cost, || {
            format!(
                "fig_htap: cost diverged at epoch {} k={kk}",
                resp.stats.epoch
            )
        });
        crate::checks::check_eq(&resp.outcome.achieved, &oracle.achieved, || {
            format!(
                "fig_htap: achieved diverged at epoch {} k={kk}",
                resp.stats.epoch
            )
        });
        crate::checks::check_eq(&resp.outcome.solution, &oracle.solution, || {
            format!(
                "fig_htap: solution diverged at epoch {} k={kk}",
                resp.stats.epoch
            )
        });
        oracle_checked += 1;
    }

    // The pinned epoch 0 still evaluates byte-identically to a fresh
    // build of the same data — the storm never touched its segments.
    let fresh0 = Arc::new(adp_datagen::zipf_pair(&ZipfConfig::new(
        n_htap,
        0.5,
        workload_seed(0x47A9),
        true,
    )));
    let pinned_rows = output_rows(&PreparedQuery::new(q.clone(), pinned));
    let fresh_rows = output_rows(&PreparedQuery::new(q.clone(), fresh0));
    crate::checks::check_eq(&pinned_rows, &fresh_rows, || {
        "fig_htap: pinned epoch 0 drifted under the storm".to_string()
    });

    let mut mlat = mutation_lat.into_inner().unwrap();
    mlat.sort_by(f64::total_cmp);
    let mut slat = solve_lat.into_inner().unwrap();
    slat.sort_by(f64::total_cmp);
    let (mutation_p50, mutation_p99) = (percentile(&mlat, 0.5), percentile(&mlat, 0.99));
    let (solve_p50, solve_p99) = (percentile(&slat, 0.5), percentile(&slat, 0.99));
    let stats = svc.stats();
    crate::checks::check_eq(&stats.epoch_bumps, &total_epochs, || {
        "fig_htap: every mutation must bump the epoch".to_string()
    });
    crate::checks::check_eq(&stats.lagged_drops, &0u64, || {
        "fig_htap: ample buffers must never lag".to_string()
    });
    crate::checks::check(mutation_p99 < 250.0, || {
        format!(
            "fig_htap: mutation p99 {mutation_p99:.3} ms — the write path must not wait on \
             pinned readers"
        )
    });
    println!(
        "      mutation p50 {mutation_p50:.4} ms, p99 {mutation_p99:.4} ms; solve p50 \
         {solve_p50:.3} ms, p99 {solve_p99:.3} ms; {oracle_checked} of {} answers oracle-checked",
        responses.len()
    );

    crate::write_record(
        "fig-htap",
        Json::obj()
            .field(
                "write_path",
                Json::obj()
                    .field("batches", batches)
                    .field("batch_size", batch_size)
                    .field("sizes", write_sizes)
                    .field("install_growth_10x", num(install_growth, 3))
                    .field("rebuild_growth_10x", num(rebuild_growth, 3)),
            )
            .field(
                "htap",
                Json::obj()
                    .field("n", n_htap)
                    .field("solvers", solvers)
                    .field("mutators", mutators)
                    .field("subscribers", subs_n)
                    .field("epochs", total_epochs)
                    .field("responses", responses.len())
                    .field("oracle_checked", oracle_checked)
                    .field("mutation_p50_ms", num(mutation_p50, 4))
                    .field("mutation_p99_ms", num(mutation_p99, 4))
                    .field("solve_p50_ms", num(solve_p50, 4))
                    .field("solve_p99_ms", num(solve_p99, 4))
                    .field("updates_pushed", stats.updates_pushed)
                    .field("lagged_drops", stats.lagged_drops),
            ),
    );
}

/// `fig_scale`: paper-scale storage and parallel-join scaling. For each
/// input size (the full ladder tops out at 3M rows, 10× the largest
/// size any other figure touches) the harness:
///
/// 1. streams a TPC-H chain instance straight into the columnar stores
///    and reports [`Database::memory_report`] (tuples, interned
///    symbols, resident bytes — the numbers behind the ~8 B/tuple
///    claim);
/// 2. sweeps worker counts with **local** pools, timing the partitioned
///    index build ([`QueryPlan::build_indexes_on`]; the median of three
///    builds after one untimed warm-up, because the first build in a
///    process that holds the t=1 evaluation measured several times
///    slower), the chunk-parallel
///    probe ([`QueryPlan::execute_on`]), and one delta greedy scoring
///    round ([`DeltaProvenance::try_new_on`]) at each count;
/// 3. checks — not just reports — that every parallel result is
///    **byte-identical** to the single-worker run (eval results and
///    profit maps alike);
/// 4. writes the whole record as `BENCH_scale.json` next to the CSV
///    lines.
///
/// On a single-core box the sweep still runs (pools oversubscribe);
/// speedups are reported as measured, whatever they are.
///
/// [`Database::memory_report`]: adp_engine::database::Database::memory_report
/// [`QueryPlan::build_indexes_on`]: adp_engine::plan::QueryPlan::build_indexes_on
/// [`QueryPlan::execute_on`]: adp_engine::plan::QueryPlan::execute_on
/// [`DeltaProvenance::try_new_on`]: adp_engine::delta::DeltaProvenance::try_new_on
pub fn fig_scale() {
    use adp_datagen::tpch::TpchConfig;
    use adp_engine::delta::DeltaProvenance;
    use adp_engine::plan::QueryPlan;
    use adp_engine::provenance::ProvenanceIndex;
    use adp_runtime::ThreadPool;

    let sizes = size_ladder(&[300_000, 1_000_000, 3_000_000], &[30_000, 100_000]);
    let threads_sweep: Vec<usize> = {
        let cap = crate::cli::args()
            .threads
            .unwrap_or_else(adp_runtime::auto_threads)
            .max(4);
        let mut v = vec![1usize];
        let mut t = 2;
        while t <= cap {
            v.push(t);
            t *= 2;
        }
        v
    };
    let q = queries::q1();
    let mut fig = Figure::new(
        "fig-scale",
        "Columnar storage + partition-parallel joins at paper scale",
    );
    println!("  worker sweep: {threads_sweep:?} (local pools; global pool untouched)");
    let mut results = Vec::new();

    for &n in &sizes {
        let start = Instant::now();
        // No hot part: the σPK=0 skew of the selection figures makes
        // |witnesses| quadratic in n, which would measure output blowup
        // rather than engine scaling. With it off the chain's fan-out is
        // constant and |witnesses| ≈ 2.2 n across the whole ladder.
        let cfg = TpchConfig {
            hot_part_share: 0.0,
            ..TpchConfig::scaled(n, workload_seed(0x5CA1))
        };
        let db = adp_datagen::tpch_chain(&cfg);
        let gen_ms = start.elapsed().as_secs_f64() * 1e3;
        let mem = db.memory_report();
        println!(
            "  n={n}: generated {} tuples in {gen_ms:.0} ms, {} symbols, \
             {} bytes resident ({:.1} B/tuple)",
            mem.total_tuples,
            mem.total_symbols,
            mem.total_bytes,
            mem.bytes_per_tuple()
        );
        fig.push("datagen [ms]", n as f64, gen_ms, u64::MAX);
        fig.push(
            "storage [B/tuple]",
            n as f64,
            mem.bytes_per_tuple(),
            u64::MAX,
        );

        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        // Baseline: one worker, one partition, one chunk.
        let mut baseline: Option<(adp_engine::EvalResult, Vec<_>)> = None;
        let mut thread_records = Vec::new();
        let mut prov_ms = 0.0f64;
        for &t in &threads_sweep {
            let pool = ThreadPool::new(t);

            // One untimed warm-up build, then the median of three timed
            // ones; each build's predecessor is freed before its clock
            // starts.
            let mut idx = plan.build_indexes_on(&db, &pool, None);
            let mut build_times = Vec::with_capacity(3);
            for _ in 0..3 {
                drop(idx);
                let start = Instant::now();
                idx = plan.build_indexes_on(&db, &pool, None);
                build_times.push(start.elapsed().as_secs_f64() * 1e3);
            }
            build_times.sort_by(f64::total_cmp);
            let build_ms = percentile(&build_times, 0.5);

            let start = Instant::now();
            let eval = plan.execute_on(&db, &idx, None, &pool);
            let exec_ms = start.elapsed().as_secs_f64() * 1e3;

            // One greedy scoring round: the per-round cost the solvers
            // pay, fanned out over this pool.
            let start = Instant::now();
            let delta = DeltaProvenance::try_new_on(&eval, &pool).expect("fits u32 ids");
            let score_ms = start.elapsed().as_secs_f64() * 1e3;

            if t == 1 {
                // The rescan reference's incidence build (no solver path
                // builds it), timed once per size for the JSON record.
                let start = Instant::now();
                let prov = ProvenanceIndex::try_new(&eval).expect("fits u32 ids");
                prov_ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(prov.live_outputs(), eval.output_count());
            }

            match &baseline {
                None => baseline = Some((eval, delta.profits())),
                Some((base_eval, base_profits)) => {
                    crate::checks::check(*base_eval == eval, || {
                        format!("fig_scale n={n} t={t}: parallel eval diverged from t=1")
                    });
                    crate::checks::check(*base_profits == delta.profits(), || {
                        format!("fig_scale n={n} t={t}: parallel profits diverged from t=1")
                    });
                }
            }

            fig.push(&format!("build t={t}"), n as f64, build_ms, u64::MAX);
            fig.push(&format!("probe t={t}"), n as f64, exec_ms, u64::MAX);
            fig.push(&format!("score t={t}"), n as f64, score_ms, u64::MAX);
            thread_records.push(
                Json::obj()
                    .field("threads", t)
                    .field("build_ms", num(build_ms, 3))
                    .field("exec_ms", num(exec_ms, 3))
                    .field("score_ms", num(score_ms, 3))
                    .field("partitions", idx.partition_counts()),
            );
        }
        let (base_eval, _) = baseline.as_ref().expect("sweep includes t=1");
        let witnesses = base_eval.witness_count();
        let outputs = base_eval.output_count();
        println!("  n={n}: |witnesses|={witnesses}, |Q(D)|={outputs}, prov build {prov_ms:.0} ms");

        let relations: Vec<Json> = mem
            .relations
            .iter()
            .map(|rel| {
                Json::obj()
                    .field("name", rel.name.as_str())
                    .field("tuples", rel.tuples)
                    .field("arity", rel.arity)
                    .field("symbols", rel.symbols)
                    .field("approx_bytes", rel.approx_bytes)
            })
            .collect();
        results.push(
            Json::obj()
                .field("n", n)
                .field("gen_ms", num(gen_ms, 3))
                .field("witnesses", witnesses)
                .field("outputs", outputs)
                .field("prov_build_ms", num(prov_ms, 3))
                .field(
                    "memory",
                    Json::obj()
                        .field("total_tuples", mem.total_tuples)
                        .field("total_symbols", mem.total_symbols)
                        .field("total_bytes", mem.total_bytes)
                        .field("bytes_per_tuple", num(mem.bytes_per_tuple(), 2))
                        .field("relations", relations),
                )
                .field("threads", thread_records),
        );
    }
    fig.finish();

    crate::write_record(
        "fig-scale",
        Json::obj()
            .field("sizes", sizes)
            .field("thread_sweep", threads_sweep)
            .field("results", results),
    );
}

/// `fig_open_loop`: the serving knee under open-loop (Poisson) load.
///
/// Closed-loop load hides overload: a slow response slows the
/// *generator* down. This harness does the opposite — requests arrive
/// on a Poisson schedule that does not care whether the server kept up,
/// and each request's latency is measured from its *scheduled* arrival,
/// so queueing delay counts. The sweep offers
/// multiples of the measured saturation throughput and reports, per
/// offered rate:
///
/// * p50 / p95 / p99 latency of completed requests vs an SLO derived
///   from the calibration run (`max(5 ms, 10× closed-loop mean)`),
/// * the shed rate — requests the server refused with a typed
///   `Overloaded` frame (admission control doing its job), and
/// * goodput — completed (non-shed) requests per second.
///
/// Expected shape, checked not just reported: p99 within the SLO at
/// ≤ 50 % of saturation, and a measurable knee past it (p99 blowing
/// through the SLO and/or typed sheds appearing). Every response still
/// travels the real wire path: TCP loopback, framed protocol, one
/// connection per load worker. Writes `BENCH_open_loop.json`.
pub fn fig_open_loop() {
    use adp_server::client::Client;
    use adp_server::server::{Server, ServerConfig};
    use adp_service::{Service, ServiceConfig, Target};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    // Deterministic exponential inter-arrival sampler (splitmix64 under
    // the hood; the workspace takes no RNG dependency in adp-bench).
    struct Arrivals {
        state: u64,
    }
    impl Arrivals {
        fn next_f64(&mut self) -> f64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Exponential with rate `lambda` (per second), in seconds.
        fn exp(&mut self, lambda: f64) -> f64 {
            -(1.0 - self.next_f64()).ln() / lambda
        }
    }

    let quick = quick_mode();
    let n = if quick { 2_000 } else { 20_000 };
    // Admission cap below the worker count, so overload has somewhere
    // to go: the excess workers' requests shed with a typed frame.
    let cap = if quick { 4 } else { 8 };
    let workers = cap + 2;
    let cal_rounds = if quick { 60 } else { 200 };
    let point_secs = if quick { 1.2 } else { 4.0 };
    let multipliers: &[f64] = if quick {
        &[0.25, 0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };

    let q = queries::qpath();
    let q_text = format!("{q}");
    let db = adp_datagen::zipf_pair(&ZipfConfig::new(n, 0.5, workload_seed(0x09E7), true));
    let svc = Arc::new(Service::with_config(
        db,
        ServiceConfig {
            max_in_flight: cap,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::start(
        Arc::clone(&svc),
        None,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.addr();
    let targets = [1u64, 2, 3, 4];

    // ---- Calibration: closed loop at exactly the admission cap. ----
    // `cap` blocking workers can never trip admission control (each has
    // one request in flight), so this measures clean saturation: the
    // aggregate completion rate is the knee, and the mean latency seeds
    // the SLO.
    let cal_start = Instant::now();
    let cal_total_micros = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for w in 0..cap {
        let total_micros = Arc::clone(&cal_total_micros);
        let q_text = q_text.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("calibration connect");
            let stmt = c.prepare(&q_text).expect("calibration prepare");
            for i in 0..cal_rounds {
                let k = targets[(w + i) % targets.len()];
                let t0 = Instant::now();
                c.solve_stmt(stmt, Target::Outputs(k), None)
                    .expect("calibration solve");
                total_micros.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().expect("calibration worker");
    }
    let cal_wall = cal_start.elapsed().as_secs_f64();
    let cal_count = (cap * cal_rounds) as f64;
    let saturation_qps = cal_count / cal_wall;
    let mean_ms = cal_total_micros.load(Ordering::Relaxed) as f64 / cal_count / 1_000.0;
    let slo_p99_ms = (10.0 * mean_ms).max(5.0);
    println!(
        "calibration: {cal_count:.0} solves in {cal_wall:.2}s -> saturation {saturation_qps:.0} \
         req/s, mean {mean_ms:.3} ms, SLO p99 <= {slo_p99_ms:.3} ms"
    );

    // ---- The open-loop sweep. ----
    let mut figure = Figure::new(
        "fig-open-loop",
        "Open-loop serving: latency vs offered load (Poisson arrivals)",
    );
    let mut points = Vec::new();
    let mut total_transport = 0usize;
    // p99 at the lowest offered rate, and (p99, sheds) at the highest:
    // the knee check compares them.
    let (mut low_p99, mut top) = (f64::NAN, (f64::NAN, 0usize));
    for (i, &mult) in multipliers.iter().enumerate() {
        let offered = (saturation_qps * mult).max(1.0);
        // One shared Poisson schedule, dealt round-robin to the load
        // workers: the aggregate arrival process is the target rate and
        // does not slow down when the server does.
        let mut arrivals = Arrivals {
            state: workload_seed(0x09E7) ^ (mult * 1e4) as u64,
        };
        let mut schedule: Vec<f64> = Vec::new();
        let mut t = 0.0;
        while t < point_secs && schedule.len() < 60_000 {
            t += arrivals.exp(offered);
            schedule.push(t);
        }
        let sent = schedule.len();

        let mut handles = Vec::new();
        for w in 0..workers {
            let my_arrivals: Vec<(usize, f64)> = schedule
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % workers == w)
                .collect();
            let q_text = q_text.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("load connect");
                let stmt = c.prepare(&q_text).expect("load prepare");
                let start = Instant::now();
                let mut latencies_ms: Vec<f64> = Vec::with_capacity(my_arrivals.len());
                let (mut shed, mut transport_errors) = (0usize, 0usize);
                for (i, at) in my_arrivals {
                    let due = Duration::from_secs_f64(at);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let k = targets[i % targets.len()];
                    match c.solve_stmt(stmt, Target::Outputs(k), None) {
                        // Latency from the *scheduled* arrival: queueing
                        // behind a busy worker counts against the SLO.
                        Ok(_) => latencies_ms
                            .push((start.elapsed().as_secs_f64() - at).max(0.0) * 1_000.0),
                        Err(e) if e.is_overloaded() => shed += 1,
                        Err(_) => transport_errors += 1,
                    }
                }
                (latencies_ms, shed, transport_errors)
            }));
        }
        let run_start = Instant::now();
        let mut latencies: Vec<f64> = Vec::new();
        let (mut shed, mut transport_errors) = (0usize, 0usize);
        for h in handles {
            let (l, s, t) = h.join().expect("load worker");
            latencies.extend(l);
            shed += s;
            transport_errors += t;
        }
        let wall = run_start.elapsed().as_secs_f64().max(point_secs);
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let goodput_qps = latencies.len() as f64 / wall;
        let (p50_ms, p95_ms, p99_ms) = (
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.95),
            percentile(&latencies, 0.99),
        );
        println!(
            "offered {offered:>7.0} req/s ({mult:>4.2}x): p50 {p50_ms:>8.3} ms, p99 {p99_ms:>9.3} ms, \
             goodput {goodput_qps:>7.0} req/s, shed {:>5.1}% ({shed} of {sent})",
            100.0 * shed as f64 / sent.max(1) as f64,
        );
        figure.push("p99 ms", mult, p99_ms, shed as u64);
        total_transport += transport_errors;
        if i == 0 {
            low_p99 = p99_ms;
        }
        top = (p99_ms, shed);
        if mult <= 0.5 {
            // One-core CI boxes oversleep the Poisson schedule under
            // thread contention, which shows up as generator (not
            // server) tail noise; quick runs check the p95 against a
            // padded SLO and leave the strict p99 gate to the full run.
            let (tail, ms, slo) = if quick {
                ("p95", p95_ms, slo_p99_ms.max(50.0))
            } else {
                ("p99", p99_ms, slo_p99_ms)
            };
            crate::checks::check(ms <= slo, || {
                format!("open-loop: {tail} {ms:.3} ms blows the {slo:.3} ms SLO at {mult:.2}x saturation")
            });
        }
        points.push(
            Json::obj()
                .field("multiplier", num(mult, 2))
                .field("offered_qps", num(offered, 1))
                .field("sent", sent)
                .field("completed", sent - shed - transport_errors)
                .field("shed", shed)
                .field("shed_rate", num(shed as f64 / sent.max(1) as f64, 4))
                .field("goodput_qps", num(goodput_qps, 1))
                .field("p50_ms", num(p50_ms, 4))
                .field("p95_ms", num(p95_ms, 4))
                .field("p99_ms", num(p99_ms, 4))
                .field("within_slo", p99_ms <= slo_p99_ms),
        );
    }

    // ---- Overload probe: typed sheds past the knee. ----
    // The sweep's blocking workers can convoy on small machines (one
    // runnable solver at a time never trips admission control), so the
    // shed behaviour gets its own unambiguous probe: 3× the admission
    // cap of clients release one *heavy* solve each simultaneously.
    // Those solves are long enough that the OS must interleave them,
    // so in-flight exceeds the cap and the excess must come back as
    // typed `Overloaded` frames — never dropped connections.
    let burst = cap * 3;
    let (mut probe_ok, mut probe_shed, mut probe_err) = (0u64, 0u64, 0u64);
    // Whether a given burst overlaps enough to trip the cap is up to
    // the OS scheduler; a couple of rounds make the signal reliable
    // without weakening the assertion (any shed is a typed frame).
    for _round in 0..3 {
        let barrier = Arc::new(std::sync::Barrier::new(burst));
        let mut handles = Vec::new();
        for _ in 0..burst {
            let barrier = Arc::clone(&barrier);
            let q_text = q_text.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("probe connect");
                let stmt = c.prepare(&q_text).expect("probe prepare");
                barrier.wait();
                match c.solve_stmt(stmt, Target::Ratio(0.9), None) {
                    Ok(_) => (1u64, 0u64, 0u64),
                    Err(e) if e.is_overloaded() => (0, 1, 0),
                    Err(_) => (0, 0, 1),
                }
            }));
        }
        for h in handles {
            let (ok, shed, err) = h.join().expect("probe worker");
            probe_ok += ok;
            probe_shed += shed;
            probe_err += err;
        }
        if probe_shed > 0 {
            break;
        }
    }
    println!(
        "overload probe: bursts of {burst} simultaneous heavy solves vs cap {cap} -> \
         {probe_ok} served, {probe_shed} shed (typed), {probe_err} transport errors"
    );
    server.stop();

    // ---- The knee must be measurable, not just plotted. ----
    crate::checks::check(total_transport == 0, || {
        format!("open-loop: {total_transport} transport errors (sheds must be typed frames)")
    });
    let top_mult = multipliers[multipliers.len() - 1];
    crate::checks::check(top.0 > low_p99 || top.1 > 0, || {
        format!(
            "open-loop: no knee — p99 {low_p99:.3} -> {:.3} ms and zero sheds at {top_mult:.2}x",
            top.0
        )
    });
    crate::checks::check(probe_shed > 0, || {
        format!(
            "open-loop: {burst} simultaneous heavy solves against an admission cap of {cap} \
             produced no typed sheds"
        )
    });
    crate::checks::check(probe_ok >= 1 && probe_err == 0, || {
        format!(
            "open-loop probe: {probe_ok} served, {probe_err} transport errors \
             (overload must degrade, not break)"
        )
    });

    crate::write_record(
        "fig-open-loop",
        Json::obj()
            .field(
                "calibration",
                Json::obj()
                    .field("workers", cap)
                    .field("mean_ms", num(mean_ms, 4))
                    .field("saturation_qps", num(saturation_qps, 1))
                    .field("slo_p99_ms", num(slo_p99_ms, 4)),
            )
            .field("load_workers", workers)
            .field("admission_cap", cap)
            .field(
                "overload_probe",
                Json::obj()
                    .field("burst", burst)
                    .field("served", probe_ok)
                    .field("shed", probe_shed)
                    .field("transport_errors", probe_err),
            )
            .field("points", points),
    );
    figure.finish();
}
