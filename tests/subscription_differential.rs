//! Differential tests for push subscriptions: pushed diffs are not
//! advisory — they are the *whole truth* about the view.
//!
//! The invariant: subscribe at some epoch, keep a replica consisting of
//! the live output rows, the target's greedy cost, and its deletion set
//! (in base coordinates), all seeded from fresh solves at subscription
//! time. After **every** interleaved delete/restore batch, apply the
//! pushed [`ViewUpdate`] diffs — gained/lost rows, `cost_drift`,
//! `deletion_set_churn` — and the replica must **byte-identically**
//! equal a fresh evaluation + greedy solve of the current snapshot:
//! same output rows, same cost, same deletion set. Sequentially and on
//! a pinned 4-worker pool (which routes the subscription's one-time
//! scoring build through the parallel range partitioner).
//!
//! Between batches the replay also runs pull solves on the same
//! statement at random targets, some with `force_greedy` at ratios of
//! one half and more: pull and push share the statement's pooled greedy
//! states, such a solve drops the state it ran on, and the next push
//! must rebuild it without a byte of difference.
//!
//! Also pinned here: the sharing contract (N subscribers on one
//! normalized statement ⇒ exactly one delta application per batch) and
//! the gapless `seq` numbering over effective batches.

use adp::core::solver::{AdpOptions, AdpOutcome, PreparedQuery};
use adp::service::{Service, SubscribeOptions, Target, ViewUpdate};
use adp::{parse_query, Database, TupleRef, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pins the global pool to 4 workers so the parallel scoring build and
/// parallel fresh solves genuinely run multi-threaded.
fn four_workers() {
    let _ = adp::runtime::configure_global(4);
    assert_eq!(adp::runtime::global().threads(), 4);
}

/// Fresh solves use the same greedy family the maintained subscription
/// state implements, so costs and deletion sets are comparable
/// byte-for-byte (the exact solvers could legitimately answer less).
fn greedy_opts(sequential: bool) -> AdpOptions {
    AdpOptions {
        force_greedy: true,
        sequential,
        ..Default::default()
    }
}

/// A subscriber's materialized replica, advanced only by pushed diffs.
struct Replica {
    /// Live output rows keyed by their base-evaluation id.
    rows: BTreeMap<u32, Box<[Value]>>,
    cost: i64,
    /// The target's recommended deletion set, sorted, base coordinates.
    deletions: Vec<TupleRef>,
}

impl Replica {
    /// Seeds from fresh solves at the subscription epoch.
    fn seed(svc: &Service, query_text: &str, target: Target) -> Replica {
        let (epoch, snap) = svc.snapshot();
        assert_eq!(epoch, 0, "replicas subscribe at epoch 0 in this suite");
        let q = parse_query(query_text).unwrap();
        let prep = PreparedQuery::new(q, snap);
        let rows = prep
            .eval()
            .outputs()
            .enumerate()
            .map(|(i, row)| (i as u32, row.into()))
            .collect();
        let k = resolve_k(target, prep.output_count());
        let (cost, deletions) = if k == 0 {
            (0, Vec::new())
        } else {
            let out = prep.solve(k, &greedy_opts(true)).unwrap();
            let mut d = out.solution.unwrap();
            d.sort_unstable();
            (out.cost as i64, d)
        };
        Replica {
            rows,
            cost,
            deletions,
        }
    }

    /// Applies one pushed diff, asserting its internal consistency
    /// (a row may only die while present, only revive while absent).
    fn apply(&mut self, u: &ViewUpdate) {
        for row in &u.outputs_lost {
            let prev = self.rows.remove(&row.id);
            assert_eq!(
                prev.as_ref(),
                Some(&row.values),
                "lost row {} must have been live with these values",
                row.id
            );
        }
        for row in &u.outputs_gained {
            let prev = self.rows.insert(row.id, row.values.clone());
            assert!(prev.is_none(), "gained row {} must have been dead", row.id);
        }
        self.cost += u.cost_drift;
        for t in &u.deletion_set_churn.removed {
            let pos = self
                .deletions
                .binary_search(t)
                .unwrap_or_else(|_| panic!("churn removed {t:?} not in replica set"));
            self.deletions.remove(pos);
        }
        for t in &u.deletion_set_churn.added {
            let pos = self
                .deletions
                .binary_search(t)
                .expect_err("churn added a tuple already in the replica set");
            self.deletions.insert(pos, *t);
        }
    }
}

/// `k` for `target` over `total` live outputs, as the service resolves
/// it: counts clamp to the view, ratios round up.
fn resolve_k(target: Target, total: u64) -> u64 {
    match target {
        Target::Outputs(k) => k.min(total),
        Target::Ratio(rho) => ((total as f64 * rho).ceil() as u64).min(total),
    }
}

/// The fresh-solve oracle at the current epoch: output rows from a
/// direct evaluation of the snapshot, cost + deletion set from a fresh
/// greedy solve, the latter mapped back to base coordinates through the
/// service's own bridge.
fn fresh_state(
    svc: &Service,
    query_text: &str,
    target: Target,
    sequential: bool,
) -> (Vec<Box<[Value]>>, i64, Vec<TupleRef>) {
    let (epoch, snap) = svc.snapshot();
    let q = parse_query(query_text).unwrap();
    let prep = PreparedQuery::new(q.clone(), snap);
    let mut rows: Vec<Box<[Value]>> = prep.eval().outputs().map(Box::from).collect();
    rows.sort();
    let k_eff = resolve_k(target, prep.output_count());
    if k_eff == 0 {
        return (rows, 0, Vec::new());
    }
    let out = prep.solve(k_eff, &greedy_opts(sequential)).unwrap();
    let base_pairs = svc
        .to_base_tuples(query_text, epoch, &out.solution.unwrap())
        .unwrap();
    let mut deletions: Vec<TupleRef> = base_pairs
        .iter()
        .map(|(name, idx)| {
            let atom = q
                .atoms()
                .iter()
                .position(|a| a.name() == name)
                .expect("relation name maps to a query atom");
            TupleRef::new(atom, *idx)
        })
        .collect();
    deletions.sort_unstable();
    (rows, out.cost as i64, deletions)
}

/// Pull solves of the subscribed statement between two batches: one to
/// three random targets, half of them forcing the greedy leaf, and on
/// every third gap a `force_greedy` solve at ρ = 0.75, whose rounds kill
/// too many witnesses for its state to go back to the pool. Each answer
/// must equal a fresh solve of the snapshot.
fn pull_solves(
    svc: &Service,
    stmt: &adp::service::Statement<'_>,
    rng: &mut impl FnMut(u64) -> u64,
    gap: usize,
) {
    const TARGETS: [Target; 6] = [
        Target::Outputs(1),
        Target::Outputs(3),
        Target::Ratio(0.25),
        Target::Ratio(0.5),
        Target::Ratio(0.75),
        Target::Ratio(1.0),
    ];
    let mut pulls: Vec<(Target, bool)> = (0..1 + rng(3))
        .map(|_| (TARGETS[rng(6) as usize], rng(2) == 0))
        .collect();
    if gap.is_multiple_of(3) {
        pulls.push((Target::Ratio(0.75), true));
    }
    let (_, snap) = svc.snapshot();
    let fresh = PreparedQuery::new(stmt.query().clone(), snap);
    for (target, greedy) in pulls {
        let opts = greedy.then(|| greedy_opts(true));
        let got = stmt.solve_with(target, opts.as_ref(), None).unwrap();
        let k = resolve_k(target, fresh.output_count());
        if k > 0 {
            let want: AdpOutcome = fresh
                .solve(k, opts.as_ref().unwrap_or(&AdpOptions::default()))
                .unwrap();
            assert_eq!(got.outcome, want, "pull solve at {target:?} diverges");
        }
    }
}

/// Drives one subscription through an op stream, checking the replica
/// against the fresh oracle after every batch, with pull solves of the
/// same statement in between.
fn run_replay(
    query_text: &str,
    db: Database,
    target: Target,
    ops: &[(bool, Vec<(usize, u32)>)],
    sequential: bool,
) {
    // Every test in this binary pins the pool: tests share one process,
    // and whichever touches the global pool first fixes its size.
    four_workers();
    let svc = Service::new(db);
    let rel_names: Vec<String> = parse_query(query_text)
        .unwrap()
        .atoms()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let rel_len = |name: &str| svc.snapshot().1.expect(name).len() as u32;
    // The pull targets are drawn from a generator seeded by the stream.
    let mut state = ops
        .iter()
        .flat_map(|(_, picks)| picks)
        .fold(0x9E37_79B9_7F4A_7C15u64, |h, &(rel, idx)| {
            (h ^ ((rel as u64) << 32) ^ u64::from(idx)).wrapping_mul(0x100_0000_01B3)
        });
    let mut rng = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };

    let stmt = svc.prepare(query_text).unwrap();
    let (_id, rx) = svc
        .subscribe(&stmt, target, SubscribeOptions::default())
        .unwrap();
    let mut replica = Replica::seed(&svc, query_text, target);
    let mut expected_seq = 0u64;

    for (gap, (delete, picks)) in ops.iter().enumerate() {
        pull_solves(&svc, &stmt, &mut rng, gap);
        let batch: Vec<(&str, u32)> = picks
            .iter()
            .map(|&(rel, idx)| {
                let name = &rel_names[rel % rel_names.len()];
                (name.as_str(), idx % rel_len(name).max(1))
            })
            .collect();
        let before = svc.epoch();
        let after = if *delete {
            svc.delete_tuples(&batch).unwrap()
        } else {
            svc.restore_tuples(&batch).unwrap()
        };
        if after == before {
            // Fully no-op batch: no spurious wake-up.
            assert!(rx.try_recv().is_err(), "no-op batches must push nothing");
            continue;
        }
        let u = rx.try_recv().expect("effective batch must push an update");
        assert_eq!(u.epoch, after);
        assert_eq!(u.seq, expected_seq, "seqs are gapless and monotone");
        assert!(u.lagged.is_none(), "nothing dropped at this buffer size");
        expected_seq += 1;
        replica.apply(&u);

        let (rows, cost, deletions) = fresh_state(&svc, query_text, target, sequential);
        let mut replica_rows: Vec<Box<[Value]>> = replica.rows.values().cloned().collect();
        replica_rows.sort();
        assert_eq!(replica_rows, rows, "replayed outputs diverge at {after}");
        assert_eq!(replica.cost, cost, "replayed cost diverges at {after}");
        assert_eq!(
            replica.deletions, deletions,
            "replayed deletion set diverges at {after}"
        );
    }
}

const CHAIN: &str = "Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)";
const FULL: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";
/// Singleton-shaped: pull solves take the exact singleton solver, push
/// forces the greedy leaf, and both run on the one base plan.
const SINGLETON: &str = "Q(A,B) :- R1(A), R2(A,B)";

fn chain_db(s_rows: &[(u64, u64)], ps_rows: &[(u64, u64)], l_rows: &[(u64, u64)]) -> Database {
    fn rel(db: &mut Database, name: &str, cols: [&str; 2], rows: &[(u64, u64)]) {
        let owned: Vec<[u64; 2]> = rows.iter().map(|&(a, b)| [a, b]).collect();
        let refs: Vec<&[u64]> = owned.iter().map(|r| r.as_slice()).collect();
        db.add_relation(name, adp::attrs(&cols), &refs);
    }
    let mut db = Database::new();
    rel(&mut db, "S", ["NK", "SK"], s_rows);
    rel(&mut db, "PS", ["SK", "PK"], ps_rows);
    rel(&mut db, "L", ["OK", "PK"], l_rows);
    db
}

fn full_db(r1: &[u64], r2: &[(u64, u64)], r3: &[u64]) -> Database {
    let mut db = Database::new();
    let r1_rows: Vec<[u64; 1]> = r1.iter().map(|&a| [a]).collect();
    let r2_rows: Vec<[u64; 2]> = r2.iter().map(|&(a, b)| [a, b]).collect();
    let r3_rows: Vec<[u64; 1]> = r3.iter().map(|&b| [b]).collect();
    let refs1: Vec<&[u64]> = r1_rows.iter().map(|r| r.as_slice()).collect();
    let refs2: Vec<&[u64]> = r2_rows.iter().map(|r| r.as_slice()).collect();
    let refs3: Vec<&[u64]> = r3_rows.iter().map(|r| r.as_slice()).collect();
    db.add_relation("R1", adp::attrs(&["A"]), &refs1);
    db.add_relation("R2", adp::attrs(&["A", "B"]), &refs2);
    db.add_relation("R3", adp::attrs(&["B"]), &refs3);
    db
}

/// Strategy: an interleaved delete/restore stream. Restores of
/// never-deleted tuples and re-deletes are intentionally reachable —
/// they exercise the no-op and partial-batch paths.
fn arb_ops() -> impl Strategy<Value = Vec<(bool, Vec<(usize, u32)>)>> {
    proptest::collection::vec(
        (
            (0u32..10).prop_map(|d| d < 7),
            proptest::collection::vec((0usize..3, 0u32..64), 1..=4),
        ),
        1..=12,
    )
}

/// Strategy: the three chain relations plus a target and an op stream,
/// as one tuple (the vendored proptest shim takes a single pattern).
#[allow(clippy::type_complexity)]
fn arb_chain_case() -> impl Strategy<
    Value = (
        Vec<(u64, u64)>,
        Vec<(u64, u64)>,
        Vec<(u64, u64)>,
        u64,
        Vec<(bool, Vec<(usize, u32)>)>,
    ),
> {
    (
        proptest::collection::vec((0u64..4, 0u64..4), 1..=8),
        proptest::collection::vec((0u64..4, 0u64..4), 1..=10),
        proptest::collection::vec((0u64..4, 0u64..4), 1..=8),
        1u64..6,
        arb_ops(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential replay over the projecting chain query.
    #[test]
    fn pushed_diffs_replay_to_fresh_solves_chain(
        (s, ps, l, k, ops) in arb_chain_case()
    ) {
        run_replay(CHAIN, chain_db(&s, &ps, &l), Target::Outputs(k), &ops, true);
    }

    /// Sequential replay over a full CQ (every variable in the head:
    /// outputs == witnesses, the other transition regime).
    #[test]
    fn pushed_diffs_replay_to_fresh_solves_full(
        (r1, r2, r3, k, ops) in (
            proptest::collection::vec(0u64..4, 1..=6),
            proptest::collection::vec((0u64..4, 0u64..4), 1..=10),
            proptest::collection::vec(0u64..4, 1..=6),
            1u64..6,
            arb_ops(),
        )
    ) {
        run_replay(FULL, full_db(&r1, &r2, &r3), Target::Outputs(k), &ops, true);
    }

    /// Sequential replay over a singleton-shaped statement with a ratio
    /// target, so `k` moves with the view's size.
    #[test]
    fn pushed_diffs_replay_to_fresh_solves_singleton_ratio(
        (r1, r2, r3, quarters, ops) in (
            proptest::collection::vec(0u64..4, 1..=6),
            proptest::collection::vec((0u64..4, 0u64..4), 1..=10),
            proptest::collection::vec(0u64..4, 1..=6),
            1u64..=4,
            arb_ops(),
        )
    ) {
        let target = Target::Ratio(quarters as f64 / 4.0);
        run_replay(SINGLETON, full_db(&r1, &r2, &r3), target, &ops, true);
    }

    /// The same replay with the global pool pinned to 4 workers: the
    /// subscription's scoring build and the fresh oracle solves take
    /// their parallel paths, and nothing may change by a byte.
    #[test]
    fn pushed_diffs_replay_on_four_worker_pool(
        (s, ps, l, k, ops) in arb_chain_case()
    ) {
        four_workers();
        run_replay(CHAIN, chain_db(&s, &ps, &l), Target::Outputs(k), &ops, false);
    }
}

/// A deterministic instance big enough to cross the parallel-scoring
/// threshold (≥ 1024 witnesses), so the maintained state is built by
/// the range-partitioned scorer and then replayed exactly like the
/// small sequential cases.
#[test]
fn parallel_scored_subscription_replays_exactly() {
    four_workers();
    let mut state = 0xC0FFEEu64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    // Relations dedupe rows, so build full distinct cross products:
    // 64 rows each over domain 8 ⇒ 8⁴ = 4096 witnesses.
    let all: Vec<(u64, u64)> = (0..64).map(|i| (i / 8, i % 8)).collect();
    let (s, ps, l) = (all.clone(), all.clone(), all);
    let db = chain_db(&s, &ps, &l);
    let prep = PreparedQuery::new(parse_query(CHAIN).unwrap(), Arc::new(db.clone()));
    assert!(
        prep.eval().witness_count() >= 1024,
        "instance must cross the parallel scoring threshold, got {}",
        prep.eval().witness_count()
    );
    let ops: Vec<(bool, Vec<(usize, u32)>)> = (0..10)
        .map(|i| {
            let picks = (0..3)
                .map(|_| (rng() as usize % 3, (rng() % 48) as u32))
                .collect();
            (i % 4 != 3, picks)
        })
        .collect();
    run_replay(CHAIN, db, Target::Outputs(8), &ops, false);
}

/// Satellite: the sharing counter. N subscribers on one normalized
/// statement advance one shared delta state — one application per
/// effective batch, not N — while every subscriber still receives every
/// update.
#[test]
fn n_subscribers_share_one_delta_application_per_batch() {
    four_workers();
    let db = full_db(&[0, 1, 2], &[(0, 0), (0, 1), (1, 0), (2, 2)], &[0, 1, 2]);
    let svc = Service::new(db);
    let stmt = svc.prepare(FULL).unwrap();
    let n = 8;
    let rxs: Vec<_> = (0..n)
        .map(|i| {
            // Mixed targets on one statement still share the delta
            // application (targets are re-solved per distinct target,
            // the O(Δ) advancement happens once).
            let target = if i % 2 == 0 {
                Target::Outputs(1 + i as u64 % 3)
            } else {
                Target::Ratio(0.5)
            };
            svc.subscribe(&stmt, target, SubscribeOptions::default())
                .unwrap()
                .1
        })
        .collect();
    assert_eq!(svc.live_subscriptions(), n as u64);

    let batches = 5;
    for i in 0..batches {
        if i % 2 == 0 {
            svc.delete_tuples(&[("R2", i as u32 % 4)]).unwrap();
        } else {
            svc.restore_tuples(&[("R2", (i as u32 - 1) % 4)]).unwrap();
        }
    }
    let s = svc.stats();
    assert_eq!(
        s.shared_delta_applications, batches as u64,
        "one delta application per batch, regardless of {n} subscribers"
    );
    assert_eq!(s.updates_pushed, (n * batches) as u64);
    assert_eq!(s.lagged_drops, 0);
    for rx in &rxs {
        let got: Vec<u64> = rx.try_iter().map(|u| u.seq).collect();
        assert_eq!(got, (0..batches as u64).collect::<Vec<_>>());
    }
}
