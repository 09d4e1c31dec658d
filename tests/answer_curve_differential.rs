//! Differential tests for the prepared plan's memo of root answers
//! (`PreparedQuery::solve`).
//!
//! `ComputeADP` returns a whole cost profile: the boolean, singleton and
//! greedy leaves give the same answer for every target up to the cap
//! they ran at, so a plan keeps one root `Solved` per leaf family and
//! answers later targets from it. The invariant is strict equality: for
//! random `(Q, D)` over every leaf kind, every answer a shared plan
//! gives — computed, or served from its memo after a larger target, a
//! count-mode solve or a solve under the other greedy switch — equals a
//! fresh `PreparedQuery`'s on every `AdpOutcome` field, on unanchored
//! plans and on epoch plans anchored on a base. The memo holds at most
//! one entry per leaf family, and none for the leaves whose answer
//! depends on the cap (universe, decompose, drastic), for the
//! `full_reeval` oracle, or for solves with a deadline.

use adp::core::solver::{AdpOptions, Branch, DeadSet, Mode, PreparedQuery};
use adp::engine::catalog::RelId;
use adp::{parse_query, AdpOutcome, Database, Query, SolveError};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The memo entry a solve under these options keeps: the leaf family,
/// or `None` for a leaf that is never memoized.
type Family = Option<&'static str>;

/// One query of the catalogue and the option sets it is solved under,
/// each with the memo entry it must keep.
struct Case {
    text: &'static str,
    variants: Vec<(&'static str, AdpOptions, Family)>,
}

fn forced() -> AdpOptions {
    AdpOptions {
        force_greedy: true,
        ..Default::default()
    }
}

fn drastic(force_greedy: bool) -> AdpOptions {
    AdpOptions {
        force_greedy,
        use_drastic: true,
        ..Default::default()
    }
}

/// Every leaf kind of Algorithm 2, memoized or not.
fn catalogue() -> Vec<Case> {
    let default = || AdpOptions::default();
    vec![
        Case {
            text: "Q() :- R1(A), R2(A,B), R3(B)",
            variants: vec![("boolean linear", default(), Some("boolean"))],
        },
        Case {
            text: "Q() :- R1(A,B), R2(B,C), R3(C,A)",
            variants: vec![("boolean triad", default(), Some("boolean"))],
        },
        Case {
            text: "Q(A,B) :- R1(A), R2(A,B)",
            variants: vec![
                ("singleton case 1", default(), Some("singleton")),
                ("forced greedy on a singleton", forced(), Some("greedy")),
                ("forced drastic on a singleton", drastic(true), None),
            ],
        },
        Case {
            text: "Q(A) :- R1(A,B), R2(A,B,C)",
            variants: vec![("singleton case 2", default(), Some("singleton"))],
        },
        Case {
            text: "Q(A) :- R(A), V()",
            variants: vec![("vacuum singleton", default(), Some("singleton"))],
        },
        Case {
            text: "Q(A,B) :- R1(A), R2(A,B), R3(B)",
            variants: vec![
                ("greedy", default(), Some("greedy")),
                // Same family: the forced solve shares the entry.
                ("forced greedy", forced(), Some("greedy")),
                ("drastic", drastic(false), None),
            ],
        },
        Case {
            text: "Q(A,B) :- R(A,B), S(A,C)",
            variants: vec![("universe", default(), None)],
        },
        Case {
            text: "Q(A,B) :- R1(A), R2(B)",
            variants: vec![("decompose", default(), None)],
        },
    ]
}

/// The family a random query's solve keeps, from its root branch.
fn family_of(q: &Query, opts: &AdpOptions) -> Family {
    match Branch::of(q, opts) {
        Branch::Boolean => Some("boolean"),
        Branch::Singleton => Some("singleton"),
        Branch::Greedy | Branch::ForcedGreedy if !(opts.use_drastic && q.is_full()) => {
            Some("greedy")
        }
        _ => None,
    }
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
        let used: BTreeSet<usize> = atom_sets.iter().flatten().copied().collect();
        let used: Vec<usize> = used.into_iter().collect();
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

/// A database for `q` drawn from `streams` (one value stream per atom),
/// at most `max_rows` rows per relation, sealed so that dense indices
/// are stable ids and epochs can be anchored on it.
fn db_for(q: &Query, streams: &[Vec<u64>], max_rows: usize) -> Arc<Database> {
    let mut db = Database::new();
    for (atom, stream) in q.atoms().iter().zip(streams) {
        let mut inst = adp::engine::relation::RelationInstance::new(atom.clone());
        if atom.arity() == 0 {
            inst.insert(&[]);
        } else if !stream.is_empty() {
            let rows = (stream.len() / atom.arity()).min(max_rows);
            for r in 0..rows {
                let t: Vec<u64> = (0..atom.arity())
                    .map(|c| stream[(r * atom.arity() + c) % stream.len()])
                    .collect();
                inst.insert(&t);
            }
        }
        db.add(inst);
    }
    db.seal_all(4);
    Arc::new(db)
}

/// A dead set taking about a quarter of each relation, chosen by
/// `bits`, and the epoch of `base` without those tuples.
fn epoch_of(base: &Arc<Database>, bits: &[u64]) -> (Arc<DeadSet>, Arc<Database>) {
    let dead: DeadSet = base
        .relations()
        .iter()
        .enumerate()
        .map(|(slot, rel)| {
            let b = bits.get(slot).copied().unwrap_or(0);
            (0..rel.len() as u32)
                .filter(|&i| (b >> ((2 * i) % 64)) & 3 == 0)
                .collect()
        })
        .collect();
    let mut db = (**base).clone();
    for (slot, ids) in dead.iter().enumerate() {
        for &id in ids {
            assert!(db.relation_mut_by_id(RelId(slot as u32)).delete_stable(id));
        }
    }
    (Arc::new(dead), Arc::new(db))
}

/// Two targets `k1 ≤ k2` in `1..=max(total, 1)`, distinct when `total ≥ 2`.
fn targets(total: u64, (s1, s2): (u64, u64)) -> (u64, u64) {
    if total < 2 {
        return (1, 1);
    }
    let k1 = 1 + s1 % (total - 1);
    let k2 = k1 + 1 + s2 % (total - k1);
    (k1, k2)
}

/// The plans under test: `plan()` builds a new one over `db` (plain or
/// anchored); the reference is always a fresh plan over `db`.
struct Subject<'a> {
    q: &'a Query,
    db: &'a Arc<Database>,
    plan: &'a dyn Fn() -> PreparedQuery,
}

impl Subject<'_> {
    fn fresh(&self, k: u64, opts: &AdpOptions) -> Result<AdpOutcome, SolveError> {
        PreparedQuery::new(self.q.clone(), Arc::clone(self.db)).solve(k, opts)
    }
}

/// Every memo check for one query on one plan kind: both target orders
/// (with a repeat, so each order serves one answer from the memo), a
/// count-mode solve followed by report-mode solves, and the
/// `full_reeval` and deadline bypasses.
fn check(
    subject: &Subject<'_>,
    variants: &[(&str, AdpOptions, Family)],
    sel: (u64, u64),
) -> Result<(), TestCaseError> {
    let q = subject.q;
    let total = PreparedQuery::new(q.clone(), Arc::clone(subject.db)).output_count();
    let (k1, k2) = targets(total, sel);

    for order in [[k1, k2, k1], [k2, k1, k2]] {
        // One plan serves every variant in turn, so the families share it.
        let shared = (subject.plan)();
        let mut kept = BTreeSet::new();
        for (label, opts, family) in variants {
            for k in order {
                let got = shared.solve(k, opts);
                prop_assert_eq!(&got, &subject.fresh(k, opts), "{} [{}] k={}", q, label, k);
                if got.is_ok() {
                    kept.extend(*family);
                }
                prop_assert!(shared.cached_answers() <= 3);
            }
        }
        prop_assert_eq!(shared.cached_answers(), kept.len(), "{} {:?}", q, order);
    }

    for (label, opts, _) in variants {
        // A count-mode answer serves the report-mode solves after it.
        let shared = (subject.plan)();
        let count = AdpOptions {
            mode: Mode::Count,
            ..opts.clone()
        };
        let report = AdpOptions {
            mode: Mode::Report,
            ..opts.clone()
        };
        for (k, opts) in [(k2, &count), (k1, &report), (k2, &report)] {
            let got = shared.solve(k, opts);
            prop_assert_eq!(
                &got,
                &subject.fresh(k, opts),
                "{} [{}] k={} {:?}",
                q,
                label,
                k,
                opts.mode
            );
        }

        // The oracle and budgeted solves neither read nor write the memo
        // (the deadline is an hour out, so it never fires).
        let shared = (subject.plan)();
        let bypass = [
            AdpOptions {
                full_reeval: true,
                ..opts.clone()
            },
            AdpOptions {
                deadline: Some(Instant::now() + Duration::from_secs(3600)),
                ..opts.clone()
            },
        ];
        for opts in &bypass {
            for k in [k2, k1] {
                let got = shared.solve(k, opts);
                prop_assert_eq!(
                    &got,
                    &subject.fresh(k, opts),
                    "{} [{}] bypass k={}",
                    q,
                    label,
                    k
                );
            }
        }
        prop_assert_eq!(
            shared.cached_answers(),
            0,
            "{} [{}]: bypass solves kept an answer",
            q,
            label
        );
    }
    Ok(())
}

/// [`check`] on plain plans over `db`, then on epoch plans anchored on
/// a base plan over `db` with a dead set chosen by `dead_bits`. Solves
/// on an epoch plan never touch the base plan's memo.
fn check_both(
    q: &Query,
    db: &Arc<Database>,
    variants: &[(&str, AdpOptions, Family)],
    sel: (u64, u64),
    dead_bits: &[u64],
) -> Result<(), TestCaseError> {
    let plain = || PreparedQuery::new(q.clone(), Arc::clone(db));
    check(
        &Subject {
            q,
            db,
            plan: &plain,
        },
        variants,
        sel,
    )?;

    let base = Arc::new(PreparedQuery::new(q.clone(), Arc::clone(db)));
    let (dead, epoch_db) = epoch_of(db, dead_bits);
    let anchored = || base.anchored(Arc::clone(&epoch_db), Arc::clone(&dead));
    check(
        &Subject {
            q,
            db: &epoch_db,
            plan: &anchored,
        },
        variants,
        sel,
    )?;
    prop_assert_eq!(
        base.cached_answers(),
        0,
        "{}: an epoch solve reached the base memo",
        q
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every catalogue leaf kind and one random query, on one random
    /// data draw per case: memo-served answers equal fresh solves on
    /// every field, on plain and anchored plans alike.
    #[test]
    fn memo_served_answers_equal_fresh_solves(
        (random, streams, sel, dead_bits) in (
            arb_query(),
            proptest::collection::vec(proptest::collection::vec(0u64..4, 0..=14), 4..=4),
            (0u64..1024, 0u64..1024),
            proptest::collection::vec(0u64..u64::MAX, 4..=4),
        )
    ) {
        for case in catalogue() {
            let q = parse_query(case.text).unwrap();
            let db = db_for(&q, &streams, 7);
            check_both(&q, &db, &case.variants, sel, &dead_bits)?;
        }
        let db = db_for(&random, &streams, 7);
        let variants: Vec<(&str, AdpOptions, Family)> =
            [("default", AdpOptions::default()), ("forced greedy", forced())]
                .into_iter()
                .map(|(label, opts)| {
                    let family = family_of(&random, &opts);
                    (label, opts, family)
                })
                .collect();
        check_both(&random, &db, &variants, sel, &dead_bits)?;
    }
}

/// The catalogue reaches the leaf it names: a guard against a query
/// text that silently stops exercising its branch.
#[test]
fn catalogue_reaches_every_leaf_kind() {
    let mut families = BTreeSet::new();
    let mut branches = BTreeSet::new();
    for case in catalogue() {
        let q = parse_query(case.text).unwrap();
        for (label, opts, family) in &case.variants {
            assert_eq!(family_of(&q, opts), *family, "{label}");
            families.insert(*family);
            branches.insert(format!("{:?}", Branch::of(&q, opts)));
        }
    }
    assert_eq!(families.len(), 4, "three memoized families and the rest");
    for branch in [
        "Boolean",
        "Singleton",
        "Greedy",
        "ForcedGreedy",
        "Universe",
        "Decompose",
    ] {
        assert!(branches.contains(branch), "{branch}");
    }
}
