//! Differential tests for the columnar storage + partition-parallel
//! join layer (`adp-engine::plan` over `adp-engine::relation`).
//!
//! Two oracles pin the layer down from opposite sides:
//!
//! * the **nested-loop oracle** (`adp-engine::naive`) re-derives
//!   `Q(D)` with none of the columnar machinery — no interning, no
//!   hash indexes, no partitioning — so agreement means the storage
//!   rewrite preserved query semantics;
//! * the **sequential plan itself** is the byte-identity oracle for
//!   every parallel configuration: partitioned index builds and
//!   chunked probes on a 4-worker pool must produce `EvalResult`s that
//!   are `==` (same output ids, same witness ids, same posting order),
//!   not merely equal as sets, masked and unmasked alike.
//!
//! Every evaluation checked here — plain, chunked, masked and nested
//! loop — must also hold the flat layout's invariants
//! ([`check_layout`]).
//!
//! The masked property additionally cross-checks against a physically
//! rebuilt database (survivors only), which exercises the columnar
//! dedup/compaction path on every proptest case. A final deterministic
//! test smokes the streaming TPC-H builder at a size the nested-loop
//! oracle could never touch.

use adp::engine::delta::DeltaProvenance;
use adp::engine::naive::evaluate_nested_loop;
use adp::engine::plan::{AliveMask, QueryPlan};
use adp::engine::relation::RelationInstance;
use adp::engine::EvalResult;
use adp::{parse_query, Database, Query, Value};
use proptest::prelude::*;

/// Pins the global pool to 4 workers so threshold-gated parallel paths
/// can run even on a single-core box. The plan layer never initializes
/// the global pool for inputs this small, so the pin always wins.
fn four_workers() -> &'static adp::ThreadPool {
    let _ = adp::runtime::configure_global(4);
    let pool = adp::runtime::global();
    assert_eq!(pool.threads(), 4);
    pool
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

/// Strategy: a small random database for a query. Values repeat within
/// a tiny domain so joins actually match and the interner dedups.
fn arb_db(q: &Query, max_rows: usize, dom: u64) -> impl Strategy<Value = Database> {
    let atoms: Vec<_> = q.atoms().to_vec();
    proptest::collection::vec(
        proptest::collection::vec(0..dom, 0..=12),
        atoms.len()..=atoms.len(),
    )
    .prop_map(move |value_streams| {
        let mut db = Database::new();
        for (atom, stream) in atoms.iter().zip(value_streams) {
            let mut inst = RelationInstance::new(atom.clone());
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

/// Order-insensitive view of a result: sorted outputs and, per output
/// value, the sorted multiset of witness tuple-index vectors.
fn canonical(r: &EvalResult) -> Vec<(Vec<Value>, Vec<Vec<u32>>)> {
    canonical_mapped(r, |_, t| t)
}

/// [`canonical`] with every witness tuple index `t` of atom `atom`
/// replaced by `map(atom, t)`.
fn canonical_mapped(
    r: &EvalResult,
    map: impl Fn(usize, u32) -> u32,
) -> Vec<(Vec<Value>, Vec<Vec<u32>>)> {
    let mut entries: Vec<(Vec<Value>, Vec<Vec<u32>>)> = r
        .outputs()
        .enumerate()
        .map(|(o, out)| {
            let mut ws: Vec<Vec<u32>> = r
                .witnesses_of(o)
                .iter()
                .map(|&w| {
                    (r.witness(w as usize).iter().enumerate())
                        .map(|(atom, &t)| map(atom, t))
                        .collect()
                })
                .collect();
            ws.sort();
            (out.to_vec(), ws)
        })
        .collect();
    entries.sort();
    entries
}

/// The flat layout's invariants for an evaluation of `q` over `db`:
///
/// * the strides match the query: one tuple per atom on every witness,
///   one value per head attribute on every output key;
/// * each output's witness list is strictly ascending and is exactly
///   the inverse of the witness → output ids;
/// * every witness's output key is its head projection in `db`.
fn check_layout(q: &Query, db: &Database, r: &EvalResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(r.atom_count(), q.atom_count(), "{}: atom stride", q);
    prop_assert_eq!(r.head_width(), q.head().len(), "{}: head stride", q);
    prop_assert!(r.witnesses().all(|w| w.len() == q.atom_count()));
    prop_assert!(r.outputs().all(|o| o.len() == q.head().len()));

    let mut listed = 0usize;
    for o in 0..r.output_count() as usize {
        let ws = r.witnesses_of(o);
        prop_assert!(
            ws.windows(2).all(|p| p[0] < p[1]),
            "{}: list {} order",
            q,
            o
        );
        for &w in ws {
            prop_assert_eq!(r.output_of(w as usize) as usize, o, "{}: witness {}", q, w);
        }
        listed += ws.len();
    }
    prop_assert_eq!(
        listed as u64,
        r.witness_count(),
        "{}: lists miss witnesses",
        q
    );

    // Head attribute → (atom, position in its relation's schema).
    let sources: Vec<(usize, usize)> = q
        .head()
        .iter()
        .map(|h| {
            let atom = q.atoms().iter().position(|a| a.contains(h)).unwrap();
            let rel = db.expect(q.atoms()[atom].name());
            (atom, rel.schema().position(h).unwrap())
        })
        .collect();
    for (w, tuples) in r.witnesses().enumerate() {
        let projected: Vec<Value> = sources
            .iter()
            .map(|&(atom, pos)| db.expect(q.atoms()[atom].name()).tuple(tuples[atom])[pos])
            .collect();
        let out = r.output_of(w) as usize;
        prop_assert_eq!(r.output(out), &projected[..], "{}: witness {} key", q, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Columnar plan execution — sequential, partition-built, and
    /// chunk-parallel — agrees with the nested-loop oracle, and every
    /// parallel configuration is byte-identical to the sequential run.
    /// Provenance built from a parallel result equals provenance built
    /// from the sequential one, so downstream layers cannot tell the
    /// difference either.
    #[test]
    fn parallel_columnar_execution_matches_nested_loop_oracle(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 10, 3);
            (Just(q), db)
        })
    ) {
        let pool = four_workers();
        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let indexes = plan.build_indexes(&db);
        let seq = plan.execute(&db, &indexes);
        check_layout(&q, &db, &seq)?;

        // Semantics oracle: no interning, no indexes, no partitions.
        let oracle = evaluate_nested_loop(&db, q.atoms(), q.head());
        check_layout(&q, &db, &oracle)?;
        prop_assert_eq!(
            canonical(&seq), canonical(&oracle),
            "{}: columnar result diverged from nested-loop oracle", q
        );

        // Byte-identity oracle: forced partitioned build + forced
        // chunked probes must reproduce the sequential result exactly.
        for parts in [2usize, 8] {
            let pidx = plan.build_indexes_on(&db, pool, Some(parts));
            for chunks in 1usize..=8 {
                let par = plan.execute_chunked(&db, &pidx, None, pool, chunks);
                check_layout(&q, &db, &par)?;
                prop_assert_eq!(
                    &seq, &par,
                    "{}: parts={} chunks={} diverged from sequential", q, parts, chunks
                );
            }
        }

        // Downstream agreement: provenance over a parallel result is
        // indistinguishable from provenance over the sequential one.
        let par = plan.execute_chunked(&db, &pidx_default(&plan, &db, pool), None, pool, 5);
        let d_seq = DeltaProvenance::try_new(&seq).unwrap();
        let d_par = DeltaProvenance::try_new(&par).unwrap();
        prop_assert_eq!(d_seq.profits(), d_par.profits(), "{}: profits diverged", q);
        prop_assert_eq!(d_seq.live_counts(), d_par.live_counts());
    }
}

/// A 4-partition build on the given pool — shared by the proptests.
fn pidx_default(
    plan: &QueryPlan,
    db: &Database,
    pool: &adp::ThreadPool,
) -> adp::engine::plan::JoinIndexes {
    plan.build_indexes_on(db, pool, Some(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Masked (post-deletion) evaluation agrees with a physically
    /// rebuilt survivor database under the nested-loop oracle, and the
    /// chunk-parallel masked probe is byte-identical to the sequential
    /// masked probe after every kill in a random kill sequence.
    #[test]
    fn masked_parallel_execution_matches_survivor_rebuild(
        (q, db, kills) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q, 8, 3);
            // (atom selector, tuple selector) per kill.
            let kills = proptest::collection::vec((0usize..8, 0u64..64), 0..=10);
            (Just(q), db, kills)
        })
    ) {
        let pool = four_workers();
        let plan = QueryPlan::new(&db, q.atoms(), q.head());
        let indexes = plan.build_indexes(&db);
        let pidx = pidx_default(&plan, &db, pool);
        let mut mask = AliveMask::all_alive(&db, q.atoms());

        for &(a, i) in &kills {
            let atom = a % q.atom_count();
            let len = db.expect(q.atoms()[atom].name()).len() as u64;
            if len > 0 {
                mask.kill(atom, (i % len) as u32);
            }

            let seq = plan.execute_masked(&db, &indexes, &mask);
            check_layout(&q, &db, &seq)?;
            for chunks in [2usize, 6] {
                let par = plan.execute_chunked(&db, &pidx, Some(&mask), pool, chunks);
                check_layout(&q, &db, &par)?;
                prop_assert_eq!(
                    &seq, &par,
                    "{}: masked chunks={} diverged from sequential", q, chunks
                );
            }

            // Survivor rebuild: stream the alive tuples into fresh
            // columnar instances (re-interning, re-deduping) and
            // compare through the nested-loop oracle. Witness indices
            // are remapped from original ids to survivor positions.
            let mut db2 = Database::new();
            let mut remap: Vec<Vec<Option<u32>>> = Vec::new();
            for (atom, schema) in q.atoms().iter().enumerate() {
                let src = db.expect(schema.name());
                let mut inst = RelationInstance::new(schema.clone());
                let mut map = vec![None; src.len()];
                let mut next = 0u32;
                for idx in 0..src.len() as u32 {
                    if mask.is_alive(atom, idx) {
                        inst.insert(&src.tuple_vec(idx));
                        map[idx as usize] = Some(next);
                        next += 1;
                    }
                }
                remap.push(map);
                db2.add(inst);
            }
            let oracle = evaluate_nested_loop(&db2, q.atoms(), q.head());
            check_layout(&q, &db2, &oracle)?;
            let seq_remapped = canonical_mapped(&seq, |atom, t| {
                remap[atom][t as usize].expect("witness tuple is alive")
            });
            prop_assert_eq!(
                seq_remapped, canonical(&oracle),
                "{}: masked result diverged from survivor rebuild", q
            );
        }
    }
}

/// Streaming TPC-H builder smoke test at a size the nested-loop oracle
/// cannot reach: the chain streams into columnar storage, the plan
/// answers Q1 identically in sequential and chunk-parallel form, and
/// the memory report is consistent with the relation contents.
#[test]
fn tpch_streaming_builder_feeds_parallel_plan() {
    use adp::datagen::queries;
    use adp::datagen::tpch::{tpch_chain, TpchConfig};

    let pool = four_workers();
    let cfg = TpchConfig {
        hot_part_share: 0.0,
        ..TpchConfig::scaled(3_000, 42)
    };
    let db = tpch_chain(&cfg);
    let q = queries::q1();

    // Columnar storage invariants: dedup keeps L exactly at n_each
    // (distinct OK per row), and the memory report mirrors the stores.
    assert_eq!(db.expect("L").len(), 1_000);
    let mem = db.memory_report();
    assert_eq!(mem.total_tuples, db.total_tuples());
    assert_eq!(mem.relations.len(), 3);
    for rel in &mem.relations {
        let inst = db.expect(&rel.name);
        assert_eq!(rel.tuples, inst.len());
        assert_eq!(rel.symbols, inst.symbol_count());
        assert!(rel.approx_bytes > 0);
    }

    let plan = QueryPlan::new(&db, q.atoms(), q.head());
    let seq = plan.execute(&db, &plan.build_indexes(&db));
    assert!(seq.witness_count() > 1_000, "chain should join broadly");

    let pidx = plan.build_indexes_on(&db, pool, Some(8));
    for chunks in [2usize, 16] {
        let par = plan.execute_chunked(&db, &pidx, None, pool, chunks);
        assert_eq!(seq, par, "chunks={chunks} diverged on TPC-H chain");
    }
}
