//! Workload definitions, seeded input generation, and the answer oracle.
//!
//! Everything the server sees is generated here from `--seed`: the Zipf
//! database and the mutation-batch stream. The oracle recomputes every
//! answer in process on a database rebuilt from the base rows, never from
//! the server's own snapshots.

use adp_core::parse_query;
use adp_core::solver::{AdpOptions, AdpOutcome, PreparedQuery};
use adp_datagen::zipf::ZipfConfig;
use adp_engine::database::Database;
use adp_engine::provenance::TupleRef;
use adp_engine::schema::Attr;
use adp_engine::value::Value;
use adp_service::Target;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// `Q_path`, NP-hard: served by the greedy rounds.
pub const Q_PATH: &str = "Qpath(A,B) :- R1(A), R2(A,B), R3(B)";
/// `Q6`, a singleton query: served exactly by the sort-based solver.
pub const Q6: &str = "Q6(A,B) :- R1(A), R2(A,B)";
/// The boolean `Q_path`: served exactly by min-cut.
pub const Q_BOOL: &str = "Q() :- R1(A), R2(A,B), R3(B)";
/// Statement texts, indexed by [`Cell::query`].
pub const QUERIES: [&str; 3] = [Q_PATH, Q6, Q_BOOL];
/// The paper's removal ratios (§8).
pub const RATIOS: [f64; 4] = [0.10, 0.25, 0.50, 0.75];
/// The `k` of the subscription and of every solve on the write path.
pub const PUSH_K: u64 = 4;
/// Tuples per mutation batch.
pub const BATCH: usize = 8;
/// Client connections (one per core of the 2-core reference machine).
pub const CONNS: usize = 2;

/// One kind of request: a statement and a removal target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Index into [`QUERIES`].
    pub query: usize,
    /// The removal target.
    pub target: Target,
}

/// A workload: its data size, its read mix and its write stream.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// `|R2|`.
    pub n: usize,
    /// Requests of the read phase, cycled by each connection.
    pub cells: Vec<Cell>,
    /// Solves in the read phase, over all connections (0: no read phase).
    pub read_ops: usize,
    /// Mutation batches in the write phase.
    pub batches: usize,
    /// Whether each batch is followed by a `k = PUSH_K` solve that must
    /// re-plan (the `read_write` mix). Otherwise the write phase runs
    /// after the reads, with no solves in flight.
    pub solve_after_batch: bool,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["hot_read", "ratio_sweep", "read_write"];

/// The workload `name`, sized for a run of `seconds`: operation counts
/// are fixed per `seconds`, never by elapsed time, so every commit runs
/// the same operations.
pub fn spec(name: &str, seconds: u64) -> Option<Spec> {
    let s = seconds.max(1) as usize;
    let qpath_k: Vec<Cell> = (1..=4)
        .map(|k| Cell {
            query: 0,
            target: Target::Outputs(k),
        })
        .collect();
    match name {
        "hot_read" => Some(Spec {
            name: "hot_read",
            n: 20_000,
            cells: qpath_k,
            read_ops: 320 * s,
            batches: 20 * s,
            solve_after_batch: false,
        }),
        "ratio_sweep" => {
            let mut cells = Vec::new();
            for query in [0, 1] {
                for rho in RATIOS {
                    cells.push(Cell {
                        query,
                        target: Target::Ratio(rho),
                    });
                }
            }
            cells.push(Cell {
                query: 2,
                target: Target::Outputs(1),
            });
            // Whole cycles per connection, so every cell is served
            // equally often.
            let cycles = 2 * s;
            let read_ops = CONNS * cells.len() * cycles;
            Some(Spec {
                name: "ratio_sweep",
                n: 50_000,
                cells,
                read_ops,
                // Half the others' batches: the oracle re-solves this
                // workload's large data once per epoch.
                batches: 10 * s,
                solve_after_batch: false,
            })
        }
        "read_write" => Some(Spec {
            name: "read_write",
            n: 20_000,
            cells: vec![Cell {
                query: 0,
                target: Target::Outputs(PUSH_K),
            }],
            read_ops: 0,
            batches: 30 * s,
            solve_after_batch: true,
        }),
        _ => None,
    }
}

/// splitmix64: the benchmark's only randomness, fully determined by
/// its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// The Zipf(0.5) database of `n` `R2` tuples for `seed`. Workloads of
/// equal `n` share their data for a given seed.
pub fn database(n: usize, seed: u64) -> Database {
    let data_seed = Rng::new(seed ^ (n as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64();
    adp_datagen::zipf_pair(&ZipfConfig::new(n, 0.5, data_seed, true))
}

/// `|R2|` of a generated database.
pub fn r2_len(db: &Database) -> u32 {
    db.expect("R2").len() as u32
}

/// One mutation batch on `R2`, in base tuple indices.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Delete (`true`) or restore.
    pub delete: bool,
    /// `R2` base indices, distinct.
    pub tuples: Vec<u32>,
}

impl Batch {
    /// The batch as `Client::mutate` / `Service::delete_tuples` entries.
    pub fn entries(&self) -> Vec<(&'static str, u32)> {
        self.tuples.iter().map(|&i| ("R2", i)).collect()
    }
}

/// The write stream: `count` batches of [`BATCH`] `R2` tuples, every one
/// effective. Every 4th batch restores the oldest still-deleted batch;
/// the others delete live tuples chosen by `seed`. Half of every four
/// batches stay deleted, so `R2` must hold at least `2 · BATCH · count / 4`
/// tuples beyond one batch.
pub fn batch_stream(r2_len: u32, count: usize, seed: u64) -> Vec<Batch> {
    assert!(
        r2_len as usize >= BATCH * (count / 2 + 2),
        "R2 of {r2_len} tuples is too small for {count} batches"
    );
    let mut rng = Rng::new(seed ^ 0x0BA7_C4E5);
    let mut dead = vec![false; r2_len as usize];
    let mut pending: VecDeque<Vec<u32>> = VecDeque::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        if i % 4 == 3 {
            if let Some(tuples) = pending.pop_front() {
                for &t in &tuples {
                    dead[t as usize] = false;
                }
                out.push(Batch {
                    delete: false,
                    tuples,
                });
                continue;
            }
        }
        let mut tuples = Vec::with_capacity(BATCH);
        while tuples.len() < BATCH {
            let t = rng.below(r2_len);
            if !dead[t as usize] {
                dead[t as usize] = true;
                tuples.push(t);
            }
        }
        pending.push_back(tuples.clone());
        out.push(Batch {
            delete: true,
            tuples,
        });
    }
    out
}

/// `R2` base indices deleted after each prefix of `stream`:
/// `result[e]` is the deleted set at epoch `e` (epoch 0 = none).
pub fn deleted_by_epoch(stream: &[Batch]) -> Vec<BTreeSet<u32>> {
    let mut cur = BTreeSet::new();
    let mut out = vec![cur.clone()];
    for b in stream {
        for &t in &b.tuples {
            if b.delete {
                cur.insert(t);
            } else {
                cur.remove(&t);
            }
        }
        out.push(cur.clone());
    }
    out
}

/// The base rows the oracle rebuilds every epoch from.
pub struct Base {
    relations: Vec<(String, Vec<Attr>, Vec<Vec<Value>>)>,
}

impl Base {
    /// Captures `db`'s rows in dense (= base) order.
    pub fn of(db: &Database) -> Base {
        Base {
            relations: db
                .relations()
                .iter()
                .map(|r| {
                    (
                        r.name().to_string(),
                        r.schema().attrs().to_vec(),
                        r.to_rows(),
                    )
                })
                .collect(),
        }
    }

    /// `|R2|` at epoch 0.
    pub fn r2_len(&self) -> u32 {
        self.relations
            .iter()
            .find(|(n, _, _)| n == "R2")
            .map_or(0, |(_, _, rows)| rows.len() as u32)
    }

    /// A fresh database holding the base rows minus the `R2` tuples in
    /// `r2_dead`, in base order — so dense index `j` of `R2` is the
    /// `j`-th live base index.
    pub fn database_without(&self, r2_dead: &BTreeSet<u32>) -> Database {
        let mut db = Database::new();
        for (name, attrs, rows) in &self.relations {
            let live: Vec<&[Value]> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| name != "R2" || !r2_dead.contains(&(*i as u32)))
                .map(|(_, r)| r.as_slice())
                .collect();
            db.add_relation(name, attrs.clone(), &live);
        }
        db
    }
}

/// The serving layer's `k` for `target` over `total` outputs: ratios
/// round up, `k` clamps to the view.
pub fn resolve_k(target: Target, total: u64) -> u64 {
    match target {
        Target::Outputs(k) => k.min(total),
        Target::Ratio(rho) => ((total as f64 * rho).ceil() as u64).min(total),
    }
}

/// The in-process answer for `query` and `target` over `db`.
pub fn reference(query: usize, target: Target, db: Arc<Database>) -> AdpOutcome {
    let q = parse_query(QUERIES[query]).expect("benchmark queries parse");
    let prep = PreparedQuery::new(q, db);
    let k = resolve_k(target, prep.output_count());
    assert!(k > 0, "benchmark cells never ask for k = 0");
    prep.solve(k, &AdpOptions::default())
        .expect("reference solve succeeds")
}

/// `solution` of a `Q_path` answer at an epoch whose deleted `R2` set is
/// `r2_dead`, mapped from dense to base coordinates and sorted. Only
/// `R2` (atom 1) is ever mutated, so `R1`/`R3` indices are already base.
pub fn to_base(solution: &[TupleRef], r2_dead: &BTreeSet<u32>, r2_len: u32) -> Vec<TupleRef> {
    let live: Vec<u32> = (0..r2_len).filter(|i| !r2_dead.contains(i)).collect();
    let mut out: Vec<TupleRef> = solution
        .iter()
        .map(|t| {
            if t.atom == 1 {
                TupleRef::new(1, live[t.index as usize])
            } else {
                *t
            }
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_always_effective() {
        let a = batch_stream(400, 40, 7);
        let b = batch_stream(400, 40, 7);
        assert_eq!(
            a.iter().map(|x| x.tuples.clone()).collect::<Vec<_>>(),
            b.iter().map(|x| x.tuples.clone()).collect::<Vec<_>>()
        );
        let mut dead = BTreeSet::new();
        for (i, batch) in a.iter().enumerate() {
            assert_eq!(batch.delete, i % 4 != 3, "batch {i}");
            assert_eq!(batch.tuples.len(), BATCH);
            for t in &batch.tuples {
                // Deletes hit live tuples, restores dead ones.
                assert_eq!(dead.contains(t), !batch.delete, "batch {i} tuple {t}");
            }
            for &t in &batch.tuples {
                if batch.delete {
                    dead.insert(t);
                } else {
                    dead.remove(&t);
                }
            }
        }
        assert_eq!(deleted_by_epoch(&a).last(), Some(&dead));
    }

    #[test]
    fn op_counts_scale_with_seconds_only() {
        let a = spec("ratio_sweep", 10).unwrap();
        assert_eq!(a.read_ops % (CONNS * a.cells.len()), 0);
        assert_eq!(a.read_ops, spec("ratio_sweep", 10).unwrap().read_ops);
        assert!(spec("hot_read", 10).unwrap().read_ops >= 200);
        assert!(spec("nope", 10).is_none());
    }

    #[test]
    fn base_rebuild_keeps_base_order() {
        let db = database(500, 3);
        let base = Base::of(&db);
        let dead: BTreeSet<u32> = [0, 5, 9].into_iter().collect();
        let rebuilt = base.database_without(&dead);
        let r2 = db.expect("R2").to_rows();
        let live: Vec<Vec<Value>> = r2
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(&(*i as u32)))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(rebuilt.expect("R2").to_rows(), live);
        let sol = [
            TupleRef::new(1, 0),
            TupleRef::new(1, 4),
            TupleRef::new(0, 2),
        ];
        assert_eq!(
            to_base(&sol, &dead, r2.len() as u32),
            vec![
                TupleRef::new(0, 2),
                TupleRef::new(1, 1),
                TupleRef::new(1, 6)
            ]
        );
    }
}
