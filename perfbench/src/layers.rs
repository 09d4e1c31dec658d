//! Per-layer metrics: derived from the traced pass's spans, and from
//! replays that time each layer's public call on the workload's inputs.
//!
//! Each metric is the median (p50) of its samples, in µs unless its unit
//! says otherwise. Which end-to-end metric each should move, and on which
//! workload, is listed in `perfbench/README.md`.

use crate::data::{self, Batch, Spec, PUSH_K, QUERIES, Q_PATH, RATIOS};
use crate::drive::RawConn;
use crate::stats::median;
use crate::trace::self_times;
use crate::Metrics;
use adp_core::analysis::endogenous_atoms;
use adp_core::solver::{AdpOptions, PlannedEval, PreparedQuery};
use adp_core::{parse_query, Query};
use adp_engine::database::Database;
use adp_engine::delta::DeltaProvenance;
use adp_engine::provenance::{ProvenanceIndex, TupleRef};
use adp_server::Store;
use adp_service::{Service, ServiceConfig, ServiceStats, SubscribeOptions, Target};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Epochs of the write stream replayed through the cold pipeline.
const CHAIN_EPOCHS: usize = 40;

/// Spans the benchmark names as layer work; the rest of a request's time
/// (the root's and the wire spans' self time) is unattributed.
const UNATTRIBUTED: [&str; 3] = ["client.call", "wire.write", "wire.read"];

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, us(t.elapsed()))
}

/// Metrics read off the traced pass: protocol codec spans, wire wait,
/// plan time, trace coverage, and the service counters.
pub fn from_trace(conns: &[RawConn], stats: &ServiceStats, m: &mut Metrics) {
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let (mut total, mut unattributed, mut requests) = (0u64, 0u64, 0u64);
    for c in conns {
        let spans = c.tracer.spans();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            by_name.entry(s.name).or_default().push(own as f64 / 1e3);
            if s.parent.is_none() {
                total += s.duration();
                requests += 1;
            }
            if UNATTRIBUTED.contains(&s.name) {
                unattributed += own;
            }
        }
    }
    let p50 = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v));
    let samples: Vec<_> = conns.iter().flat_map(|c| c.samples.iter()).collect();
    let wire_wait: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e3 - (s.plan_us + s.solve_us) as f64)
        .collect();
    let plan: Vec<f64> = samples.iter().map(|s| s.plan_us as f64).collect();
    let bytes: Vec<f64> = samples.iter().map(|s| s.response_bytes as f64).collect();

    m.put(
        "server.request_encode_us",
        p50("server.request_encode"),
        "us",
    );
    m.put(
        "server.request_decode_us",
        p50("server.request_decode"),
        "us",
    );
    m.put(
        "server.response_encode_us",
        p50("server.response_encode"),
        "us",
    );
    m.put(
        "server.response_decode_us",
        p50("server.response_decode"),
        "us",
    );
    m.put("server.response_bytes", median(&bytes), "bytes");
    m.put("server.wire_wait_us", median(&wire_wait), "us");
    m.put("service.plan_us", median(&plan), "us");
    let base = stats.requests.max(1) as f64;
    m.put("service.requests", stats.requests as f64, "count");
    m.put(
        "service.cache_hit_ratio",
        stats.cache_hits as f64 / base,
        "ratio",
    );
    m.put("service.shed_ratio", stats.shed as f64 / base, "ratio");
    m.put(
        "service.peak_queue_depth",
        stats.peak_queue_depth as f64,
        "count",
    );
    m.put("trace.requests", requests as f64, "count");
    m.put(
        "trace.coverage",
        1.0 - unattributed as f64 / total.max(1) as f64,
        "ratio",
    );
}

/// The greedy round loop on a cloned template: rounds run until `k`
/// outputs are gone. Returns the round count.
fn greedy_rounds(delta: &mut DeltaProvenance, endo: &[bool], k: u64) -> u64 {
    delta.enable_selection(endo.to_vec());
    let (mut removed, mut rounds) = (0u64, 0u64);
    while removed < k && delta.live_outputs() > 0 {
        let Some((_, atom, idx)) = delta
            .best_profit_candidate()
            .or_else(|| delta.best_count_candidate())
        else {
            break;
        };
        removed += delta.delete(TupleRef::new(atom, idx));
        rounds += 1;
    }
    rounds
}

/// The next epoch's snapshot, derived as the service derives it: an
/// `Arc`-sharing clone, the batch's tombstones or restores, compaction.
fn derive(cur: &Database, base: &Database, batch: &Batch, tombstone_pct: u32) -> Database {
    let mut next = cur.clone();
    let rel = next.rel_id("R2").expect("R2 exists");
    for &i in &batch.tuples {
        if batch.delete {
            next.relation_mut_by_id(rel).delete_stable(i);
        } else {
            let values = base.relation_by_id(rel).tuple_vec(i);
            next.relation_mut_by_id(rel).restore_stable(i, &values);
        }
    }
    if batch.delete {
        next.maybe_compact_all(tombstone_pct);
    }
    next
}

/// Samples gathered by the replays.
#[derive(Default)]
struct Samples {
    index_build: Vec<f64>,
    join: Vec<f64>,
    provenance: Vec<f64>,
    delta_score: Vec<f64>,
    delta_clone: Vec<f64>,
    delta_rounds: Vec<f64>,
    rounds: Vec<f64>,
    snapshot_derive: Vec<f64>,
    rebind: Vec<f64>,
    prepared_solve: Vec<f64>,
}

fn query(text: &str) -> Query {
    parse_query(text).expect("benchmark queries parse")
}

/// Times every layer's public call on the workload's data and write
/// stream and adds the per-layer metrics. Returns notes for the log.
pub fn replay(
    spec: &Spec,
    seed: u64,
    stream: &[Batch],
    dir: &Path,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<Vec<String>, String> {
    let config = ServiceConfig::default();
    let sealed = || {
        let mut db = data::database(spec.n, seed);
        db.seal_all(config.segment_target_rows.max(1));
        Arc::new(db)
    };
    let qpath = query(Q_PATH);
    let endo = endogenous_atoms(&qpath);
    let opts = AdpOptions::default();
    let chain = &stream[..stream.len().min(CHAIN_EPOCHS)];
    let mut s = Samples::default();

    // Engine stages of a cold re-plan, epoch by epoch along the stream,
    // each snapshot derived from the previous one as the service does.
    let base = sealed();
    let mut cur = Arc::clone(&base);
    for batch in chain {
        let (next, t) = time(|| derive(&cur, &base, batch, config.compact_tombstone_pct));
        s.snapshot_derive.push(t);
        cur = Arc::new(next);
        let planned = PlannedEval::new(&qpath, Arc::clone(&cur));
        let plan = planned.plan();
        let (indexes, t) = time(|| plan.build_indexes(&cur));
        s.index_build.push(t);
        let (eval, t) = time(|| plan.execute(&cur, &indexes));
        s.join.push(t);
        let (_, t) = time(|| ProvenanceIndex::try_new(&eval).expect("provenance fits"));
        s.provenance.push(t);
        planned.eval();
        let (template, t) = time(|| planned.delta_template(true));
        let template = template.map_err(|e| e.to_string())?;
        s.delta_score.push(t);
        if spec.solve_after_batch {
            let (mut delta, t) = time(|| DeltaProvenance::clone(&template));
            s.delta_clone.push(t);
            let (rounds, t) = time(|| greedy_rounds(&mut delta, &endo, PUSH_K));
            s.delta_rounds.push(t);
            s.rounds.push(rounds as f64);
        }
    }

    // Core: rebinding onto each new snapshot (a second chain, so its
    // segment caches start as cold as the service's).
    let base = sealed();
    let mut cur = Arc::clone(&base);
    let mut prep = PreparedQuery::new(qpath.clone(), Arc::clone(&base));
    for batch in chain {
        cur = Arc::new(derive(&cur, &base, batch, config.compact_tombstone_pct));
        let (next, t) = time(|| prep.rebind(Arc::clone(&cur)));
        s.rebind.push(t);
        prep = next;
        if spec.solve_after_batch {
            let (out, t) = time(|| prep.solve(PUSH_K, &opts));
            s.prepared_solve.push(t);
            out.map_err(|e| e.to_string())?;
        }
    }

    // Warm plans on the epoch-0 data: the read phase's solves, the
    // template clone, and the round loop on each greedy cell.
    let db0 = sealed();
    let warm = |text: &str| {
        let p = PreparedQuery::new(query(text), Arc::clone(&db0));
        p.output_count();
        p
    };
    let preps = QUERIES.map(warm);
    let [qpath_prep, q6_prep, bool_prep] = &preps;
    let witnesses = qpath_prep.eval().witness_count();
    if !spec.solve_after_batch {
        let planned = PlannedEval::new(&qpath, Arc::clone(&db0));
        planned.eval();
        let template = planned.delta_template(true).map_err(|e| e.to_string())?;
        let reps = if spec.n > 20_000 { 3 } else { 25 };
        for _ in 0..reps {
            for cell in &spec.cells {
                let p = &preps[cell.query];
                let k = data::resolve_k(cell.target, p.output_count());
                let (out, t) = time(|| p.solve(k, &opts));
                s.prepared_solve.push(t);
                let out = out.map_err(|e| e.to_string())?;
                if cell.query == 0 {
                    let (mut delta, t) = time(|| DeltaProvenance::clone(&template));
                    s.delta_clone.push(t);
                    let (rounds, t) = time(|| greedy_rounds(&mut delta, &endo, k));
                    s.delta_rounds.push(t);
                    s.rounds.push(rounds as f64);
                    if rounds != out.cost {
                        problems.push(format!(
                            "k={k}: {rounds} rounds vs greedy cost {}",
                            out.cost
                        ));
                    }
                }
            }
        }
    }
    let mut singleton = Vec::new();
    let mut mincut = Vec::new();
    for _ in 0..3 {
        for rho in RATIOS {
            let k = data::resolve_k(Target::Ratio(rho), q6_prep.output_count());
            let (out, t) = time(|| q6_prep.solve(k, &opts));
            out.map_err(|e| e.to_string())?;
            singleton.push(t);
        }
        let (out, t) = time(|| bool_prep.solve(1, &opts));
        out.map_err(|e| e.to_string())?;
        mincut.push(t);
    }

    let clone_p50 = median(&s.delta_clone);
    let solve_p50 = median(&s.prepared_solve);
    m.put(
        "service.statement_solve_us",
        statement_solve(spec, seed, chain)?,
        "us",
    );
    let (install, fanout) = install_and_fanout(spec, seed, stream)?;
    m.put("service.install_us", install, "us");
    m.put("service.fanout_us", fanout, "us");
    m.put("core.prepared_solve_us", solve_p50, "us");
    m.put("core.rebind_us", median(&s.rebind), "us");
    m.put("core.greedy_rounds", median(&s.rounds), "count");
    m.put("core.singleton_solve_us", median(&singleton), "us");
    m.put("core.mincut_solve_us", median(&mincut), "us");
    m.put("engine.index_build_us", median(&s.index_build), "us");
    m.put("engine.join_us", median(&s.join), "us");
    m.put("engine.provenance_us", median(&s.provenance), "us");
    m.put("engine.delta_score_us", median(&s.delta_score), "us");
    m.put("engine.delta_clone_us", clone_p50, "us");
    m.put("engine.delta_clone_share", clone_p50 / solve_p50, "ratio");
    m.put("engine.delta_rounds_us", median(&s.delta_rounds), "us");
    m.put(
        "engine.snapshot_derive_us",
        median(&s.snapshot_derive),
        "us",
    );
    m.put("engine.witnesses", witnesses as f64, "count");
    wal(spec, seed, stream, dir, m)
}

/// In-process `Statement::solve` on the workload's targets: warm cells
/// for the read workloads, a cold re-plan after each batch for
/// `read_write`.
fn statement_solve(spec: &Spec, seed: u64, chain: &[Batch]) -> Result<f64, String> {
    let svc = Service::with_config(data::database(spec.n, seed), ServiceConfig::default());
    let stmts = QUERIES
        .iter()
        .map(|q| svc.prepare(q).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut samples = Vec::new();
    if spec.solve_after_batch {
        for batch in chain {
            apply(&svc, batch)?;
            let (r, t) = time(|| stmts[0].solve(Target::Outputs(PUSH_K)));
            r.map_err(|e| e.to_string())?;
            samples.push(t);
        }
    } else {
        let reps = if spec.n > 20_000 { 3 } else { 25 };
        for rep in 0..=reps {
            for cell in &spec.cells {
                let (r, t) = time(|| stmts[cell.query].solve(cell.target));
                r.map_err(|e| e.to_string())?;
                if rep > 0 {
                    samples.push(t);
                }
            }
        }
    }
    Ok(median(&samples))
}

fn apply(svc: &Service, batch: &Batch) -> Result<u64, String> {
    let entries = batch.entries();
    let r = if batch.delete {
        svc.delete_tuples(&entries)
    } else {
        svc.restore_tuples(&entries)
    };
    r.map_err(|e| e.to_string())
}

/// `Service::delete_tuples`/`restore_tuples` over the stream with no
/// subscriber (install), and again with one `PUSH_K` subscription; the
/// fan-out is the difference of the medians.
fn install_and_fanout(spec: &Spec, seed: u64, stream: &[Batch]) -> Result<(f64, f64), String> {
    let mut medians = [0.0; 2];
    for (with_sub, slot) in [false, true].into_iter().zip(&mut medians) {
        let svc = Service::with_config(data::database(spec.n, seed), ServiceConfig::default());
        let stmt = svc.prepare(Q_PATH).map_err(|e| e.to_string())?;
        let sub = if with_sub {
            let opts = SubscribeOptions::default().with_buffer(stream.len() + 1);
            Some(
                svc.subscribe(&stmt, Target::Outputs(PUSH_K), opts)
                    .map_err(|e| e.to_string())?,
            )
        } else {
            None
        };
        let mut samples = Vec::with_capacity(stream.len());
        for batch in stream {
            let (r, t) = time(|| apply(&svc, batch));
            r?;
            samples.push(t);
        }
        if let Some((_, rx)) = &sub {
            if rx.try_iter().count() != stream.len() {
                return Err("fan-out replay lost updates".into());
            }
        }
        *slot = median(&samples);
    }
    Ok((medians[0], medians[1] - medians[0]))
}

/// The write-ahead log on a scratch store: append and fsync per batch,
/// bytes per record, and recovery time per replayed record.
fn wal(
    spec: &Spec,
    seed: u64,
    stream: &[Batch],
    dir: &Path,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let config = ServiceConfig::default();
    let db = data::database(spec.n, seed);
    let slot = db
        .relations()
        .iter()
        .position(|r| r.name() == "R2")
        .ok_or("no R2")? as u32;
    let mut store = Store::init(dir, &db, &config).map_err(|e| e.to_string())?;
    let log = dir.join(adp_server::persist::LOG_FILE);
    let size = || std::fs::metadata(&log).map(|md| md.len()).unwrap_or(0);
    let (mut append, mut sync, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for batch in stream {
        let entries: Vec<(u32, u32)> = batch.tuples.iter().map(|&i| (slot, i)).collect();
        let before = size();
        let (r, t) = time(|| store.append_batch(batch.delete, &entries));
        r.map_err(|e| e.to_string())?;
        append.push(t);
        let (r, t) = time(|| store.sync());
        r.map_err(|e| e.to_string())?;
        sync.push(t);
        bytes.push((size() - before) as f64);
    }
    drop(store);
    let (rec, t) = time(|| Store::recover(dir, config));
    let rec = rec.map_err(|e| e.to_string())?;
    m.put("server.wal_append_us", median(&append), "us");
    m.put("server.wal_sync_us", median(&sync), "us");
    m.put("server.wal_bytes_per_batch", median(&bytes), "bytes");
    m.put(
        "server.recover_us_per_record",
        t / rec.replayed.max(1) as f64,
        "us",
    );
    Ok(vec![format!(
        "layer replays: {} write batches, {} chain epochs, recovery replayed {} records in {t:.0} us",
        stream.len(),
        stream.len().min(CHAIN_EPOCHS),
        rec.replayed
    )])
}
