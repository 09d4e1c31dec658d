//! `adp-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_read|ratio_sweep|read_write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, drives an in-process
//! `adp_server::Server` over loopback TCP with two closed-loop client
//! connections, checks every answer against in-process references, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Operation counts
//! are fixed by `--seconds` (sized so the reference machine measures
//! about that long), never by elapsed time, so every commit runs the
//! same operations. It writes no result files.

mod check;
mod data;
mod drive;
mod layers;
mod stats;
mod trace;
mod yardstick;

use drive::{Mode, PhaseOut, WriteOut};
use stats::{mean, median, percentile, trimmed_mean, TAIL};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use yardstick::{slowdown, Yardstick};

/// Set-ups per run; `setup_s` is their trimmed mean. Each runs alone:
/// the previous server is stopped before the next set-up starts. The
/// first serves the workload; the others run after it and after the
/// first recovery, so `peak_rss_mb` covers one server, its workload and
/// one recovery, not the heap that repeated set-ups leave behind.
/// Every time metric is scaled to the reference speed by the yardstick
/// samples of its own phase (see `yardstick.rs`).
const SETUPS: usize = 12;
/// Recoveries per run; `recovery_s` is their trimmed mean.
const RECOVERIES: usize = 41;
/// Pauses between set-ups and between recoveries, outside their timing.
/// On the reference VM the host runs fast or slow in stretches of
/// seconds; spaced out, the samples of a run span several stretches, and
/// their trimmed mean moves with the mixture where a median would flip
/// between the two speeds.
const SETUP_GAP: Duration = Duration::from_millis(250);
const RECOVERY_GAP: Duration = Duration::from_millis(100);
/// Consecutive blocks the traced pass is cut into for the spread of
/// `trace.overhead`.
const OVERHEAD_BLOCKS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics with units, in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// What a run hands to the printer.
struct RunResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                data::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = data::spec(&args.workload, args.seconds) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            data::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let scratch = scratch_dir();
    let _ = std::fs::remove_dir_all(&scratch);
    let result = if args.trace {
        run_traced(&spec, args.seed, &scratch)
    } else {
        run_end_to_end(&spec, args.seed, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name);
            return ExitCode::from(1);
        }
    };
    print_environment(&spec, &args);
    for note in &result.notes {
        println!("# {note}");
    }
    for p in result.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = result.problems.is_empty();
    println!("{}", render_json(correct, &result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per-process scratch space under the build directory of the checkout.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join(format!("perfbench-scratch-{}", std::process::id()))
}

/// The end-to-end run: `SETUPS` set-ups, the timed read phase,
/// the write phase with its subscriber, recovery, then the oracle.
fn run_end_to_end(spec: &data::Spec, seed: u64, scratch: &Path) -> Result<RunResult, String> {
    let stream = data::batch_stream(
        data::r2_len(&data::database(spec.n, seed)),
        spec.batches,
        seed,
    );

    let ys = Yardstick::new(spec.n);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_ys = Vec::with_capacity(SETUPS);
    let mut seen = drive::SeenAnswers::new(spec.cells.len());
    let store_dir = scratch.join("store0");
    setup_ys.push(ys.sample());
    let (mut live, secs) = drive::setup(spec, seed, &store_dir, Mode::Plain, &mut seen)?;
    setup_s.push(secs);

    let reads = if spec.read_ops > 0 {
        drive::read_phase(&mut live, spec, &mut seen, &ys)
    } else {
        PhaseOut::default()
    };
    let writes = drive::write_phase(&mut live, spec, &stream, &ys)?;
    drive::teardown(live);

    let mut problems = Vec::new();
    let mut recovery_s = Vec::with_capacity(RECOVERIES);
    let mut recovery_ys = Vec::with_capacity(RECOVERIES);
    let mut peak_rss_mb = f64::NAN;
    for rep in 0..RECOVERIES {
        std::thread::sleep(RECOVERY_GAP);
        recovery_ys.push(ys.sample());
        let (rec, secs) = drive::recover(&store_dir)?;
        recovery_s.push(secs);
        if rep == 0 {
            check_recovery(&rec, &writes, &mut problems);
            peak_rss_mb = self::peak_rss_mb();
        }
    }
    for rep in 1..SETUPS {
        std::thread::sleep(SETUP_GAP);
        setup_ys.push(ys.sample());
        let dir = scratch.join(format!("store{rep}"));
        let (live, secs) = drive::setup(spec, seed, &dir, Mode::Plain, &mut seen)?;
        setup_s.push(secs);
        drive::teardown(live);
    }

    let t = Instant::now();
    let base = data::Base::of(&data::database(spec.n, seed));
    let refs = check::references(spec, &base, &stream);
    check::check_cells(&seen, &refs, &mut problems);
    check::check_writes(&writes, &refs, &mut problems);
    let oracle_s = t.elapsed().as_secs_f64();

    let solves = if spec.solve_after_batch {
        &writes.phase
    } else {
        &reads
    };
    let slow = [
        slowdown(&setup_ys),
        slowdown(&solves.yardstick_ms),
        slowdown(&writes.phase.yardstick_ms),
        slowdown(&recovery_ys),
    ];
    let [setup_x, solve_x, write_x, recovery_x] = slow;
    let raw = [
        trimmed_mean(&setup_s),
        solves.solve_ms.len() as f64 / solves.span_s,
        mean(&solves.solve_ms),
        percentile(&solves.solve_ms, TAIL),
        median(&writes.mutate_ms),
        median(&writes.push_ms),
        trimmed_mean(&recovery_s),
    ];
    let mut m = Metrics::default();
    m.put("setup_s", raw[0] / setup_x, "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("solve_throughput_qps", raw[1] * solve_x, "1/s");
    // The mean, not the median: on the reference VM a hot solve takes
    // either ~7 or ~10.5 ms for stretches of seconds, so the median of a
    // run flips between the two while the mean moves with the mixture.
    m.put("solve_mean_ms", raw[2] / solve_x, "ms");
    m.put("solve_p95_ms", raw[3] / solve_x, "ms");
    m.put("mutate_p50_ms", raw[4] / write_x, "ms");
    m.put("push_p50_ms", raw[5] / write_x, "ms");
    m.put("recovery_s", raw[6] / recovery_x, "s");

    let attempted = reads.attempted + writes.phase.attempted;
    let failed = reads.failed + writes.phase.failed;
    for e in reads.errors.iter().chain(&writes.phase.errors) {
        problems.push(format!("operation failed: {e}"));
    }
    let notes = vec![
        format!(
            "samples: solves {} (highest supported percentile {}), mutates {} ({}), pushes {} ({})",
            solves.solve_ms.len(),
            supported(solves.solve_ms.len()),
            writes.mutate_ms.len(),
            supported(writes.mutate_ms.len()),
            writes.push_ms.len(),
            supported(writes.push_ms.len()),
        ),
        format!(
            "solve_ms p10/p25/p50/p75/p90/max {:?}",
            [10.0, 25.0, 50.0, 75.0, 90.0, 100.0].map(|p| percentile(&solves.solve_ms, p)),
        ),
        // Unbounded: host stalls move these run to run (see README).
        format!(
            "mutate_p95_ms {} push_p95_ms {}",
            percentile(&writes.mutate_ms, TAIL),
            percentile(&writes.push_ms, TAIL)
        ),
        format!(
            "error_rate {} ({failed} of {attempted} operations failed)",
            failed as f64 / attempted.max(1) as f64
        ),
        format!(
            "setups_s {setup_s:?}, recovery_s min/p25/p50/p75 {:?} mean {}, oracle {oracle_s:.2}s outside the timed span",
            [0.0, 25.0, 50.0, 75.0].map(|p| percentile(&recovery_s, p)),
            mean(&recovery_s),
        ),
        "wal flush policy: the server's own (one write per effective batch, no fsync)".into(),
        format!(
            "unscaled setup_s/qps/solve_mean_ms/solve_p95_ms/mutate_p50_ms/push_p50_ms/recovery_s {raw:?}; \
             slowdown setup/solve/write/recovery {slow:?} from {}/{}/{}/{} yardstick samples",
            setup_ys.len(),
            solves.yardstick_ms.len(),
            writes.phase.yardstick_ms.len(),
            recovery_ys.len(),
        ),
    ];
    Ok(RunResult {
        metrics: m,
        attempted,
        failed,
        problems,
        notes,
    })
}

/// Recovered epoch == last acked epoch, and the recovered service answers
/// like the live one did last.
fn check_recovery(rec: &adp_server::Recovery, writes: &WriteOut, problems: &mut Vec<String>) {
    let last_acked = writes.acked.last().copied().unwrap_or(0);
    if rec.epoch != last_acked || rec.truncated_tail {
        problems.push(format!(
            "recovered epoch {} (torn tail {}) != last acked {last_acked}",
            rec.epoch, rec.truncated_tail
        ));
    }
    match (drive::recovered_answer(&rec.service), &writes.last_answer) {
        (Ok(got), Some(live)) if got == *live => {}
        (Ok((epoch, _)), _) => problems.push(format!(
            "recovered answer at epoch {epoch} differs from the last live answer"
        )),
        (Err(e), _) => problems.push(format!("recovered solve failed: {e}")),
    }
}

fn supported(n: usize) -> String {
    match stats::highest_supported(n) {
        Some(p) => format!("p{p}"),
        None => "none".into(),
    }
}

/// The traced run: one pass of the workload's main phase whose solves
/// alternate between traced and untraced (for `trace.overhead`), then
/// per-layer replays.
fn run_traced(spec: &data::Spec, seed: u64, scratch: &Path) -> Result<RunResult, String> {
    let base = data::Base::of(&data::database(spec.n, seed));
    let stream = data::batch_stream(base.r2_len(), spec.batches, seed);
    // Only `read_write` writes in its traced pass.
    let written = if spec.solve_after_batch {
        &stream[..]
    } else {
        &[]
    };
    let refs = check::references(spec, &base, written);
    let mut problems = Vec::new();

    let mut seen = drive::SeenAnswers::new(spec.cells.len());
    let mode = Mode::Traced(Instant::now());
    let (mut live, _) = drive::setup(spec, seed, &scratch.join("traced"), mode, &mut seen)?;
    let ys = Yardstick::new(spec.n);
    let phase = if spec.solve_after_batch {
        let w = drive::write_phase(&mut live, spec, &stream, &ys)?;
        check::check_writes(&w, &refs, &mut problems);
        w.phase
    } else {
        drive::read_phase(&mut live, spec, &mut seen, &ys)
    };
    let stats = live.conns[0].stats()?;
    check::check_cells(&seen, &refs, &mut problems);
    for e in &phase.errors {
        problems.push(format!("operation failed: {e}"));
    }
    let conns: Vec<drive::RawConn> = std::mem::take(&mut live.conns)
        .into_iter()
        .filter_map(|c| match c {
            drive::Conn::Traced(r) => Some(r),
            drive::Conn::Plain(_) => None,
        })
        .collect();
    drive::teardown(live);

    let mut m = Metrics::default();
    layers::from_trace(&conns, &stats, &mut m);
    let (overhead, spread) = overhead(&phase.solve_ms, &phase.untraced_ms);
    m.put("trace.overhead", overhead, "ratio");
    m.put("trace.overhead_spread", spread, "ratio");
    let notes = layers::replay(
        spec,
        seed,
        &stream,
        &scratch.join("layers"),
        &mut m,
        &mut problems,
    )?;
    Ok(RunResult {
        metrics: m,
        attempted: phase.attempted,
        failed: phase.failed,
        problems,
        notes,
    })
}

/// Traced ÷ untraced mean solve latency, from solves that alternated
/// between the two on the same server, and the quartile spread of that
/// ratio over `OVERHEAD_BLOCKS` consecutive blocks, as a share of the
/// blocks' median ratio. Means, because hot solves are bimodal.
fn overhead(traced_ms: &[f64], untraced_ms: &[f64]) -> (f64, f64) {
    let blocks = |v: &[f64]| -> Vec<f64> {
        v.chunks(v.len().div_ceil(OVERHEAD_BLOCKS).max(1))
            .map(mean)
            .collect()
    };
    let ratios: Vec<f64> = blocks(traced_ms)
        .iter()
        .zip(blocks(untraced_ms))
        .map(|(t, u)| t / u)
        .collect();
    let spread = (percentile(&ratios, 75.0) - percentile(&ratios, 25.0)) / median(&ratios);
    (mean(traced_ms) / mean(untraced_ms), spread)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One line recording how the run was made: seed, machine, pool, source
/// and operation counts.
fn print_environment(spec: &data::Spec, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# env: workload={} seed={} seconds={} trace={} nproc={nproc} pool_threads={} \
         connections={} source={} read_ops={} batches={} batch_tuples={} n={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        adp_runtime::global().threads(),
        data::CONNS,
        source_id(),
        spec.read_ops,
        spec.batches,
        data::BATCH,
        spec.n,
    );
}

/// The commit when the checkout is a git work tree, otherwise a digest of
/// the sources the benchmark builds (`crates/` and the benchmark itself).
fn source_id() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        let commit = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
            None => head.to_string(),
        };
        if !commit.trim().is_empty() {
            return format!("git:{}", commit.trim());
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv:{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn render_json(correct: bool, r: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted, r.failed
    );
    for (i, (name, value, unit)) in r.metrics.0.iter().enumerate() {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}
