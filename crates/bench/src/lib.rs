//! # adp-bench
//!
//! Experiment harness regenerating every figure of the paper's evaluation
//! (§8, Figures 7–29). Each binary prints the same series the paper
//! plots, as aligned text tables plus machine-readable CSV lines of the
//! form `csv,<figure>,<series>,<x>,<y>`.
//!
//! Absolute numbers differ from the paper (we replace PostgreSQL+Java
//! with a pure in-memory Rust engine and scale 10M-row workloads to
//! laptop sizes); the *shape* — who wins, by what factor, where methods
//! stop scaling — is the reproduction target. See `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod checks;
pub mod cli;
pub mod experiments;

use adp_core::query::Query;
use adp_core::solver::{AdpOptions, AdpOutcome, PreparedQuery};
use adp_engine::database::Database;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The removal ratios ρ the paper sweeps.
pub const RATIOS: [f64; 4] = [0.10, 0.25, 0.50, 0.75];

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Series label (e.g. "Greedy, rho=10%").
    pub series: String,
    /// X value (input size or ratio).
    pub x: f64,
    /// Elapsed milliseconds.
    pub millis: f64,
    /// Solution quality: tuples removed (u64::MAX = not applicable).
    pub quality: u64,
}

/// Collects and prints the points of one figure.
pub struct Figure {
    /// Figure identifier, e.g. "fig07".
    pub id: String,
    /// What the figure shows.
    pub title: String,
    points: Vec<Point>,
}

impl Figure {
    /// Starts a figure.
    pub fn new(id: &str, title: &str) -> Self {
        println!("\n=== {id}: {title} ===");
        Figure {
            id: id.to_owned(),
            title: title.to_owned(),
            points: Vec::new(),
        }
    }

    /// Records and echoes a point.
    pub fn push(&mut self, series: &str, x: f64, millis: f64, quality: u64) {
        println!(
            "  {series:<28} x={x:<12} time={millis:>10.2} ms{}",
            if quality == u64::MAX {
                String::new()
            } else {
                format!("  removed_tuples={quality}")
            }
        );
        self.points.push(Point {
            series: series.to_owned(),
            x,
            millis,
            quality,
        });
    }

    /// Emits the machine-readable CSV block.
    pub fn finish(self) {
        for p in &self.points {
            if p.quality == u64::MAX {
                println!("csv,{},{},{},{:.3}", self.id, p.series, p.x, p.millis);
            } else {
                println!(
                    "csv,{},{},{},{:.3},{}",
                    self.id, p.series, p.x, p.millis, p.quality
                );
            }
        }
        let _ = self.title;
    }
}

/// Compiles a query against a workload database once, so every solve in
/// a ρ-sweep reuses the same plan, hash indexes, and root evaluation —
/// from every worker: `PreparedQuery` is `Send + Sync`.
pub fn prepare(query: &Query, db: Database) -> PreparedQuery {
    PreparedQuery::new(query.clone(), Arc::new(db))
}

/// Times one solver invocation against a prepared query. The first call
/// on a fresh [`PreparedQuery`] pays the evaluation; subsequent calls
/// measure pure solver time — the plan-once/execute-many regime the
/// harness reports.
pub fn timed_solve(prep: &PreparedQuery, k: u64, opts: &AdpOptions) -> (f64, AdpOutcome) {
    let start = Instant::now();
    let out = prep
        .solve(k, opts)
        .unwrap_or_else(|e| panic!("{} k={k}: {e}", prep.query()));
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// `k = ceil(ρ · |Q(D)|)`, clamped to `1..=|Q(D)|`.
pub fn k_for_ratio(total: u64, ratio: f64) -> u64 {
    ((total as f64 * ratio).ceil() as u64).clamp(1, total.max(1))
}

/// One (k, options) cell of a ρ-sweep, labeled for the figure series.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Series label, e.g. `"Greedy, rho=25%"`.
    pub series: String,
    /// The removal target for this cell.
    pub k: u64,
    /// Solver configuration for this cell.
    pub opts: AdpOptions,
}

impl SweepCell {
    /// Builds a cell.
    pub fn new(series: impl Into<String>, k: u64, opts: AdpOptions) -> Self {
        SweepCell {
            series: series.into(),
            k,
            opts,
        }
    }
}

/// Solves every cell of a ρ-sweep against one shared [`PreparedQuery`],
/// fanning the cells out across the global [`adp_runtime`] pool (one
/// worker per cell, dynamically balanced). Results come back **in cell
/// order** and are byte-identical to the sequential loop — per-cell
/// wall-clock times are measured inside each cell, exactly like
/// [`timed_solve`].
///
/// With a single-worker pool (`--threads 1`) this *is* the sequential
/// loop.
pub fn sweep_solve(prep: &PreparedQuery, cells: &[SweepCell]) -> Vec<(f64, AdpOutcome)> {
    adp_runtime::parallel_sweep(adp_runtime::global(), cells, |_, cell| {
        timed_solve(prep, cell.k, &cell.opts)
    })
}

/// The seed a figure's workload generator should use: the figure's
/// default, or — under `--seed S` — the default combined with `S`
/// (XOR), so a user-chosen seed varies every figure's data while
/// figures still draw distinct instances.
pub fn workload_seed(figure_default: u64) -> u64 {
    match cli::args().seed {
        Some(s) => s ^ figure_default,
        None => figure_default,
    }
}

/// Whether the harness runs in quick mode (smaller sizes, for CI).
/// Binaries set this through [`cli::init`]; library and test callers
/// fall back to the `ADP_BENCH_QUICK` environment variable.
pub fn quick_mode() -> bool {
    cli::args().quick
}

/// Where a figure's JSON record named `name` (e.g. `BENCH_stream.json`)
/// goes: the working directory (the repo root, where the checked-in
/// records live) for a full run, `target/bench-quick/` for a `--quick`
/// run, so a CI-sized smoke run never overwrites a checked-in record.
pub fn record_path(name: &str, quick: bool) -> PathBuf {
    if quick {
        Path::new("target").join("bench-quick").join(name)
    } else {
        PathBuf::from(name)
    }
}

/// Writes a figure's JSON record to its [`record_path`] for the current
/// mode, creating the quick-run directory when needed.
pub fn write_record(name: &str, json: &str) {
    let path = record_path(name, quick_mode());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {} ({} bytes)", path.display(), json.len());
}

/// Input size ladder: full mode walks further up the paper's 1k..10M
/// sweep than quick mode does.
pub fn size_ladder(full: &[usize], quick: &[usize]) -> Vec<usize> {
    if quick_mode() {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_for_ratio_clamps() {
        assert_eq!(k_for_ratio(100, 0.10), 10);
        assert_eq!(k_for_ratio(100, 0.0), 1);
        assert_eq!(k_for_ratio(3, 0.9), 3);
    }

    #[test]
    fn figure_collects_points() {
        let mut f = Figure::new("t", "test");
        f.push("s", 1.0, 2.0, 3);
        assert_eq!(f.points.len(), 1);
        f.finish();
    }

    /// A full run writes the checked-in record at the root; a quick run
    /// writes under `target/`, never over it.
    #[test]
    fn quick_records_never_land_on_the_checked_in_path() {
        assert_eq!(
            record_path("BENCH_stream.json", false),
            Path::new("BENCH_stream.json")
        );
        let quick = record_path("BENCH_stream.json", true);
        assert_eq!(quick, Path::new("target/bench-quick/BENCH_stream.json"));
        assert!(quick.starts_with("target"));
    }

    #[test]
    fn workload_seed_defaults_without_cli_override() {
        // Library/test callers never ran `cli::init`, so the figure
        // default passes through unchanged.
        assert_eq!(workload_seed(0xF16), 0xF16);
    }

    #[test]
    fn sweep_solve_matches_sequential_loop() {
        use adp_core::query::parse_query;
        use adp_engine::schema::attrs;

        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        let prep = prepare(&q, db);
        let total = prep.output_count();
        let cells: Vec<SweepCell> = RATIOS
            .iter()
            .map(|&r| {
                SweepCell::new(
                    format!("rho={r}"),
                    k_for_ratio(total, r),
                    AdpOptions::default(),
                )
            })
            .collect();
        let swept = sweep_solve(&prep, &cells);
        assert_eq!(swept.len(), cells.len());
        for (cell, (_, out)) in cells.iter().zip(&swept) {
            let reference = prep.solve(cell.k, &cell.opts).unwrap();
            assert_eq!(out.cost, reference.cost, "{}", cell.series);
            assert_eq!(out.solution, reference.solution, "{}", cell.series);
        }
    }
}
