//! Soft internal checks for the figure binaries.
//!
//! The harness asserts equalities while it measures (delta state vs the
//! masked oracle in `fig_stream`, pushed diffs vs fresh solves in
//! `fig_subscribe`, variant agreement in the ablations). A hard `assert!`
//! aborts the run at the first divergence and hides every later data
//! point; a `println!` lets CI smoke jobs "pass" while printing
//! garbage. These helpers take the third road: record the failure,
//! keep producing the figure, and make the **process exit non-zero** at
//! the end ([`finish`]), so CI catches divergence without losing the
//! diagnostic output.
//!
//! Every figure binary ends its `main` with [`finish`]; the
//! `figures` umbrella additionally catches per-figure panics so one
//! broken figure cannot mask the others (the run still exits 1).

use std::sync::atomic::{AtomicU64, Ordering};

static FAILURES: AtomicU64 = AtomicU64::new(0);

/// Records one internal check failure and prints it to stderr.
pub fn record_failure(msg: &str) {
    FAILURES.fetch_add(1, Ordering::Relaxed);
    eprintln!("CHECK FAILED: {msg}");
}

/// Soft assertion: on failure, records and reports but does not abort.
/// Returns the condition so callers can branch.
pub fn check(cond: bool, msg: impl FnOnce() -> String) -> bool {
    if !cond {
        record_failure(&msg());
    }
    cond
}

/// Soft equality assertion with `Debug` output for both sides.
pub fn check_eq<T: PartialEq + std::fmt::Debug>(
    left: &T,
    right: &T,
    ctx: impl FnOnce() -> String,
) -> bool {
    check(left == right, || {
        format!("{}: left = {left:?}, right = {right:?}", ctx())
    })
}

/// Number of failures recorded so far in this process.
pub fn failures() -> u64 {
    FAILURES.load(Ordering::Relaxed)
}

/// Terminates the process with exit code 1 if any internal check
/// failed; otherwise returns normally. Call at the end of every figure
/// binary's `main`.
pub fn finish() {
    let n = failures();
    if n > 0 {
        eprintln!("error: {n} internal check(s) failed; see CHECK FAILED lines above");
        std::process::exit(1);
    }
}

/// Runs `f`, converting a panic into a recorded failure instead of
/// aborting the process — used by the `figures` umbrella binary so one
/// broken figure cannot mask the rest (the process still exits 1 via
/// [`finish`]).
pub fn run_guarded(name: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
    if let Err(payload) = std::panic::catch_unwind(f) {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        record_failure(&format!("{name} panicked: {msg}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counter is process-global, so this single test exercises the
    /// whole lifecycle (parallel tests would race the tallies).
    #[test]
    fn checks_record_and_tally() {
        let before = failures();
        assert!(check(true, || unreachable!("not evaluated on success")));
        assert!(check_eq(&1u64, &1u64, || unreachable!()));
        assert_eq!(failures(), before);
        assert!(!check(false, || "expected failure (test)".into()));
        assert!(!check_eq(&1u64, &2u64, || "expected diff (test)".into()));
        assert_eq!(failures(), before + 2);
        run_guarded("guarded (test)", || panic!("expected panic (test)"));
        assert_eq!(failures(), before + 3);
        // finish() would exit(1) here; that path is exercised by the CI
        // smoke jobs which require exit code 0 of healthy runs.
    }
}
