//! Pins the v2 acceptance criterion: the `Statement` hot path performs
//! **zero** query-text work — no parse, no normalization, no
//! fingerprint — on repeat calls, and re-binding after an epoch bump
//! goes through the plan record the statement holds instead of the
//! query text.
//!
//! The process-wide counters in `adp::core::query::metrics` tick on
//! every text-path operation, so a zero **delta** across a region
//! proves absence of work. This file intentionally holds a single
//! `#[test]` — integration-test binaries run their tests in parallel
//! threads, and any other test parsing a query concurrently would make
//! the deltas racy. (Separate test *binaries* run sequentially, so
//! other suites cannot interfere.)

use adp::core::query::metrics;
use adp::{attrs, Database, Service, SolveRequest, Target};

#[test]
fn statement_hot_path_does_zero_query_text_work() {
    let mut db = Database::new();
    db.add_relation("R1", attrs(&["A"]), &[&[1], &[2], &[3]]);
    db.add_relation(
        "R2",
        attrs(&["A", "B"]),
        &[&[1, 1], &[1, 2], &[2, 1], &[3, 3]],
    );
    db.add_relation("R3", attrs(&["B"]), &[&[1], &[2], &[3]]);
    let svc = Service::new(db);
    let text = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

    // Prepare pays the text path once: one parse, one normalization
    // (shared by the registry key and the statement's fingerprint), one
    // fingerprint.
    let before = metrics::text_work();
    let stmt = svc.prepare(text).unwrap();
    let after = metrics::text_work();
    assert_eq!(after.parses - before.parses, 1, "prepare parses once");
    assert_eq!(
        after.fingerprints - before.fingerprints,
        1,
        "prepare fingerprints once"
    );
    assert_eq!(
        after.normalizations - before.normalizations,
        1,
        "prepare renders the normalized key exactly once"
    );

    // The hot path: many solves, zero text work of any kind.
    let baseline = stmt.solve(Target::Outputs(1)).unwrap();
    let before = metrics::text_work();
    for i in 0..100u64 {
        let resp = stmt.solve(Target::Outputs(1 + i % 3)).unwrap();
        assert!(resp.stats.cache_hit, "bound statements always hit");
    }
    stmt.solve(Target::Ratio(0.5)).unwrap();
    assert_eq!(
        metrics::text_work(),
        before,
        "101 statement solves must parse/normalize/fingerprint nothing"
    );

    // Epoch bump: the statement re-binds the plan record it holds —
    // still zero text work.
    svc.delete_tuples(&[("R2", 0)]).unwrap();
    let before = metrics::text_work();
    let rebound = stmt.solve(Target::Outputs(1)).unwrap();
    assert_eq!(rebound.stats.epoch, 1);
    assert_eq!(
        metrics::text_work(),
        before,
        "re-binding must not re-derive the cache key from text"
    );

    // The text front door, for contrast, pays per call: one parse and
    // one normalization (the registry key) per solve. The registry is
    // not sharded, so nothing fingerprints the key.
    let before = metrics::text_work();
    let via_text = svc.solve(&SolveRequest::outputs(text, 1)).unwrap();
    let after = metrics::text_work();
    assert_eq!(after.parses - before.parses, 1);
    assert_eq!(after.fingerprints - before.fingerprints, 0);
    assert_eq!(after.normalizations - before.normalizations, 1);

    // And of course all three paths agree on the answer.
    assert_eq!(via_text.outcome.cost, rebound.outcome.cost);
    assert_eq!(via_text.outcome.solution, rebound.outcome.solution);
    let _ = baseline;
}
