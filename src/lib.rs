//! # adp — Aggregated Deletion Propagation
//!
//! A production-quality Rust reproduction of **"Aggregated Deletion
//! Propagation for Counting Conjunctive Query Answers"** (Hu, Sun, Patwa,
//! Panigrahi, Roy; VLDB 2020, arXiv:2010.08694).
//!
//! `ADP(Q, D, k)`: given a self-join-free conjunctive query `Q`, a
//! database `D`, and `k ≥ 1`, delete the **fewest input tuples** so that
//! at least `k` tuples disappear from `Q(D)`.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`engine`] — in-memory relational substrate (joins, provenance,
//!   semijoin reduction);
//! * [`flow`] — max-flow/min-cut substrate;
//! * [`core`] — query model, both complexity dichotomies, hardness
//!   certificates, and the `ComputeADP` solver;
//! * [`datagen`] — deterministic workload generators for the paper's
//!   experiments;
//! * [`runtime`] — std-only parallel execution runtime ([`ThreadPool`],
//!   [`parallel_sweep`]); the solvers use its global pool automatically
//!   and stay **byte-identical** to their sequential paths;
//! * [`service`] — the concurrent serving layer ([`Service`]): one
//!   plan record per normalized query (its base plan and current epoch
//!   plan), a bounded-admission request API, prepared [`Statement`]
//!   handles, and epoch management for streaming delete/restore batches.
//!
//! ## The v2 API
//!
//! Three pieces cover the whole workflow, each validating at the
//! earliest possible moment and none round-tripping through strings:
//!
//! 1. **[`QueryBuilder`]** (`Query::builder(..)`) constructs queries
//!    programmatically with typed errors; [`Query::to_text`]
//!    round-trips through [`parse_query`] when text is needed.
//! 2. **[`Solve`]** is the one solver entry point — target, policy,
//!    deadline, brute-force baseline as fluent switches — returning a
//!    [`Report`] whose [`Explain`] trace says which dichotomy branch
//!    ran, which solver family answered, and where the time went.
//! 3. **[`Service::prepare`]** returns a [`Statement`]: the
//!    plan-once/bind-many serving handle whose hot path does zero
//!    query-text work per call.
//!
//! Every [`Solve`] door builds its outcome with the same code as
//! [`PreparedQuery::solve`], and a [`Statement`] answers exactly what
//! a direct solve on its snapshot does; the `api_v2_differential`
//! proptest suite pins both. Failures unify into one [`Error`] with
//! `From` conversions from every layer enum.
//!
//! ```
//! use adp::{attrs, Database, Query, Solve};
//!
//! // Network robustness (paper Example 3), no string round-trip.
//! let q = Query::builder("Q3path")
//!     .head(["A", "B", "C", "D"])
//!     .atom("R1", ["A", "B"])
//!     .atom("R2", ["B", "C"])
//!     .atom("R3", ["C", "D"])
//!     .build()
//!     .unwrap();
//! assert!(!adp::is_ptime(&q)); // NP-hard shape
//!
//! let mut db = Database::new();
//! db.add_relation("R1", attrs(&["A", "B"]), &[&[0, 1], &[0, 2]]);
//! db.add_relation("R2", attrs(&["B", "C"]), &[&[1, 3], &[2, 3]]);
//! db.add_relation("R3", attrs(&["C", "D"]), &[&[3, 4], &[3, 5]]);
//!
//! // How many links must fail to lose half of the 8 paths?
//! let report = adp::Solve::new(&q, &db).k(4).run().unwrap();
//! assert!(report.cost() <= 2);
//! println!("branch {:?}, solver {}", report.explain.branch, report.explain.solver);
//! ```

#![warn(missing_docs)]

mod error;

pub use error::Error;

pub use adp_core as core;
pub use adp_datagen as datagen;
pub use adp_engine as engine;
pub use adp_flow as flow;
pub use adp_runtime as runtime;
pub use adp_service as service;

pub use adp_core::analysis::{
    find_hard_structures, hardness_certificate, has_hard_structure, is_ptime, is_ptime_trace,
};
pub use adp_core::query::{normalize_query_text, parse_query, Query, QueryBuilder};
pub use adp_core::selection::{solve_selection, SelectionQuery};
pub use adp_core::solver::brute::BruteForceOptions;
pub use adp_core::solver::{
    apply_deletions, removed_outputs, AdpOptions, AdpOutcome, Branch, DeletionPolicy, Explain,
    Mode, PreparedQuery, Report, Solve,
};
pub use adp_engine::database::Database;
pub use adp_engine::delta::DeltaProvenance;
pub use adp_engine::error::AdpError;
pub use adp_engine::plan::{AliveMask, JoinIndexes, QueryPlan};
pub use adp_engine::provenance::TupleRef;
pub use adp_engine::schema::{attr, attrs, Attr, RelationSchema};
pub use adp_engine::value::{Interner, Value};
pub use adp_runtime::{parallel_sweep, ThreadPool};
pub use adp_service::{
    DeletionChurn, Lagged, OutputRow, Service, ServiceConfig, ServiceError, ServiceStats,
    SolveRequest, SolveResponse, Statement, SubscribeOptions, SubscriptionId, Target, ViewUpdate,
};

// Core error enums, re-exported so `adp::Error` variants can be matched
// without reaching into the sub-crates.
pub use adp_core::{QueryError, SolveError};
