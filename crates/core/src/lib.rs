//! # adp-core
//!
//! A complete implementation of **Aggregated Deletion Propagation for
//! Counting Conjunctive Query Answers** (Hu, Sun, Patwa, Panigrahi, Roy;
//! VLDB 2020, arXiv:2010.08694).
//!
//! Given a self-join-free conjunctive query `Q`, a database `D`, and an
//! integer `k`, `ADP(Q, D, k)` asks for the minimum number of input
//! tuples whose deletion removes at least `k` tuples from `Q(D)`.
//!
//! The crate provides:
//!
//! * [`query`] — the CQ model, a datalog-style parser, and the typed
//!   [`query::QueryBuilder`] (v2 programmatic construction);
//! * [`analysis`] — both dichotomies: the procedural
//!   [`analysis::is_ptime`] (Theorem 2) and the structural
//!   [`analysis::has_hard_structure`] (Theorem 3), plus machine-checkable
//!   [`analysis::hardness_certificate`]s (Lemma 6);
//! * [`solver`] — the unified `ComputeADP` (Algorithm 2) behind the
//!   fluent [`solver::Solve`] builder: exact on poly-time queries,
//!   greedy heuristic on NP-hard ones, with counting and reporting
//!   modes and an explain trace on every [`solver::Report`];
//! * [`selection`] — CQs with selection predicates (§7.5, Lemma 12).
//!
//! ## Quick start
//!
//! ```
//! use adp_core::analysis::is_ptime;
//! use adp_core::query::Query;
//! use adp_core::solver::Solve;
//! use adp_engine::database::Database;
//! use adp_engine::schema::attrs;
//!
//! // The paper's waitlist query (Example 1), built without a string
//! // round-trip.
//! let q = Query::builder("QWL")
//!     .head(["S", "C"])
//!     .atom("Major", ["S", "M"])
//!     .atom("Req", ["M", "C"])
//!     .atom("NoSeat", ["C"])
//!     .build()
//!     .unwrap();
//! assert!(!is_ptime(&q)); // NP-hard in general
//!
//! let mut db = Database::new();
//! db.add_relation("Major", attrs(&["S", "M"]), &[&[1, 10], &[2, 10]]);
//! db.add_relation("Req", attrs(&["M", "C"]), &[&[10, 100], &[10, 101]]);
//! db.add_relation("NoSeat", attrs(&["C"]), &[&[100], &[101]]);
//!
//! // Shrink the waitlist by 2 entries with minimum intervention.
//! let report = Solve::new(&q, &db).k(2).run().unwrap();
//! assert!(report.cost() >= 1 && report.outcome.achieved >= 2);
//! assert_eq!(report.explain.solver, "greedy");
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod query;
pub mod selection;
pub mod solver;
pub mod wire;

pub use error::{QueryError, SolveError};
pub use query::{parse_query, Query, QueryBuilder};
pub use solver::{AdpOptions, AdpOutcome, Branch, Explain, Mode, Report, Solve};
