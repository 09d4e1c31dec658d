//! # adp-engine
//!
//! In-memory relational substrate for the Aggregated Deletion Propagation
//! (ADP) library. The VLDB 2020 paper executes its algorithms over
//! PostgreSQL; this crate provides the equivalent capabilities as a pure
//! in-memory engine:
//!
//! * [`value`] — the dense integer [`Value`] type plus an
//!   [`Interner`] for symbolic data,
//! * [`schema`] — attributes and relation schemas,
//! * [`catalog`] — dense [`AttrId`]/[`RelId`] resolution of names, so
//!   nothing string-keyed survives into execution,
//! * [`relation`] / [`database`] — tuple storage,
//! * [`plan`] — compiled [`QueryPlan`]s: join order and index specs
//!   computed once, indexes cached in [`JoinIndexes`], re-evaluation
//!   under [`AliveMask`] deletion states without rebuilds,
//! * [`join`] — [`EvalResult`], the flat, `Arc`-shared layout of an
//!   evaluation: *witness* (full-join row) provenance and distinct head
//!   projections, plus the one-shot [`evaluate`] wrapper over [`plan`],
//! * [`keytable`] — [`KeyTable`], the flat open-addressed interner of
//!   fixed-width value keys (join outputs, min-cut boundary nodes),
//! * [`delta`] — [`DeltaProvenance`], the incidence the solvers build
//!   over a shared [`EvalResult`], with reversible batch deletions,
//!   live-maintained greedy scores and deletion-set counts,
//! * [`provenance`] — [`TupleRef`] and the rescan reference incidence
//!   ([`ProvenanceIndex`]) the delta layer is tested against,
//! * [`semijoin`] — GYO ear decomposition and a Yannakakis-style full
//!   reducer for dangling-tuple removal.
//!
//! The engine is deliberately small but complete: every operation the
//! paper issues as a SQL query (full join, distinct projection counting,
//! per-tuple "profit" computation, dangling tuple removal) has a
//! first-class, tested counterpart here.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod database;
pub mod delta;
pub mod error;
pub mod ids;
pub mod join;
pub mod keytable;
pub mod naive;
pub mod plan;
pub mod provenance;
pub mod relation;
pub mod schema;
pub mod semijoin;
pub mod value;

pub use catalog::{AttrId, Catalog, RelId};
pub use database::Database;
pub use delta::DeltaProvenance;
pub use error::AdpError;
pub use join::{evaluate, EvalResult};
pub use keytable::KeyTable;
pub use plan::{AliveMask, JoinIndexes, QueryPlan};
pub use provenance::{ProvenanceIndex, TupleRef};
pub use relation::RelationInstance;
pub use schema::{Attr, RelationSchema};
pub use value::{Interner, Value};
