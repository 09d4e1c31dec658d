//! The request/response surface of the serving layer.

use adp_core::solver::{AdpOptions, AdpOutcome};
use adp_engine::provenance::TupleRef;
use std::time::Duration;

/// How many outputs the caller wants removed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Target {
    /// Remove at least this many outputs. `0` is answered trivially
    /// (empty deletion set at cost 0); values above `|Q(D)|` clamp to
    /// full deletion (resilience), so every `k` is serviceable.
    Outputs(u64),
    /// Remove at least `⌈ρ · |Q(D)|⌉` outputs, `0.0 ≤ ρ ≤ 1.0` — the
    /// paper's ρ-sweep parameter as a request field.
    Ratio(f64),
}

impl Target {
    /// The `k` this target asks of a view of `total` outputs, for every
    /// front door alike: ratios round up, and `k` clamps to `total`.
    /// Ratios are validated before they get here.
    pub(crate) fn resolve(self, total: u64) -> u64 {
        match self {
            Target::Outputs(k) => k,
            Target::Ratio(rho) => (total as f64 * rho).ceil() as u64,
        }
        .min(total)
    }
}

/// One solve request against the service's current database epoch.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Query text, e.g. `"Q(A,B) :- R1(A), R2(A,B)"`. Parsed and
    /// normalized per request; plans are shared through its plan record.
    pub query: String,
    /// Removal target (`k` or ρ).
    pub target: Target,
    /// Solver policy for this request; `None` uses the service default
    /// ([`ServiceConfig::default_opts`](crate::ServiceConfig::default_opts)).
    pub opts: Option<AdpOptions>,
    /// Wall-clock budget for the solve. Translated into
    /// [`AdpOptions::deadline`] at execution time; an expiring budget
    /// returns the best-so-far deletion set with
    /// [`AdpOutcome::truncated`] set rather than failing.
    pub budget: Option<Duration>,
}

impl SolveRequest {
    /// A request to remove at least `k` outputs.
    pub fn outputs(query: impl Into<String>, k: u64) -> Self {
        SolveRequest {
            query: query.into(),
            target: Target::Outputs(k),
            opts: None,
            budget: None,
        }
    }

    /// A request to remove at least a `rho` fraction of the outputs.
    pub fn ratio(query: impl Into<String>, rho: f64) -> Self {
        SolveRequest {
            query: query.into(),
            target: Target::Ratio(rho),
            opts: None,
            budget: None,
        }
    }

    /// Overrides the solver options for this request.
    pub fn with_opts(mut self, opts: AdpOptions) -> Self {
        self.opts = Some(opts);
        self
    }

    /// Sets a wall-clock budget for this request.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Per-request observability: where the time went and what served it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestStats {
    /// The database epoch this answer is valid for. Monotone: at least
    /// the epoch of every batch fully applied before the request
    /// started.
    pub epoch: u64,
    /// True if the query's plan record was bound at the answering epoch.
    pub cache_hit: bool,
    /// Microseconds spent parsing, normalizing, and resolving the plan
    /// through the plan record.
    pub plan_micros: u64,
    /// Microseconds spent solving. On a cold plan this includes the
    /// one-time evaluation the record then shares with every later
    /// request for the same key.
    pub solve_micros: u64,
    /// Which solver family produced the answer: `"exact"` (poly-time
    /// shape), `"greedy"`, `"drastic-greedy"`, or `"trivial"` (`k = 0`
    /// or an empty result). The same
    /// [`solver_label`](adp_core::solver::solver_label) as the fluent
    /// API's [`Explain::solver`](adp_core::solver::Explain::solver).
    pub solver: &'static str,
}

/// A served answer: the solver outcome plus request stats.
#[derive(Clone, Debug)]
pub struct SolveResponse {
    /// The solver outcome: cost, achieved removal, deletion set (in the
    /// epoch snapshot's tuple coordinates), exactness and truncation
    /// flags.
    pub outcome: AdpOutcome,
    /// Where the time went, which epoch answered, cache behavior.
    pub stats: RequestStats,
}

impl SolveResponse {
    /// The deletion set, if the request ran in report mode. Indices are
    /// in the answering epoch's **snapshot** coordinates; to feed them
    /// back into the mutation API, translate with
    /// [`Service::to_base_tuples`](crate::Service::to_base_tuples)
    /// (snapshot indices are densely re-numbered per epoch).
    pub fn deletion_set(&self) -> Option<&[TupleRef]> {
        self.outcome.solution.as_deref()
    }

    /// Minimum deletions found (heuristic upper bound on hard shapes).
    pub fn cost(&self) -> u64 {
        self.outcome.cost
    }
}
