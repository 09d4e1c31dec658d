//! The `BruteForce` baseline (paper §8): enumerate deletion sets in
//! increasing size until one removes at least `k` outputs.
//!
//! The paper's implementation issued one SQL query per subset (up to
//! `2^500`); ours counts each candidate set on the plan's pristine delta
//! template ([`DeltaProvenance::killed_by_set`]), with the same search
//! order (increasing size, first feasible set wins), so the *answers*
//! coincide while probes are micro-seconds. Restricting candidates to endogenous relations is sound
//! by Lemma 13 and matches the optimized baseline.
//!
//! ## Parallel subset search
//!
//! The size-`s` stage enumerates `C(n, s)` candidate subsets in
//! lexicographic order. That order nests by **first element**: every
//! subset starting with candidate `i` precedes every subset starting
//! with `i' > i`. The parallel search exploits exactly that structure —
//! one partition per first-element index, each enumerating its suffix
//! combinations in the same lexicographic order, reduced by taking the
//! feasible subset from the *lowest* partition. The winner is therefore
//! the globally lexicographically-first feasible subset: byte-identical
//! to the sequential scan. Partitions later than an already-found
//! winner abort early (they cannot win the reduce), which recovers most
//! of the sequential early-exit without giving up determinism.

use super::prepared::PreparedQuery;
use super::profile::CostProfile;
use super::solved::{Extractor, Solved, Step};
use super::{AdpOutcome, Mode};
use crate::analysis::roles::endogenous_atoms;
use crate::error::SolveError;
use adp_engine::delta::DeltaProvenance;
use adp_engine::provenance::TupleRef;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum number of subsets at one size before the search fans out
/// across the global pool; below this the per-partition bookkeeping
/// costs more than the probes.
pub const PAR_MIN_SUBSETS: u128 = 2048;

/// Exhaustive-search options.
#[derive(Clone, Copy, Debug)]
pub struct BruteForceOptions {
    /// Only consider deletions from endogenous relations (Lemma 13).
    pub endogenous_only: bool,
    /// Abort if the number of candidate sets at some size exceeds this.
    pub max_subsets: u128,
    /// Force the single-threaded scan even when the global
    /// [`adp_runtime`] pool has multiple workers. Parallel and
    /// sequential searches return byte-identical answers; this switch
    /// exists for differential tests and benchmarking.
    pub sequential: bool,
}

impl Default for BruteForceOptions {
    fn default() -> Self {
        BruteForceOptions {
            endogenous_only: true,
            max_subsets: 500_000_000,
            sequential: false,
        }
    }
}

/// Finds a minimum deletion set removing at least `k` outputs by
/// exhaustive search over the prepared plan's cached evaluation. Exact
/// but exponential — use on small instances. The answer is in report
/// mode, and `achieved` is what the winning set removes.
pub fn brute_force(
    prep: &PreparedQuery,
    k: u64,
    opts: &BruteForceOptions,
) -> Result<AdpOutcome, SolveError> {
    super::outcome(k, Mode::Report, || search(prep, k, opts))
}

/// The search behind [`brute_force`] and the fluent
/// [`Solve::brute_force`](super::Solve::brute_force): the first subset,
/// by size and then lexicographically, that removes at least `k`
/// outputs, as a one-point profile.
pub(crate) fn search(
    prep: &PreparedQuery,
    k: u64,
    opts: &BruteForceOptions,
) -> Result<Solved, SolveError> {
    let eval = prep.eval();
    let total = eval.output_count();
    if k > total {
        // Nothing to search: the outcome is the empty instance's answer
        // or `KTooLarge`.
        return Ok(Solved::eager(
            CostProfile::empty(),
            Extractor::Empty,
            true,
            total,
        ));
    }
    let template = prep.delta_template(!opts.sequential)?;

    let query = prep.query();
    let endo = endogenous_atoms(query);
    let mut candidates: Vec<TupleRef> = Vec::new();
    for (atom, schema) in query.atoms().iter().enumerate() {
        if opts.endogenous_only && !endo[atom] {
            continue;
        }
        // adp-lint: allow(panic-path) -- documented panicking lookup;
        // the solver runs on a query validated against the database.
        let rel = prep.database().expect(schema.name());
        for idx in rel.indices() {
            candidates.push(TupleRef::new(atom, idx));
        }
    }

    // Only touch (and thereby lazily build) the global pool when the
    // caller actually allows parallelism.
    let pool = if opts.sequential {
        None
    } else {
        let p = adp_runtime::global();
        (p.threads() > 1).then_some(p)
    };
    let n = candidates.len();
    for size in 1..=n {
        let combos = binomial(n as u128, size as u128);
        if combos > opts.max_subsets {
            return Err(SolveError::BudgetExceeded(format!(
                "brute force would enumerate {combos} subsets of size {size}"
            )));
        }
        let found = match pool {
            Some(pool) if size >= 2 && combos >= PAR_MIN_SUBSETS => {
                search_size_parallel(pool, &template, &candidates, size, k)
            }
            _ => search_size_sequential(&template, &candidates, size, k),
        };
        if let Some(subset) = found {
            let cost = size as u64;
            let removed = template.killed_by_set(&subset);
            return Ok(Solved::eager(
                CostProfile::single(cost, removed),
                Extractor::steps(vec![Step {
                    tuples: subset,
                    removed_cum: removed,
                    cost_cum: cost,
                }]),
                true,
                total,
            ));
        }
    }
    // adp-lint: allow(panic-path) -- the size loop ends at all
    // candidates, and deleting every candidate empties Q(D), so some
    // size always succeeds before this point.
    unreachable!("deleting all candidate tuples removes every output");
}

/// The sequential size-`size` stage: lexicographic enumeration, first
/// feasible subset wins.
fn search_size_sequential(
    delta: &DeltaProvenance,
    candidates: &[TupleRef],
    size: usize,
    k: u64,
) -> Option<Vec<TupleRef>> {
    let n = candidates.len();
    let mut idx: Vec<usize> = (0..size).collect();
    let mut subset: Vec<TupleRef> = Vec::with_capacity(size);
    loop {
        subset.clear();
        subset.extend(idx.iter().map(|&i| candidates[i]));
        if delta.killed_by_set(&subset) >= k {
            return Some(subset);
        }
        if !next_combination(&mut idx, n) {
            return None;
        }
    }
}

/// The parallel size-`size` stage: one partition per first-element
/// index, dynamically scheduled over the pool, reduced to the feasible
/// subset of the lowest partition — exactly the subset
/// [`search_size_sequential`] would return (see the module docs).
fn search_size_parallel(
    pool: &adp_runtime::ThreadPool,
    delta: &DeltaProvenance,
    candidates: &[TupleRef],
    size: usize,
    k: u64,
) -> Option<Vec<TupleRef>> {
    debug_assert!(size >= 2);
    let n = candidates.len();
    let partitions = n - size + 1;
    // Lowest partition index with a feasible subset so far. Partitions
    // above it abort: they lose the index-ordered reduce regardless.
    let winner = AtomicUsize::new(usize::MAX);
    let per_partition = pool.par_indexed(partitions, |first| {
        if winner.load(Ordering::Relaxed) < first {
            return None;
        }
        // Suffix combinations from candidates[first+1..], lexicographic.
        // `next_combination` never decreases idx[0], so the suffix stays
        // strictly above `first` without a dedicated lower bound.
        let mut idx: Vec<usize> = (first + 1..first + size).collect();
        let mut subset: Vec<TupleRef> = Vec::with_capacity(size);
        let mut probes: u32 = 0;
        loop {
            subset.clear();
            subset.push(candidates[first]);
            subset.extend(idx.iter().map(|&i| candidates[i]));
            if delta.killed_by_set(&subset) >= k {
                winner.fetch_min(first, Ordering::Relaxed);
                return Some(subset);
            }
            probes = probes.wrapping_add(1);
            if probes.is_multiple_of(256) && winner.load(Ordering::Relaxed) < first {
                return None;
            }
            if !next_combination(&mut idx, n) {
                return None;
            }
        }
    });
    per_partition.into_iter().flatten().next()
}

/// Advances `idx` to the next size-|idx| combination of `0..n` in
/// lexicographic order; returns `false` when exhausted.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let size = idx.len();
    let mut i = size;
    while i > 0 {
        i -= 1;
        if idx[i] < n - size + i {
            idx[i] += 1;
            for j in i + 1..size {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut r: u128 = 1;
    for i in 0..k {
        r = r.saturating_mul(n - i) / (i + 1);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{parse_query, Query};
    use adp_engine::database::Database;
    use adp_engine::join::evaluate;
    use adp_engine::schema::attrs;
    use std::sync::Arc;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    fn prepared(q: &Query) -> PreparedQuery {
        PreparedQuery::new(q.clone(), Arc::new(db()))
    }

    #[test]
    fn brute_force_on_qpath() {
        // Q(A,B): outputs (1,1),(1,2),(2,1). k=2: deleting R1(1) removes 2.
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let prep = prepared(&q);
        let out = brute_force(&prep, 2, &BruteForceOptions::default()).unwrap();
        assert_eq!(out.cost, 1);
        assert_eq!(out.solution.unwrap().len(), 1);
        assert_eq!(out.achieved, 2);
        // k=3: need 2 deletions (e.g. both R1 tuples).
        let out = brute_force(&prep, 3, &BruteForceOptions::default()).unwrap();
        assert_eq!(out.cost, 2);
    }

    #[test]
    fn endogenous_restriction_matches_unrestricted() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let prep = prepared(&q);
        for k in 1..=3 {
            let a = brute_force(&prep, k, &BruteForceOptions::default()).unwrap();
            let b = brute_force(
                &prep,
                k,
                &BruteForceOptions {
                    endogenous_only: false,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(a.cost, b.cost, "k={k}");
        }
    }

    #[test]
    fn k_bounds_checked() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let prep = prepared(&q);
        assert!(matches!(
            brute_force(&prep, 0, &BruteForceOptions::default()),
            Err(SolveError::KZero)
        ));
        assert!(matches!(
            brute_force(&prep, 99, &BruteForceOptions::default()),
            Err(SolveError::KTooLarge { .. })
        ));
    }

    #[test]
    fn binomial_sanity() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }

    /// The parallel size-stage must return the exact subset the
    /// sequential scan returns — same tuples, same order — for every
    /// (size, k) it can face, including infeasible stages (both None).
    #[test]
    fn parallel_stage_is_byte_identical_to_sequential_stage() {
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        let db = db();
        let eval = evaluate(&db, q.atoms(), q.head());
        let delta = DeltaProvenance::try_new(&eval).unwrap();
        let candidates: Vec<TupleRef> = q
            .atoms()
            .iter()
            .enumerate()
            .flat_map(|(atom, schema)| {
                (0..db.expect(schema.name()).len() as u32).map(move |i| TupleRef::new(atom, i))
            })
            .collect();
        let pool = adp_runtime::ThreadPool::new(4);
        let total = eval.output_count();
        for size in 2..=candidates.len().min(5) {
            for k in 1..=total + 1 {
                let seq = search_size_sequential(&delta, &candidates, size, k);
                let par = search_size_parallel(&pool, &delta, &candidates, size, k);
                assert_eq!(seq, par, "size={size} k={k}");
            }
        }
    }
}
