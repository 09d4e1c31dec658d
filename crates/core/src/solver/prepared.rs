//! Plan-once/execute-many entry points for repeated ADP solving.
//!
//! The paper's workloads solve the *same* `(Q, D)` pair many times: once
//! per removal ratio ρ, once per solver variant in the ablations, and
//! once more to verify each reported deletion set. Before this module
//! every one of those calls re-resolved names, re-derived the join
//! order, rebuilt every hash index, and re-ran the join.
//!
//! [`PreparedQuery`] compiles the query once against a shared database
//! and caches the three reusable artifacts behind an `Arc`:
//!
//! * the [`QueryPlan`] (join order, dense-id binding slots),
//! * the [`JoinIndexes`] (per-atom hash indexes over the full input),
//! * the root [`EvalResult`] (witnesses + outputs + incidence).
//!
//! [`PreparedQuery::solve`] then runs `ComputeADP` (Algorithm 2) on
//! the plan's root view: every solve after the first starts from the
//! cached evaluation, and
//! [`PreparedQuery::removed_outputs`] verifies deletion sets by masked
//! re-execution ([`AliveMask`]) instead of rebuilding the database.
//!
//! The plan also memoizes its root answers
//! ([`PreparedQuery::cached_answers`]). `ComputeADP` returns a whole
//! cost profile, and its boolean, singleton and greedy leaves give the
//! same answer for every target up to the cap they ran at. So one
//! solve per leaf family answers every smaller target on the plan by
//! reading a profile point and a prefix of steps: the repeated targets
//! of a serving workload at one epoch, or a ρ-sweep served from its
//! largest ρ. A miss computes at exactly the requested target. Universe,
//! decompose and drastic solves, the `full_reeval` oracle, and solves
//! with a deadline always compute.
//!
//! Greedy solves run on scored delta states pooled per plan. A plan for
//! a later epoch of the same data can be
//! [`anchored`](PreparedQuery::anchored) on the epoch-0 plan: its greedy
//! solves then borrow the base plan's pooled states, advanced by the
//! difference of dead sets, and never join the epoch (the paper's
//! `Q(D − S)`, Definition 1, with `S` the epoch's deletions).
//! [`PreparedQuery::advance`] moves a pooled state between two dead sets
//! ahead of the next solve and reports which outputs died or revived on
//! the way: push subscriptions take their row transitions from it.
//!
//! Everything is **`Send + Sync`** (shared ownership via `Arc`, lazy
//! caches via [`OnceLock`]), so one compiled plan can be shared
//! read-only by every worker of an [`adp_runtime::ThreadPool`]: the
//! parallel ρ-sweeps in `adp-bench` and the parallel inner loops in
//! [`brute`](super::brute) and [`greedy`](super::greedy) all borrow the
//! same `PreparedQuery`. A compile-time assertion in the test module
//! keeps the bound from regressing.

use super::view::View;
use super::{AdpOptions, AdpOutcome, Branch, Solved};
use crate::analysis::roles::endogenous_atoms;
use crate::error::SolveError;
use crate::query::Query;
use adp_engine::database::Database;
use adp_engine::delta::DeltaProvenance;
use adp_engine::error::AdpError;
use adp_engine::join::EvalResult;
use adp_engine::plan::{AliveMask, JoinIndexes, QueryPlan};
use adp_engine::provenance::{ProvenanceIndex, TupleRef};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Builds a scored [`DeltaProvenance`] for an evaluation, fanning the
/// initial scoring pass out over the global [`adp_runtime`] pool (the
/// same range-partitioned scoring the parallel greedy rescan used)
/// when `parallel` is set and the instance is large enough. Disjoint
/// output ranges contribute additively, so the installed scores are
/// equal to the sequential build's.
pub(crate) fn build_delta_provenance(
    eval: &EvalResult,
    parallel: bool,
) -> Result<DeltaProvenance, AdpError> {
    let mut delta = DeltaProvenance::new_unscored(eval)?;
    let slots = delta.output_slots();
    let pool = adp_runtime::global();
    if parallel
        && pool.threads() > 1
        && eval.witness_count() >= super::greedy::PAR_SCORING_MIN_WITNESSES
        && slots > 1
    {
        let chunk = slots.div_ceil(pool.threads() * 2).max(1);
        let parts = pool.par_indexed(slots.div_ceil(chunk), |i| {
            delta.score_range(i * chunk, ((i + 1) * chunk).min(slots))
        });
        delta.install_scores(parts);
    } else {
        let scores = delta.score_range(0, slots);
        delta.install_scores(vec![scores]);
    }
    Ok(delta)
}

/// Base tuples absent from one epoch of a database, per base relation
/// slot (the [`RelId`](adp_engine::catalog::RelId) index), as base
/// dense indices. The base must have been sealed with nothing deleted,
/// so those indices are the engine's stable ids and name the same
/// tuples in every later epoch.
pub type DeadSet = Vec<BTreeSet<u32>>;

/// What moving a pooled greedy state from one dead set to another did
/// to the view ([`PreparedQuery::advance`]): the outputs whose last live
/// witness went away, the outputs that came back, and `|Q(D − S)|` at
/// the new dead set. Output ids index the plan's root evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveTransitions {
    /// Outputs live at the old dead set and dead at the new one, sorted.
    pub died: Vec<u32>,
    /// Outputs dead at the old dead set and live at the new one, sorted.
    pub revived: Vec<u32>,
    /// Live outputs at the new dead set.
    pub live_outputs: u64,
}

/// The base plan an epoch plan runs its greedy solves on, and the
/// epoch's dead set relative to it.
struct Anchor {
    base: Arc<PreparedQuery>,
    dead: Arc<DeadSet>,
}

/// An idle greedy state: a clone of the template with selection
/// enabled on `mask`, advanced to the dead set `dead` (`None` =
/// nothing deleted).
struct Idle {
    mask: Vec<bool>,
    dead: Option<Arc<DeadSet>>,
    delta: DeltaProvenance,
}

/// A compiled query plan plus lazily built, cached indexes and
/// evaluation result, all against one shared database. `Send + Sync`:
/// the caches are [`OnceLock`]s, so concurrent workers race benignly on
/// first use and share afterwards.
pub struct PlannedEval {
    db: Arc<Database>,
    plan: QueryPlan,
    indexes: OnceLock<Arc<JoinIndexes>>,
    eval: OnceLock<Arc<EvalResult>>,
    /// Pristine (all-alive) provenance over the root evaluation, for
    /// O(Δ) set verification (`killed_by_set`) and participating-tuple
    /// lookups without rebuilding the postings per solve.
    prov: OnceLock<Result<Arc<ProvenanceIndex>, AdpError>>,
    /// Pristine scored delta index, built once. Greedy solves never
    /// mutate it: they run on states from `idle`, and only a checkout
    /// that finds no state it can advance clones it.
    delta: OnceLock<Result<Arc<DeltaProvenance>, AdpError>>,
    /// Idle greedy states, each tagged with its selectable mask and the
    /// dead set it is advanced to. See [`GreedyLease`].
    idle: Mutex<Vec<Idle>>,
    /// Set on epoch plans ([`PreparedQuery::anchored`]): greedy solves
    /// check a state out of the base plan's pool instead of joining this
    /// epoch.
    anchor: Option<Anchor>,
    /// `|Q(D − S)|` read from an anchored state, computed once; `None`
    /// when the base state could not be built.
    anchored_outputs: OnceLock<Option<u64>>,
    /// Memoized root answers, at most one per [`AnswerKey`]. See
    /// [`PreparedQuery::solve_root`].
    answers: Mutex<Vec<Answer>>,
}

impl PlannedEval {
    /// Compiles the plan for `query` over `db`. No data is scanned until
    /// the first evaluation.
    pub fn new(query: &Query, db: Arc<Database>) -> Self {
        let plan = QueryPlan::new(&db, query.atoms(), query.head());
        PlannedEval {
            db,
            plan,
            indexes: OnceLock::new(),
            eval: OnceLock::new(),
            prov: OnceLock::new(),
            delta: OnceLock::new(),
            idle: Mutex::new(Vec::new()),
            anchor: None,
            anchored_outputs: OnceLock::new(),
            answers: Mutex::new(Vec::new()),
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The shared database the plan was compiled against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    fn indexes(&self) -> Arc<JoinIndexes> {
        Arc::clone(
            self.indexes
                .get_or_init(|| Arc::new(self.plan.build_indexes(&self.db))),
        )
    }

    /// The full evaluation `Q(D)`, computed once and cached.
    pub fn eval(&self) -> Arc<EvalResult> {
        Arc::clone(self.eval.get_or_init(|| {
            if self
                .plan
                .rels()
                .iter()
                .any(|&r| self.db.relation_by_id(r).is_empty())
            {
                // Skip the index build: the result is empty regardless.
                Arc::new(self.plan.execute_once(&self.db))
            } else {
                // Distinct OnceLock from `self.eval`, so no re-entrancy.
                let indexes = self.indexes();
                Arc::new(self.plan.execute(&self.db, &indexes))
            }
        }))
    }

    /// `Q(D − S)` for the deletion state `mask`, reusing the cached plan
    /// and indexes. Witness indices stay in original coordinates.
    pub fn eval_masked(&self, mask: &AliveMask) -> EvalResult {
        self.plan.execute_masked(&self.db, &self.indexes(), mask)
    }

    /// The pristine provenance index over the root evaluation, computed
    /// once and shared. Used for `O(Δ)` deletion-set verification and
    /// participating-tuple lookups.
    pub fn provenance(&self) -> Result<Arc<ProvenanceIndex>, AdpError> {
        self.prov
            .get_or_init(|| ProvenanceIndex::try_new(&self.eval()).map(Arc::new))
            .clone()
    }

    /// The pristine scored [`DeltaProvenance`] template, computed once;
    /// greedy solves clone it when the state pool has nothing to reuse.
    /// The first builder decides whether the one-time scoring pass may
    /// fan out over the global pool (`parallel`); either way the
    /// installed scores are equal, so later callers share the cached
    /// template regardless of their own flag.
    pub fn delta_template(&self, parallel: bool) -> Result<Arc<DeltaProvenance>, AdpError> {
        self.delta
            .get_or_init(|| build_delta_provenance(&self.eval(), parallel).map(Arc::new))
            .clone()
    }

    /// Checks a greedy state with selection enabled on `selectable` out
    /// of the pool, advanced to the dead set `dead` (`None` = nothing
    /// deleted; dead sets index this plan's database, see [`DeadSet`]).
    ///
    /// An idle state already tagged with `dead` (the same `Arc`) is
    /// taken as is. Otherwise an idle state with the same mask is
    /// brought to `dead` by the set difference, unless that would touch
    /// more than `1 / ROLLBACK_DIVISOR` of the witnesses; then, or when
    /// no state has the mask, the template is cloned and the whole dead
    /// set deleted. The state returns to the pool only through
    /// [`GreedyLease::release`].
    pub(crate) fn checkout(
        &self,
        selectable: &[bool],
        dead: Option<&Arc<DeadSet>>,
        parallel: bool,
    ) -> Result<GreedyLease<'_>, AdpError> {
        let pooled = {
            let mut idle = self.idle_states();
            let same_mask = |s: &Idle| s.mask.as_slice() == selectable;
            let at = idle
                .iter()
                .rposition(|s| same_mask(s) && same_dead(s.dead.as_ref(), dead))
                .or_else(|| idle.iter().rposition(same_mask));
            at.map(|i| idle.swap_remove(i))
        };
        let advanced = pooled.and_then(|mut s| {
            if same_dead(s.dead.as_ref(), dead) {
                return Some(s.delta);
            }
            let (deletes, restores) = self.dead_diff(s.dead.as_deref(), dead.map(|d| &**d));
            let work: usize = deletes
                .iter()
                .chain(&restores)
                .map(|&t| s.delta.witness_degree(t))
                .sum();
            if work > s.delta.witness_slots() / ROLLBACK_DIVISOR {
                return None;
            }
            s.delta.restore_batch(&restores);
            s.delta.delete_batch(&deletes);
            Some(s.delta)
        });
        let delta = match advanced {
            Some(delta) => delta,
            None => {
                let mut delta = DeltaProvenance::clone(&*self.delta_template(parallel)?);
                let (deletes, _) = self.dead_diff(None, dead.map(|d| &**d));
                delta.delete_batch(&deletes);
                delta.enable_selection(selectable.to_vec());
                delta
            }
        };
        Ok(GreedyLease {
            home: Some(Home {
                pool: self,
                mask: selectable.to_vec(),
                dead: dead.cloned(),
                live_witnesses: delta.live_witnesses(),
                live_outputs: delta.live_outputs(),
                epoch: None,
            }),
            delta,
        })
    }

    /// The tuples to delete and to restore to move a state from the dead
    /// set `from` to `to`, over every atom on each relation slot.
    fn dead_diff(
        &self,
        from: Option<&DeadSet>,
        to: Option<&DeadSet>,
    ) -> (Vec<TupleRef>, Vec<TupleRef>) {
        let none = BTreeSet::new();
        let (mut deletes, mut restores) = (Vec::new(), Vec::new());
        for (atom, rel) in self.plan.rels().iter().enumerate() {
            let old = from.and_then(|d| d.get(rel.index())).unwrap_or(&none);
            let new = to.and_then(|d| d.get(rel.index())).unwrap_or(&none);
            deletes.extend(new.difference(old).map(|&i| TupleRef::new(atom, i)));
            restores.extend(old.difference(new).map(|&i| TupleRef::new(atom, i)));
        }
        (deletes, restores)
    }

    /// True for an epoch plan anchored on a base plan.
    pub(crate) fn is_anchored(&self) -> bool {
        self.anchor.is_some()
    }

    /// An anchored plan's greedy state: checked out of the base plan's
    /// pool at this epoch's dead set, with picks reported in this
    /// epoch's dense coordinates. `None` on a plan without an anchor,
    /// or when the base cannot build its state (e.g. too many witnesses
    /// to index); the caller then evaluates the epoch itself.
    pub(crate) fn anchored_checkout(
        &self,
        selectable: &[bool],
        parallel: bool,
    ) -> Option<GreedyLease<'_>> {
        let anchor = self.anchor.as_ref()?;
        let mut lease = anchor
            .base
            .planned
            .checkout(selectable, Some(&anchor.dead), parallel)
            .ok()?;
        if let Some(home) = &mut lease.home {
            home.epoch = Some(&*self.db);
        }
        Some(lease)
    }

    /// `|Q(D − S)|` of an anchored plan, read once from a base state
    /// advanced to this epoch (which the next greedy solve then takes
    /// from the pool as is). `None` without an anchor, or when the base
    /// state cannot be built: the caller evaluates the epoch instead.
    pub(crate) fn anchored_output_count(&self, selectable: &[bool]) -> Option<u64> {
        *self.anchored_outputs.get_or_init(|| {
            let lease = self.anchored_checkout(selectable, true)?;
            let live = lease.live_outputs();
            lease.release(&[]);
            Some(live)
        })
    }

    /// Idle greedy states currently pooled, over every mask.
    pub(crate) fn pooled_states(&self) -> usize {
        self.idle_states().len()
    }

    fn idle_states(&self) -> MutexGuard<'_, Vec<Idle>> {
        // A panic elsewhere cannot leave the list half-updated (it only
        // ever pushes or removes whole entries), so a poisoned lock is
        // safe to reuse.
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn answers(&self) -> MutexGuard<'_, Vec<Answer>> {
        // As for `idle_states`: entries are pushed or replaced whole.
        self.answers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized answer under `key` that covers target `k`, if any.
    fn answer(&self, key: AnswerKey, k: u64) -> Option<Arc<Solved>> {
        self.answers()
            .iter()
            .find(|a| a.key == key && a.cap >= k)
            .map(|a| Arc::clone(&a.solved))
    }

    /// Keeps `solved`, computed at `cap`, under `key`, unless an entry
    /// with at least that cap is already there.
    fn keep_answer(&self, key: AnswerKey, cap: u64, solved: &Arc<Solved>) {
        let mut answers = self.answers();
        let answer = Answer {
            key,
            cap,
            solved: Arc::clone(solved),
        };
        match answers.iter_mut().find(|a| a.key == key) {
            Some(old) if old.cap < cap => *old = answer,
            Some(_) => {}
            None => answers.push(answer),
        }
    }

    /// An all-alive mask shaped for this plan's atoms.
    pub fn fresh_mask(&self, query: &Query) -> AliveMask {
        AliveMask::all_alive(&self.db, query.atoms())
    }
}

/// Whether two dead-set tags name the same set without looking inside:
/// both absent, or the same `Arc`. O(1), so solves at an unchanged
/// epoch never pay a set comparison.
fn same_dead(a: Option<&Arc<DeadSet>>, b: Option<&Arc<DeadSet>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// The root leaf families whose [`Solved`] at cap `c` answers every
/// target `k ≤ c` exactly as a solve at `k` would: the greedy rounds
/// (Algorithm 6) pick in an order that does not depend on the cap and
/// only stop sooner for a smaller one, the singleton solver (Algorithm
/// 3) sorts once and takes a prefix, and the boolean min-cut ignores
/// the cap. Their extractors take prefix steps, so neither the mode nor
/// `sequential` changes the `Solved` and neither enters the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AnswerKey {
    Boolean,
    Singleton,
    /// [`Branch::Greedy`] and [`Branch::ForcedGreedy`]: both run
    /// `greedy::solve_leaf` on the root view, so a push group's forced
    /// solve and a pull's default solve share the entry.
    Greedy,
}

impl AnswerKey {
    /// The key of a root solve, or `None` when its answer must not be
    /// shared. `full_reeval` is the differential oracle and always
    /// computes; a deadline makes the answer depend on wall-clock speed.
    /// Universe and Decompose size their DP tables by the cap (and keep
    /// none in count mode), and the drastic leaf (Algorithm 7) picks its
    /// relation by the cap, so none of them is memoized.
    fn of(query: &Query, opts: &AdpOptions) -> Option<AnswerKey> {
        if opts.full_reeval || opts.deadline.is_some() {
            return None;
        }
        match Branch::of(query, opts) {
            Branch::Boolean => Some(AnswerKey::Boolean),
            Branch::Singleton => Some(AnswerKey::Singleton),
            Branch::Greedy | Branch::ForcedGreedy if !(opts.use_drastic && query.is_full()) => {
                Some(AnswerKey::Greedy)
            }
            // Policy and brute force never come through `solve_root`.
            _ => None,
        }
    }
}

/// One memoized root answer: the [`Solved`] of a solve at `cap`.
struct Answer {
    key: AnswerKey,
    cap: u64,
    solved: Arc<Solved>,
}

/// Rounds may kill at most `1 / ROLLBACK_DIVISOR` of the witnesses for
/// their state to be rolled back and pooled, and a pooled state is
/// advanced to another dead set only when the difference touches at
/// most that share. Past it, undoing or redoing the deletions costs
/// about as much as a template clone, and the state is dropped instead.
const ROLLBACK_DIVISOR: usize = 4;

/// Where a pooled lease returns to, and what it must look like then.
struct Home<'a> {
    pool: &'a PlannedEval,
    mask: Vec<bool>,
    dead: Option<Arc<DeadSet>>,
    /// Live witnesses and outputs at checkout: the rollback must
    /// restore exactly these.
    live_witnesses: u64,
    live_outputs: u64,
    /// The epoch snapshot of an anchored lease: picks are stable ids,
    /// reported in this database's dense coordinates.
    epoch: Option<&'a Database>,
}

/// One greedy solve's scored [`DeltaProvenance`], selection enabled.
///
/// Root views of a prepared query check it out of the plan's pool
/// ([`PlannedEval::checkout`]), epoch plans out of their base plan's
/// pool; derived views build a private one. The lease is also the
/// pool's drop guard: the state left the pool at checkout and goes back
/// only through [`release`](Self::release), so a solve that returns
/// early or unwinds drops its state instead of returning it
/// half-deleted.
pub(crate) struct GreedyLease<'a> {
    delta: DeltaProvenance,
    home: Option<Home<'a>>,
}

impl<'a> GreedyLease<'a> {
    /// A lease with no pool behind it: `release` just drops it.
    pub(crate) fn private(delta: DeltaProvenance) -> Self {
        GreedyLease { delta, home: None }
    }

    /// The state the rounds run on.
    pub(crate) fn delta(&mut self) -> &mut DeltaProvenance {
        &mut self.delta
    }

    /// `|Q(D − S)|` at the state's dead set.
    pub(crate) fn live_outputs(&self) -> u64 {
        self.delta.live_outputs()
    }

    /// Re-homes a state the caller moved to the dead set `dead`:
    /// [`release`](Self::release) then checks it in under `dead`, and
    /// the live counts it must show there are the current ones.
    fn moved_to(&mut self, dead: &Arc<DeadSet>) {
        if let Some(home) = &mut self.home {
            home.dead = Some(Arc::clone(dead));
            home.live_witnesses = self.delta.live_witnesses();
            home.live_outputs = self.delta.live_outputs();
        }
    }

    /// A tuple of the state in the solved database's coordinates: the
    /// identity, except on an anchored lease, whose stable ids map to
    /// the epoch's dense indices. The map is monotone, so the greedy
    /// tie-break by `(atom, idx)` is the same in both.
    pub(crate) fn local(&self, t: TupleRef) -> TupleRef {
        let Some(Home {
            pool,
            epoch: Some(db),
            ..
        }) = &self.home
        else {
            return t;
        };
        let index = db
            .relation_by_id(pool.plan.rels()[t.atom])
            .dense_of_stable(t.index);
        // adp-lint: allow(panic-path) -- a pick has live witnesses, so
        // its tuple is alive in the epoch the state is advanced to.
        TupleRef::new(t.atom, index.expect("picked tuples are live"))
    }

    /// Ends the solve. `picks` must be exactly the tuples the rounds
    /// deleted. If they killed at most a `1 / ROLLBACK_DIVISOR` share of
    /// the witnesses, they are restored and the state — again as it was
    /// checked out — returns to its pool under the same tag; otherwise
    /// it is dropped and a later checkout clones the template.
    pub(crate) fn release(self, picks: &[TupleRef]) {
        let GreedyLease { mut delta, home } = self;
        let Some(home) = home else {
            return;
        };
        let killed = home.live_witnesses - delta.live_witnesses();
        if killed as usize > delta.witness_slots() / ROLLBACK_DIVISOR {
            return;
        }
        delta.restore_batch(picks);
        let restored = delta.live_witnesses() == home.live_witnesses
            && delta.live_outputs() == home.live_outputs;
        debug_assert!(restored, "picks do not cover the rounds' deletions");
        if restored {
            home.pool.idle_states().push(Idle {
                mask: home.mask,
                dead: home.dead,
                delta,
            });
        }
    }
}

/// A query compiled once against a shared database, ready to be solved
/// for any `k` (and any option set) without re-planning, re-indexing, or
/// re-joining — from any thread.
pub struct PreparedQuery {
    query: Query,
    db: Arc<Database>,
    planned: Arc<PlannedEval>,
}

impl PreparedQuery {
    /// Compiles `query` against `db`. Panics (like
    /// [`evaluate`](adp_engine::join::evaluate)) if a body relation is
    /// missing from the database or its attribute set disagrees.
    pub fn new(query: Query, db: Arc<Database>) -> Self {
        let planned = Arc::new(PlannedEval::new(&query, Arc::clone(&db)));
        PreparedQuery { query, db, planned }
    }

    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The compiled plan (join order, dense-id slots).
    pub fn plan(&self) -> &QueryPlan {
        self.planned.plan()
    }

    /// The cached root evaluation `Q(D)`.
    pub fn eval(&self) -> Arc<EvalResult> {
        self.planned.eval()
    }

    /// `|Q(D)|`, counted component-wise so cross products of
    /// disconnected queries are never materialized.
    pub fn output_count(&self) -> u64 {
        super::count_outputs(&self.root_view())
    }

    /// Solves `ADP(Q, D, k)`, reusing the cached plan, indexes, and
    /// evaluation across calls: `ComputeADP` (Algorithm 2) on the root
    /// view, answered from the plan's memo when an earlier solve already
    /// covers `k` (see [`cached_answers`](Self::cached_answers)).
    pub fn solve(&self, k: u64, opts: &AdpOptions) -> Result<AdpOutcome, SolveError> {
        super::outcome(k, opts.mode, || self.solve_root(k, opts))
    }

    /// `ComputeADP` on the root view, memoized per plan: the one root
    /// solve behind [`solve`](Self::solve) and the fluent API's plain
    /// arm. A boolean, singleton or greedy root answer computed at cap
    /// `c` is kept and serves every later target `k ≤ c` (the boolean
    /// one any `k`); a miss computes at exactly `k`, outside the lock,
    /// and keeps the larger-cap entry per leaf family. Requests with
    /// `full_reeval` or a deadline neither read nor write the memo, so
    /// a truncated answer is never kept. Each epoch is its own plan, so
    /// entries never outlive the data they were computed on.
    pub(crate) fn solve_root(&self, k: u64, opts: &AdpOptions) -> Result<Arc<Solved>, SolveError> {
        let Some(key) = AnswerKey::of(&self.query, opts) else {
            return super::solve(&self.root_view(), k, opts).map(Arc::new);
        };
        if let Some(hit) = self.planned.answer(key, k) {
            return Ok(hit);
        }
        let solved = Arc::new(super::solve(&self.root_view(), k, opts)?);
        let cap = if key == AnswerKey::Boolean {
            u64::MAX
        } else {
            k
        };
        self.planned.keep_answer(key, cap, &solved);
        Ok(solved)
    }

    /// Root answers memoized on this plan: at most one per leaf family
    /// (boolean, singleton, greedy), so never more than 3.
    pub fn cached_answers(&self) -> usize {
        self.planned.answers().len()
    }

    /// Number of outputs removed by deleting `deletions`:
    /// `|Q(D)| − |Q(D − S)|`, answered in `O(Δ)` from the cached
    /// provenance postings (`killed_by_set`) — no re-join at all. Falls
    /// back to [`removed_outputs_masked`](Self::removed_outputs_masked)
    /// if the instance is too large to index.
    pub fn removed_outputs(&self, deletions: &[TupleRef]) -> u64 {
        if deletions.is_empty() {
            return 0;
        }
        match self.planned.provenance() {
            Ok(prov) => prov.killed_by_set(deletions),
            Err(_) => self.removed_outputs_masked(deletions),
        }
    }

    /// [`removed_outputs`](Self::removed_outputs) by masked re-execution
    /// of the cached plan — the full re-evaluation oracle the delta path
    /// is differentially tested against.
    pub fn removed_outputs_masked(&self, deletions: &[TupleRef]) -> u64 {
        let before = self.eval().output_count();
        if deletions.is_empty() {
            return 0;
        }
        let mut mask = self.planned.fresh_mask(&self.query);
        mask.kill_all(deletions);
        before - self.planned.eval_masked(&mask).output_count()
    }

    /// Greedy states idle in this plan's pool, over every selectable
    /// mask. Never more than the peak number of concurrent greedy solves
    /// on this plan.
    pub fn pooled_states(&self) -> usize {
        self.planned.pooled_states()
    }

    /// Re-binds the already-parsed query to a fresh database snapshot,
    /// compiling a new plan (and new lazy caches) against `db` while the
    /// original `PreparedQuery` stays fully usable against its own
    /// snapshot. Parsing is skipped, and because each epoch snapshot
    /// shares its sealed segments by `Arc`, the per-segment join indexes
    /// cached inside those segments are reused by the new binding's
    /// `JoinIndexes` — only overlay-dependent state is rebuilt. The new
    /// plan is unanchored: its first greedy solve joins and scores `db`.
    /// [`anchored`](Self::anchored) is the epoch-advance path that
    /// does neither.
    pub fn rebind(&self, db: Arc<Database>) -> PreparedQuery {
        PreparedQuery::new(self.query.clone(), db)
    }

    /// Binds the query to the epoch snapshot `db` — this plan's database
    /// minus the base tuples in `dead` — **anchored** on this plan, the
    /// base: a greedy solve of the returned plan (and its
    /// [`output_count`](Self::output_count), for queries whose dispatch
    /// reaches the greedy leaf) never joins `db`. It checks a state out
    /// of the base plan's pool, brings it to `dead` by the difference
    /// to the dead set the state was last advanced to, runs its rounds
    /// on it and returns it tagged with `dead`. Consecutive epochs cost
    /// `O(batch)` in the affected witnesses; solves that share the
    /// `dead` `Arc` find the state already there. Every other solver
    /// path evaluates `db` lazily, as an unanchored plan would. Answers
    /// are identical to `PreparedQuery::new(query, db)`'s.
    ///
    /// The base's database must index tuples by stable id (sealed, or
    /// built, with nothing deleted), and `db` must derive from it by
    /// deleting and restoring stable ids so that exactly `dead` is
    /// absent. Anchoring an epoch plan anchors on its base.
    pub fn anchored(self: &Arc<Self>, db: Arc<Database>, dead: Arc<DeadSet>) -> PreparedQuery {
        let base = self.anchor().unwrap_or(self);
        let mut planned = PlannedEval::new(&self.query, Arc::clone(&db));
        planned.anchor = Some(Anchor {
            base: Arc::clone(base),
            dead,
        });
        PreparedQuery {
            query: self.query.clone(),
            db,
            planned: Arc::new(planned),
        }
    }

    /// Moves one of this plan's pooled greedy states from the dead set
    /// `from` to `to` (both index this plan's database, see [`DeadSet`])
    /// and reports the outputs that crossed the live line on the way:
    /// the 1→0 and 0→1 live-witness crossings, so an output whose
    /// witnesses merely thinned is not reported. The state is checked
    /// out at `from` as a greedy solve would take it (tagged `from`,
    /// brought there from another dead set, or cloned from the
    /// template), moved by the difference in `O(Δ)` of the affected
    /// witnesses, and checked back in tagged with `to` itself, so the
    /// next greedy solve of a plan [anchored](Self::anchored) on `to`
    /// takes it as is.
    ///
    /// Fails only when the scored state cannot be built (e.g. too many
    /// witnesses to index).
    pub fn advance(
        &self,
        from: &Arc<DeadSet>,
        to: &Arc<DeadSet>,
    ) -> Result<LiveTransitions, AdpError> {
        let selectable = endogenous_atoms(&self.query);
        let mut lease = self.planned.checkout(&selectable, Some(from), true)?;
        let (deletes, restores) = self.planned.dead_diff(Some(from), Some(to));
        let mut revived = lease.delta().restore_batch_transitions(&restores);
        let mut died = lease.delta().delete_batch_transitions(&deletes);
        if !died.is_empty() && !revived.is_empty() {
            // Revived by the restores and killed again by the deletes:
            // dead at both ends, so no transition.
            let both: Vec<u32> = died
                .iter()
                .copied()
                .filter(|id| revived.binary_search(id).is_ok())
                .collect();
            died.retain(|id| both.binary_search(id).is_err());
            revived.retain(|id| both.binary_search(id).is_err());
        }
        let live_outputs = lease.live_outputs();
        lease.moved_to(to);
        lease.release(&[]);
        Ok(LiveTransitions {
            died,
            revived,
            live_outputs,
        })
    }

    /// The base plan an [`anchored`](Self::anchored) plan solves on;
    /// `None` for an unanchored plan.
    pub fn anchor(&self) -> Option<&Arc<PreparedQuery>> {
        self.planned.anchor.as_ref().map(|a| &a.base)
    }

    /// The root solver view, carrying the shared evaluation cache.
    pub(crate) fn root_view(&self) -> View {
        View::root_planned(
            self.query.clone(),
            Arc::clone(&self.db),
            Arc::clone(&self.planned),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::roles::endogenous_atoms;
    use crate::query::parse_query;
    use crate::solver::{removed_outputs, AdpOptions};
    use adp_engine::schema::attrs;

    /// Satellite requirement of the `Send + Sync` migration: the shared
    /// solver types must stay shareable across threads. This fails to
    /// *compile* if an `Rc`/`RefCell` sneaks back into them.
    #[test]
    fn prepared_types_are_send_and_sync() {
        fn _assert<T: Send + Sync>() {}
        _assert::<PreparedQuery>();
        _assert::<PlannedEval>();
        _assert::<View>();
        _assert::<Database>();
        _assert::<QueryPlan>();
        _assert::<JoinIndexes>();
        _assert::<EvalResult>();
        _assert::<AdpOptions>();
        _assert::<AdpOutcome>();
    }

    fn figure1() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        db
    }

    /// A reused plan answers every `k` like a one-shot solve on a fresh
    /// plan (what the removed `compute_adp_arc` ran).
    #[test]
    fn solve_matches_compute_adp_across_k() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let db = Arc::new(figure1());
        let prep = PreparedQuery::new(q.clone(), Arc::clone(&db));
        assert_eq!(prep.output_count(), 4);
        for k in 1..=4 {
            let a = prep.solve(k, &AdpOptions::default()).unwrap();
            let b = PreparedQuery::new(q.clone(), Arc::clone(&db))
                .solve(k, &AdpOptions::default())
                .unwrap();
            assert_eq!(a.cost, b.cost, "k={k}");
            assert_eq!(a.output_count, b.output_count);
            assert_eq!(a.exact, b.exact);
        }
    }

    #[test]
    fn eval_is_cached_across_solves() {
        let q = parse_query("Q(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[2, 2]]);
        db.add_relation("PS", attrs(&["SK", "PK"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[7, 1], &[8, 2]]);
        let prep = PreparedQuery::new(q, Arc::new(db));
        let e1 = prep.eval();
        prep.solve(1, &AdpOptions::counting()).unwrap();
        let e2 = prep.eval();
        assert!(Arc::ptr_eq(&e1, &e2), "evaluation must be computed once");
    }

    #[test]
    fn eval_is_computed_once_under_concurrent_first_use() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let prep = PreparedQuery::new(q, Arc::new(figure1()));
        let pool = adp_runtime::ThreadPool::new(4);
        let evals = pool.par_indexed(16, |_| prep.eval());
        for e in &evals {
            assert!(
                Arc::ptr_eq(e, &evals[0]),
                "all threads must observe the same cached evaluation"
            );
        }
        assert_eq!(evals[0].output_count(), 4);
    }

    #[test]
    fn masked_removed_outputs_matches_rebuild_verifier() {
        let q = parse_query("Q2(A,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let db = Arc::new(figure1());
        let prep = PreparedQuery::new(q.clone(), Arc::clone(&db));
        for atom in 0..3usize {
            for idx in 0..db.relations()[atom].len() as u32 {
                let dels = vec![TupleRef::new(atom, idx)];
                assert_eq!(
                    prep.removed_outputs(&dels),
                    removed_outputs(&q, &db, &dels),
                    "atom {atom} idx {idx}"
                );
            }
        }
        assert_eq!(prep.removed_outputs(&[]), 0);
    }

    #[test]
    fn disconnected_queries_count_without_materializing() {
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("S", attrs(&["B"]), &[&[10], &[20], &[30]]);
        let prep = PreparedQuery::new(q, Arc::new(db));
        assert_eq!(prep.output_count(), 6);
        let out = prep.solve(6, &AdpOptions::default()).unwrap();
        assert!(out.exact);
    }

    #[test]
    fn rebind_tracks_the_new_snapshot_without_disturbing_the_old() {
        let q = parse_query("Q1(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)").unwrap();
        let mut base = figure1();
        base.seal_all(2);
        let old = Arc::new(base);
        let prep = PreparedQuery::new(q, Arc::clone(&old));
        assert_eq!(prep.output_count(), 4);

        // Next epoch: O(Δ) overlay clone, tombstone one R2 tuple.
        let mut next = (*old).clone();
        let rel = next.rel_id("R2").unwrap();
        let stable = next.relation_by_id(rel).stable_id_at(1);
        assert!(next.relation_mut_by_id(rel).delete_stable(stable));
        let next = Arc::new(next);

        let rebound = prep.rebind(Arc::clone(&next));
        assert!(Arc::ptr_eq(rebound.database(), &next));
        let fresh = PreparedQuery::new(rebound.query().clone(), next);
        assert_eq!(rebound.output_count(), fresh.output_count());
        assert_eq!(rebound.eval().outputs, fresh.eval().outputs);
        // The original binding still answers over its own epoch.
        assert_eq!(prep.output_count(), 4);
    }

    /// `Q(A,B) :- R1(A), R2(A,B), R3(B)` over the full `dom × dom` grid
    /// on `R2`: `dom²` witnesses, and each `R1`/`R3` tuple kills `dom` of
    /// them — few enough for a small solve to roll back.
    fn grid(dom: u64) -> (Query, Arc<Database>) {
        fn rows(v: &[Vec<u64>]) -> Vec<&[u64]> {
            v.iter().map(|t| t.as_slice()).collect()
        }
        let r1: Vec<Vec<u64>> = (0..dom).map(|a| vec![a]).collect();
        let r2: Vec<Vec<u64>> = (0..dom * dom).map(|i| vec![i % dom, i / dom]).collect();
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &rows(&r1));
        db.add_relation("R2", attrs(&["A", "B"]), &rows(&r2));
        db.add_relation("R3", attrs(&["B"]), &rows(&r1));
        let q = parse_query("Q(A,B) :- R1(A), R2(A,B), R3(B)").unwrap();
        (q, Arc::new(db))
    }

    fn greedy() -> AdpOptions {
        AdpOptions {
            force_greedy: true,
            ..Default::default()
        }
    }

    /// [`greedy`] with a deadline an hour out: it never fires, but the
    /// solve bypasses the plan's memo and runs its rounds on a pooled
    /// state even when an earlier solve already covers the target.
    fn greedy_unmemoized() -> AdpOptions {
        AdpOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..greedy()
        }
    }

    /// A state that rolled back and checked in is indistinguishable from
    /// a fresh clone of the template with selection enabled; a solve
    /// that kills every witness drops its state instead.
    #[test]
    fn checked_in_state_equals_the_template() {
        let (q, db) = grid(8);
        let prep = PreparedQuery::new(q, db);
        let first = prep.solve(1, &greedy()).unwrap();
        assert_eq!(prep.pooled_states(), 1, "a small solve checks its state in");

        let endo = endogenous_atoms(prep.query());
        let mut fresh = DeltaProvenance::clone(&prep.planned.delta_template(false).unwrap());
        fresh.enable_selection(endo.clone());
        let mut lease = prep.planned.checkout(&endo, None, false).unwrap();
        assert_eq!(prep.pooled_states(), 0, "checkout takes the pooled state");
        let pooled = lease.delta();
        assert_eq!(pooled.profits(), fresh.profits());
        assert_eq!(pooled.live_counts(), fresh.live_counts());
        assert_eq!(pooled.live_outputs(), fresh.live_outputs());
        assert_eq!(pooled.live_witnesses(), fresh.live_witnesses());
        assert_eq!(
            pooled.best_profit_candidate(),
            fresh.best_profit_candidate()
        );
        assert_eq!(pooled.best_count_candidate(), fresh.best_count_candidate());
        lease.release(&[]);
        assert_eq!(prep.pooled_states(), 1);
        assert_eq!(prep.solve(1, &greedy_unmemoized()).unwrap(), first);

        let total = prep.output_count();
        prep.solve(total, &greedy()).unwrap();
        assert_eq!(prep.pooled_states(), 0, "a full solve drops its state");
        assert_eq!(prep.solve(1, &greedy_unmemoized()).unwrap(), first);
    }

    /// The lease is the pool's drop guard: a state whose solve unwound
    /// mid-round never returns to the pool.
    #[test]
    fn a_state_whose_solve_panicked_is_not_returned() {
        let (q, db) = grid(8);
        let prep = PreparedQuery::new(q.clone(), Arc::clone(&db));
        prep.solve(1, &greedy()).unwrap();
        assert_eq!(prep.pooled_states(), 1);
        let endo = endogenous_atoms(prep.query());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = prep.planned.checkout(&endo, None, false).unwrap();
            let (_, atom, idx) = lease.delta().best_profit_candidate().unwrap();
            lease.delta().delete(TupleRef::new(atom, idx));
            panic!("solve unwound with a pick applied");
        }));
        assert!(unwound.is_err());
        assert_eq!(prep.pooled_states(), 0, "the dirty state must not return");
        // k = 2 is past every earlier solve's cap: a memo miss, so the
        // solve builds a new state.
        let fresh = PreparedQuery::new(q, db).solve(2, &greedy()).unwrap();
        assert_eq!(prep.solve(2, &greedy()).unwrap(), fresh);
        assert_eq!(prep.pooled_states(), 1);
    }

    /// Four threads solving one plan concurrently get exactly the
    /// answers of fresh sequential solves, and the pool never holds more
    /// states than there were concurrent solves.
    #[test]
    fn four_threads_on_one_plan_match_sequential_answers() {
        let (q, db) = grid(8);
        let ks: Vec<u64> = (1..=64).collect();
        let expected: Vec<AdpOutcome> = ks
            .iter()
            .map(|&k| {
                PreparedQuery::new(q.clone(), Arc::clone(&db))
                    .solve(k, &greedy())
                    .unwrap()
            })
            .collect();
        let shared = PreparedQuery::new(q, db);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, ks, expected, start) = (&shared, &ks, &expected, &start);
                s.spawn(move || {
                    // All four check out their first state together, so
                    // the pool starts empty under four concurrent solves.
                    start.wait();
                    for round in 0..3 {
                        for i in 0..ks.len() {
                            // Each thread walks the ks from its own offset,
                            // so small and large solves overlap.
                            let j = (i * 7 + t * 16 + round) % ks.len();
                            let got = shared.solve(ks[j], &greedy()).unwrap();
                            assert_eq!(got, expected[j], "thread {t} k={}", ks[j]);
                        }
                    }
                });
            }
        });
        assert!(shared.pooled_states() <= 4);
    }

    /// `db` without the tuples named in `dead` (stable ids per relation
    /// slot): an epoch of a base sealed with nothing deleted.
    fn epoch_of(base: &Arc<Database>, dead: &DeadSet) -> Arc<Database> {
        let mut db = (**base).clone();
        for (slot, ids) in dead.iter().enumerate() {
            let rel = adp_engine::catalog::RelId(slot as u32);
            for &id in ids {
                assert!(db.relation_mut_by_id(rel).delete_stable(id));
            }
        }
        Arc::new(db)
    }

    /// A sealed `grid(dom)` base, its prepared plan, and a dead set with
    /// the given `R2` tuples.
    fn sealed_grid(dom: u64) -> (Query, Arc<Database>, Arc<PreparedQuery>) {
        let (q, db) = grid(dom);
        let mut db = (*db).clone();
        db.seal_all(16);
        let db = Arc::new(db);
        let base = Arc::new(PreparedQuery::new(q.clone(), Arc::clone(&db)));
        (q, db, base)
    }

    fn dead_r2(ids: &[u32]) -> Arc<DeadSet> {
        let mut dead = vec![BTreeSet::new(); 3];
        dead[1].extend(ids.iter().copied());
        Arc::new(dead)
    }

    /// Anchored and fresh plans over the same epoch give equal outcomes
    /// on every field, in both modes.
    fn assert_anchored_matches_fresh(q: &Query, epoch: &PreparedQuery, ks: &[u64]) {
        let fresh = PreparedQuery::new(q.clone(), Arc::clone(epoch.database()));
        assert_eq!(epoch.output_count(), fresh.output_count());
        for &k in ks.iter().filter(|&&k| k <= fresh.output_count()) {
            for opts in [greedy(), AdpOptions::counting(), AdpOptions::default()] {
                assert_eq!(
                    epoch.solve(k, &opts).unwrap(),
                    fresh.solve(k, &opts).unwrap(),
                    "k={k}"
                );
            }
        }
    }

    /// One pooled base state walks forward through growing dead sets
    /// and back again; at every epoch the anchored answers equal a
    /// fresh plan's, the epoch is never joined, and the state returns
    /// to the pool tagged with the epoch's dead set.
    #[test]
    fn anchored_state_advances_forward_and_backward() {
        let (q, db, base) = sealed_grid(8);
        base.solve(9, &greedy()).unwrap();
        assert_eq!(base.pooled_states(), 1);
        let epochs: [&[u32]; 5] = [&[3], &[3, 10, 17], &[3, 10, 17, 40, 41], &[10], &[]];
        for ids in epochs {
            let dead = dead_r2(ids);
            let epoch = base.anchored(epoch_of(&db, &dead), Arc::clone(&dead));
            assert!(Arc::ptr_eq(epoch.anchor().unwrap(), &base));
            assert_anchored_matches_fresh(&q, &epoch, &[1, 4, 9]);
            assert!(
                epoch.planned.eval.get().is_none(),
                "{ids:?}: an anchored greedy solve must not join its epoch"
            );
            assert_eq!(base.pooled_states(), 1, "{ids:?}: one state, advanced");
            let idle = base.planned.idle_states();
            assert!(same_dead(idle[0].dead.as_ref(), Some(&dead)), "{ids:?}");
        }
        // Anchoring an epoch plan anchors on its base.
        let dead = dead_r2(&[5]);
        let first = base.anchored(epoch_of(&db, &dead), Arc::clone(&dead));
        let second = Arc::new(first).anchored(epoch_of(&db, &dead), dead);
        assert!(Arc::ptr_eq(second.anchor().unwrap(), &base));
        // Back at epoch 0 the base itself advances the state home (k = 10
        // is past the first solve's cap, so the base's memo misses).
        let fresh = PreparedQuery::new(q, Arc::clone(&db))
            .solve(10, &greedy())
            .unwrap();
        assert_eq!(base.solve(10, &greedy()).unwrap(), fresh);
        assert!(same_dead(base.planned.idle_states()[0].dead.as_ref(), None));
    }

    /// A pooled state is advanced only when the difference touches at
    /// most a quarter of the witnesses; past that the state is dropped
    /// and the template cloned, with the same answers.
    #[test]
    fn a_large_dead_set_difference_falls_back_to_the_template() {
        let (q, db, base) = sealed_grid(8);
        base.solve(1, &greedy()).unwrap();
        let template = base.planned.delta_template(false).unwrap();
        let endo = endogenous_atoms(&q);
        let (small, large) = (dead_r2(&[0, 1, 2]), dead_r2(&(0..20).collect::<Vec<_>>()));
        let (deletes, restores) = base.planned.dead_diff(None, Some(&small));
        assert_eq!((deletes.len(), restores.len()), (3, 0));
        let witnesses = template.witness_slots();
        assert!(3 <= witnesses / ROLLBACK_DIVISOR && 20 > witnesses / ROLLBACK_DIVISOR);

        for dead in [small, large] {
            let epoch = base.anchored(epoch_of(&db, &dead), Arc::clone(&dead));
            assert_anchored_matches_fresh(&q, &epoch, &[1, 5]);
            assert_eq!(base.pooled_states(), 1);
        }
        // Either way the pooled state equals a template clone with the
        // dead set deleted.
        let dead = dead_r2(&(0..20).collect::<Vec<_>>());
        let mut lease = base.planned.checkout(&endo, Some(&dead), false).unwrap();
        let mut fresh = DeltaProvenance::clone(&template);
        fresh.delete_batch(&base.planned.dead_diff(None, Some(&dead)).0);
        fresh.enable_selection(endo.clone());
        assert_eq!(lease.delta().profits(), fresh.profits());
        assert_eq!(lease.delta().live_counts(), fresh.live_counts());
        assert_eq!(lease.delta().live_outputs(), fresh.live_outputs());
        lease.release(&[]);
    }

    /// An anchored lease whose solve unwound is dropped, not pooled, and
    /// the next anchored solve rebuilds a correct state.
    #[test]
    fn an_anchored_state_whose_solve_panicked_is_not_returned() {
        let (q, db, base) = sealed_grid(8);
        let dead = dead_r2(&[7, 8]);
        let epoch = base.anchored(epoch_of(&db, &dead), Arc::clone(&dead));
        epoch.solve(3, &greedy()).unwrap();
        assert_eq!(base.pooled_states(), 1);
        let endo = endogenous_atoms(&q);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = epoch.planned.anchored_checkout(&endo, false).unwrap();
            let (_, atom, idx) = lease.delta().best_profit_candidate().unwrap();
            lease.delta().delete(TupleRef::new(atom, idx));
            panic!("solve unwound with a pick applied");
        }));
        assert!(unwound.is_err());
        assert_eq!(base.pooled_states(), 0, "the dirty state must not return");
        // k = 4 is past the first solve's cap: a memo miss, so the solve
        // checks a new state out of the base pool.
        let fresh = PreparedQuery::new(q, epoch_of(&db, &dead))
            .solve(4, &greedy())
            .unwrap();
        assert_eq!(epoch.solve(4, &greedy()).unwrap(), fresh);
        assert_eq!(base.pooled_states(), 1);
    }

    /// When the base cannot build its greedy state (here: an injected
    /// witness-cap error), an anchored plan evaluates its own epoch and
    /// answers exactly as a fresh plan does.
    #[test]
    fn a_witness_cap_error_falls_back_to_the_epochs_own_evaluation() {
        let (q, db, base) = sealed_grid(8);
        let cap = Err(AdpError::TooManyWitnesses {
            witnesses: 64,
            cap: 8,
        });
        assert!(base.planned.delta.set(cap).is_ok());
        let dead = dead_r2(&[1, 2, 3]);
        let epoch = base.anchored(epoch_of(&db, &dead), Arc::clone(&dead));
        assert_anchored_matches_fresh(&q, &epoch, &[1, 6]);
        assert!(epoch.planned.eval.get().is_some(), "the epoch was joined");
        assert_eq!(base.pooled_states(), 0);
        assert_eq!(epoch.pooled_states(), 1, "the epoch pooled its own state");
    }

    /// The base output ids live in a fresh evaluation of `dead`'s epoch.
    fn live_ids(q: &Query, db: &Arc<Database>, base: &PreparedQuery, dead: &DeadSet) -> Vec<u32> {
        let fresh = PreparedQuery::new(q.clone(), epoch_of(db, dead)).eval();
        let live: BTreeSet<_> = fresh.outputs.iter().collect();
        (0u32..)
            .zip(base.eval().outputs.iter())
            .filter(|(_, row)| live.contains(row))
            .map(|(id, _)| id)
            .collect()
    }

    /// `a − b` of two sorted id lists.
    fn minus(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|id| !b.contains(id)).collect()
    }

    /// On every checkout path (a state tagged `from`, a state tagged
    /// another dead set, a template clone) `advance` reports exactly the
    /// outputs whose liveness differs between fresh evaluations at `from`
    /// and `to`, and leaves the state pooled under `to` itself, where an
    /// anchored plan at `to` finds it as is. Advancing back reports the
    /// mirror image.
    #[test]
    fn advance_reports_the_live_output_difference_on_every_checkout_path() {
        let mut seed = 0x5EED_u64;
        let mut rng = move |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let queries = [
            "Q(A,B) :- R1(A), R2(A,B), R3(B)",
            "Q(A) :- R1(A), R2(A,B), R3(B)",
            "Q(A,B) :- R1(A), R2(A,B)",
        ];
        for case in 0..60 {
            let dom = 2 + rng(4);
            let pairs: Vec<Vec<u64>> = (0..dom * dom)
                .filter(|_| rng(3) != 0)
                .map(|i| vec![i % dom, i / dom])
                .collect();
            let singles = |rng: &mut dyn FnMut(u64) -> u64| -> Vec<Vec<u64>> {
                (0..dom).filter(|_| rng(4) != 0).map(|a| vec![a]).collect()
            };
            let (r1, r3) = (singles(&mut rng), singles(&mut rng));
            fn rows(v: &[Vec<u64>]) -> Vec<&[u64]> {
                v.iter().map(|t| t.as_slice()).collect()
            }
            let mut db = Database::new();
            db.add_relation("R1", attrs(&["A"]), &rows(&r1));
            db.add_relation("R2", attrs(&["A", "B"]), &rows(&pairs));
            db.add_relation("R3", attrs(&["B"]), &rows(&r3));
            db.seal_all(4);
            let db = Arc::new(db);
            let q = parse_query(queries[case % queries.len()]).unwrap();
            let lens: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
            let mut random_dead = || -> Arc<DeadSet> {
                Arc::new(
                    lens.iter()
                        .map(|&len| (0..len as u32).filter(|_| rng(3) == 0).collect())
                        .collect(),
                )
            };
            let (from, to) = (random_dead(), random_dead());
            let (live_from, live_to) = {
                let base = PreparedQuery::new(q.clone(), Arc::clone(&db));
                (
                    live_ids(&q, &db, &base, &from),
                    live_ids(&q, &db, &base, &to),
                )
            };
            for path in ["tagged from", "tagged other", "template"] {
                let base = Arc::new(PreparedQuery::new(q.clone(), Arc::clone(&db)));
                match path {
                    "tagged from" => {
                        base.advance(&random_dead(), &from).unwrap();
                    }
                    // Same content as `from`, another `Arc`: the state
                    // is brought to `from` by an empty difference.
                    "tagged other" => {
                        base.advance(&random_dead(), &Arc::new((*from).clone()))
                            .unwrap();
                    }
                    _ => assert_eq!(base.pooled_states(), 0),
                }
                let moved = base.advance(&from, &to).unwrap();
                let at = format!("case {case} ({path})");
                assert_eq!(moved.died, minus(&live_from, &live_to), "{at}");
                assert_eq!(moved.revived, minus(&live_to, &live_from), "{at}");
                assert_eq!(moved.live_outputs, live_to.len() as u64, "{at}");
                assert_eq!(base.pooled_states(), 1, "{at}");
                assert!(same_dead(
                    base.planned.idle_states()[0].dead.as_ref(),
                    Some(&to)
                ));

                let epoch = base.anchored(epoch_of(&db, &to), Arc::clone(&to));
                assert_eq!(epoch.output_count(), moved.live_outputs, "{at}");
                assert_eq!(base.pooled_states(), 1, "{at}: the solve took it as is");
                assert!(same_dead(
                    base.planned.idle_states()[0].dead.as_ref(),
                    Some(&to)
                ));
                assert_anchored_matches_fresh(&q, &epoch, &[1, 3]);

                let back = base.advance(&to, &from).unwrap();
                assert_eq!(
                    (back.died, back.revived),
                    (moved.revived, moved.died),
                    "{at}"
                );
                assert_eq!(back.live_outputs, live_from.len() as u64, "{at}");
            }
        }
    }

    #[test]
    fn empty_instance_short_circuits() {
        let q = parse_query("Q(A) :- R(A), S(A)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        db.add_relation("S", attrs(&["A"]), &[]);
        let prep = PreparedQuery::new(q, Arc::new(db));
        assert_eq!(prep.output_count(), 0);
        assert_eq!(prep.eval().output_count(), 0);
    }
}
