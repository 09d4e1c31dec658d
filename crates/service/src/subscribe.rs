//! Push-based subscriptions: the incremental-view-maintenance front
//! door over the delta layer.
//!
//! Every other entry point is pull-based: after an epoch bump a client
//! must re-issue a solve, so N interested clients cost N fresh solves
//! per mutation batch even though the delta layer can absorb the batch
//! in O(Δ). [`Service::subscribe`] inverts the flow — register once,
//! and every effective [`delete_tuples`](Service::delete_tuples) /
//! [`restore_tuples`](Service::restore_tuples) batch pushes a minimal
//! [`ViewUpdate`] describing what the batch did to the watched view:
//!
//! ```text
//! mutation batch ──→ shared delta state (O(Δ), one per statement)
//!                         │
//!                         ├─→ live-transition rows (the SSP weight
//!                         │   rule: emit only on 1→0 / 0→1 crossings)
//!                         └─→ fan-out: try_send to every subscriber
//! ```
//!
//! The unit of sharing is the **group**: all subscriptions on the same
//! normalized statement hold one long-lived incremental greedy state
//! ([`IncrementalGreedy`]) in *base* tuple coordinates, advanced once
//! per batch no matter how many subscribers listen (the
//! `shared_delta_applications` counter pins this). Output rows are
//! emitted only for outputs whose last live witness disappeared (or
//! first reappeared) — redundant-witness churn inside a still-live
//! output is silent, exactly the SSP weight-transition rule.
//!
//! Boolean (min-cut) statements have no delta state to maintain, so
//! their groups fall back to **re-solve-on-push**: each effective batch
//! runs a fresh flow solve through the plan cache at the new epoch, and
//! a satisfied↔unsatisfied flip emits a single pseudo output row (id 0,
//! empty values). Per-subscriber **projections**
//! ([`SubscribeOptions::with_projection`]) thin delivered rows to the
//! requested head columns before enqueue.
//!
//! Serving concerns handled here, not left to callers:
//!
//! * **Bounded buffers, never blocking the mutation path.** Channels
//!   are std `sync_channel`s of [`SubscribeOptions::buffer`] slots and
//!   the notifier only ever `try_send`s. A full buffer drops the
//!   update and records its `seq`; the next update that does fit
//!   carries a typed [`Lagged`] marker naming every missed `seq`, so a
//!   slow subscriber knows exactly what it lost and can re-sync with a
//!   fresh solve.
//! * **Epoch-gapless, monotone `seq` numbers.** Each subscription's
//!   `seq` increments by exactly one per effective batch (delivered or
//!   not), so `seq`s delivered plus `seq`s named in `Lagged` markers
//!   reconstruct the full epoch sequence with no gaps — and no-op
//!   batches never wake anyone because they no longer bump the epoch.
//! * **Auto re-bind.** The group's base-epoch plan lives in the shared
//!   plan cache under a reserved key that epoch invalidation skips; if
//!   LRU pressure evicts it, the next transition re-compiles through
//!   the cache transparently (base evaluation is deterministic, so the
//!   maintained output ids stay valid).
//! * **Drop-aware cleanup.** Dropping a [`Receiver`] unsubscribes
//!   implicitly at the next batch; [`Service::unsubscribe`] does it
//!   eagerly. Empty groups release their delta state.
//!
//! Updates also track the subscription's removal **target**: each
//! distinct target in a group is re-solved per batch *on the shared
//! maintained state* (greedy picks are rolled back afterwards — no
//! clone, no re-join), and the update reports the cost drift and the
//! deletion-set churn relative to the previous epoch. The
//! `subscription_differential` suite replays pushed updates from the
//! subscription point and demands byte-identity with fresh solves at
//! every epoch.

use crate::error::ServiceError;
use crate::request::Target;
use crate::statement::Statement;
use crate::stats::StatsInner;
use crate::Service;
use adp_core::query::Query;
use adp_core::solver::{IncrementalGreedy, Mode};
use adp_engine::provenance::TupleRef;
use adp_engine::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, Weak};

/// The reserved cache-key epoch for subscription base plans. Epoch
/// invalidation drops keys *below* the current epoch, so `u64::MAX`
/// entries survive every bump and die only to LRU pressure — which the
/// notifier heals by re-compiling through the cache (auto re-bind).
const BASE_PLAN_EPOCH: u64 = u64::MAX;

/// Opaque handle naming one registration, for
/// [`Service::unsubscribe`]. Unique per service instance, never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

/// Knobs for one subscription.
#[derive(Clone, Debug)]
pub struct SubscribeOptions {
    /// Bounded channel capacity. When full, further updates are
    /// dropped (never queued unboundedly, never blocking the mutation
    /// path) and surface as a [`Lagged`] marker on the next delivered
    /// update. Clamped to at least 1.
    pub buffer: usize,
    /// Optional output-column projection (head-column indices, in the
    /// order the subscriber wants them). Applied to `outputs_gained` /
    /// `outputs_lost` row values before enqueue, so thin clients don't
    /// ship full rows over the wire. Columns may repeat or reorder;
    /// indices are validated against the statement's head arity at
    /// subscribe time. `None` delivers full rows.
    pub projection: Option<Vec<usize>>,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        SubscribeOptions {
            buffer: 64,
            projection: None,
        }
    }
}

impl SubscribeOptions {
    /// Sets the bounded channel capacity.
    pub fn with_buffer(mut self, buffer: usize) -> Self {
        self.buffer = buffer;
        self
    }

    /// Projects delivered rows onto these head-column indices.
    pub fn with_projection(mut self, columns: Vec<usize>) -> Self {
        self.projection = Some(columns);
        self
    }
}

/// One output row that crossed the live/dead boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputRow {
    /// The output's id in the subscription's base evaluation — stable
    /// across epochs, so subscribers can key materialized views by it.
    pub id: u32,
    /// The head-tuple values.
    pub values: Box<[Value]>,
}

/// Overflow marker: the subscriber's buffer was full when these `seq`s
/// were produced, so their updates were dropped. Delivered on the next
/// update that fits; a subscriber holding a `Lagged` should re-sync
/// with a fresh solve instead of patching its replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lagged {
    /// Every dropped `seq`, in order. Together with the `seq`s of
    /// delivered updates they form the gapless sequence `0, 1, 2, …`.
    pub missed_seqs: Vec<u64>,
}

/// Deletion-set churn for the subscription's target between the
/// previous epoch and this one, in **base** tuple coordinates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeletionChurn {
    /// Tuples in the new recommended deletion set but not the old.
    pub added: Vec<TupleRef>,
    /// Tuples in the old recommended deletion set but not the new.
    pub removed: Vec<TupleRef>,
}

impl DeletionChurn {
    /// True when the recommended deletion set did not move at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// One pushed view diff: everything an effective mutation batch did to
/// the watched statement, minimal by construction (rows appear only on
/// live-transitions; targets report drift, not full answers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewUpdate {
    /// The epoch the batch installed (the update describes the step
    /// from `epoch - 1` to `epoch` as seen at subscription time).
    pub epoch: u64,
    /// This subscription's gapless, monotone update number, starting at
    /// 0 with the first effective batch after registration.
    pub seq: u64,
    /// Present when earlier updates were dropped on a full buffer; see
    /// [`Lagged`].
    pub lagged: Option<Lagged>,
    /// Output rows that came back to life (0→1 live-witness crossing;
    /// only restore batches produce these).
    pub outputs_gained: Vec<OutputRow>,
    /// Output rows that died (1→0 crossing; only delete batches).
    pub outputs_lost: Vec<OutputRow>,
    /// Change in the greedy deletion cost for the subscription's target
    /// versus the previous epoch (negative when the view shrank enough
    /// to make the target cheaper).
    pub cost_drift: i64,
    /// How the recommended deletion set moved, in base coordinates.
    pub deletion_set_churn: DeletionChurn,
}

/// Hashable identity of a [`Target`] (ratios by bit pattern), so
/// subscribers asking for the same target share one re-solve per batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TargetKey {
    Outputs(u64),
    Ratio(u64),
}

impl TargetKey {
    fn of(target: Target) -> Self {
        match target {
            Target::Outputs(k) => TargetKey::Outputs(k),
            Target::Ratio(rho) => TargetKey::Ratio(rho.to_bits()),
        }
    }
}

/// Per-target maintained answer: what the previous epoch's solve said,
/// so the next update can report drift and churn.
struct TargetState {
    target: Target,
    prev_cost: u64,
    /// Sorted, base coordinates.
    prev_deletions: Vec<TupleRef>,
}

/// One registered subscriber within a group.
struct Sub {
    id: SubscriptionId,
    tkey: TargetKey,
    tx: SyncSender<ViewUpdate>,
    next_seq: u64,
    /// `seq`s dropped on a full buffer, awaiting the next delivery.
    missed: Vec<u64>,
    /// Validated head-column projection; `None` delivers full rows.
    projection: Option<Box<[usize]>>,
}

/// How a group's answer is maintained across batches.
enum Maintained {
    /// Row-producing statements: one shared incremental greedy state in
    /// base coordinates, advanced in O(Δ) per batch. Boxed so the
    /// cheap boolean variant doesn't inflate every group.
    Greedy(Box<IncrementalGreedy>),
    /// Boolean (min-cut) statements, which the incremental greedy
    /// cannot maintain: re-solve-on-push. Each effective batch runs a
    /// fresh flow solve through the plan cache at the new epoch and
    /// diffs against the remembered answer; `live` is whether the query
    /// was satisfied at the previous epoch, so 0↔1 flips emit a single
    /// pseudo output-row transition (the empty tuple, id 0).
    Boolean {
        /// Whether `Q(D)` was non-empty at the last pushed epoch.
        live: bool,
    },
}

/// All subscriptions on one normalized statement: one shared maintained
/// answer state, one catalog map, one weak handle to the base plan.
struct Group {
    query: Arc<Query>,
    normalized: String,
    fingerprint: u64,
    /// The base-epoch plan, owned by the plan cache (reserved key); the
    /// group only borrows it to materialize transition rows, and
    /// re-binds through the cache when LRU pressure evicts it. Unused
    /// (dangling) for boolean groups, which bind per-epoch plans.
    plan: Weak<adp_core::solver::PreparedQuery>,
    /// The shared maintained answer (delta state or boolean re-solve).
    state: Maintained,
    /// Base relation slot → query atom indices over that relation (the
    /// service's `(relation, index)` batches fan out to tuple refs).
    atoms_by_slot: Vec<Vec<usize>>,
    targets: HashMap<TargetKey, TargetState>,
    subs: Vec<Sub>,
}

/// The subscription registry: one per service, keyed by normalized
/// statement text. Locked briefly by subscribe/unsubscribe and by the
/// notifier (which already holds the mutation lock, so registration can
/// never race a half-applied batch).
#[derive(Default)]
pub(crate) struct Registry {
    inner: Mutex<HashMap<String, Group>>,
    next_id: AtomicU64,
}

/// Resolves a target against the current live output count, with the
/// same semantics as [`Service::solve`]: `k` clamps to the view size,
/// ratios round up, and 0 is trivially satisfied.
fn resolve_k(target: Target, live: u64) -> u64 {
    match target {
        Target::Outputs(k) => k.min(live),
        Target::Ratio(rho) => ((live as f64 * rho).ceil() as u64).min(live),
    }
}

/// Applies a subscriber's head-column projection to transition rows
/// (`None` = full rows). Columns were validated against the head arity
/// at subscribe time; boolean pseudo rows have no columns and only an
/// empty projection can reach them.
fn project_rows(rows: &[OutputRow], projection: Option<&[usize]>) -> Vec<OutputRow> {
    match projection {
        None => rows.to_vec(),
        Some(cols) => rows
            .iter()
            .map(|r| OutputRow {
                id: r.id,
                values: cols.iter().map(|&c| r.values[c]).collect(),
            })
            .collect(),
    }
}

/// Two-pointer diff of sorted deletion sets → (added, removed).
fn churn(prev: &[TupleRef], next: &[TupleRef]) -> DeletionChurn {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() || j < next.len() {
        match (prev.get(i), next.get(j)) {
            (Some(p), Some(n)) if p == n => {
                i += 1;
                j += 1;
            }
            (Some(p), Some(n)) if p < n => {
                removed.push(*p);
                i += 1;
            }
            (Some(_), Some(n)) => {
                added.push(*n);
                j += 1;
            }
            (Some(p), None) => {
                removed.push(*p);
                i += 1;
            }
            (None, Some(n)) => {
                added.push(*n);
                j += 1;
            }
            // adp-lint: allow(panic-path) -- the merge loop's guard
            // (`i < old.len() || j < new.len()`) rules out both sides
            // being exhausted inside the body.
            (None, None) => unreachable!(),
        }
    }
    DeletionChurn { added, removed }
}

impl Service {
    /// Registers a push subscription on a prepared statement: every
    /// effective mutation batch from now on delivers one [`ViewUpdate`]
    /// on the returned channel (or counts into a [`Lagged`] marker if
    /// the buffer is full). All subscriptions on the same normalized
    /// statement share one O(Δ) delta application per batch; the
    /// subscription itself costs one base-plan bind and one seed solve.
    ///
    /// Boolean statements are watchable too: they have no incremental
    /// delta state, so the group falls back to a fresh min-cut solve
    /// per effective batch, emitting a single pseudo output row (id 0,
    /// empty values) when the answer flips between satisfied and
    /// unsatisfied.
    ///
    /// Fails with [`ServiceError::BadRequest`] for statements prepared
    /// on a different service, an invalid target, or a projection
    /// column out of the statement's head arity; solver-side failures
    /// (e.g. an over-budget provenance build) surface as
    /// [`ServiceError::Solve`].
    pub fn subscribe(
        &self,
        stmt: &Statement<'_>,
        target: Target,
        opts: SubscribeOptions,
    ) -> Result<(SubscriptionId, Receiver<ViewUpdate>), ServiceError> {
        Service::validate_target(target)?;
        if !std::ptr::eq(stmt.service(), self) {
            return Err(ServiceError::BadRequest(
                "statement was prepared on a different service".into(),
            ));
        }
        if let Some(cols) = &opts.projection {
            let arity = stmt.query().head().len();
            for &c in cols {
                if c >= arity {
                    return Err(ServiceError::BadRequest(format!(
                        "projection column {c} out of range for a head of {arity} column(s)"
                    )));
                }
            }
        }
        // Hold the mutation lock so the group is built against a settled
        // epoch: no batch can install (and notify) between the catch-up
        // below and the registration becoming visible.
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let _writer = self.mutation.lock().unwrap();
        // adp-lint: allow(panic-path) -- same poisoning rationale.
        let mut groups = self.subscriptions.inner.lock().unwrap();
        let key = stmt.normalized_text();
        if !groups.contains_key(key) {
            let group = self.build_group(stmt)?;
            groups.insert(key.to_string(), group);
        }
        // adp-lint: allow(panic-path) -- the branch above inserted the
        // key if it was absent; the map holds it here.
        let group = groups.get_mut(key).expect("just inserted");
        let tkey = TargetKey::of(target);
        if !group.targets.contains_key(&tkey) {
            // Seed the target's answer at the current epoch so the
            // first update's drift is relative to subscription time.
            let seeded = if let Maintained::Greedy(ref mut greedy) = group.state {
                let k = resolve_k(target, greedy.live_outputs());
                let seed = greedy.solve(k);
                TargetState {
                    target,
                    prev_cost: seed.cost,
                    prev_deletions: seed.deletions,
                }
            } else {
                // Boolean: fresh min-cut at the settled current epoch
                // (the mutation lock above pins it).
                let (live, cost, deletions) = self.boolean_answer(group)?;
                group.state = Maintained::Boolean { live };
                if resolve_k(target, u64::from(live)) == 0 {
                    TargetState {
                        target,
                        prev_cost: 0,
                        prev_deletions: Vec::new(),
                    }
                } else {
                    TargetState {
                        target,
                        prev_cost: cost,
                        prev_deletions: deletions,
                    }
                }
            };
            group.targets.insert(tkey, seeded);
        }
        let (tx, rx) = sync_channel(opts.buffer.max(1));
        let id = SubscriptionId(self.subscriptions.next_id.fetch_add(1, Ordering::Relaxed));
        group.subs.push(Sub {
            id,
            tkey,
            tx,
            next_seq: 0,
            missed: Vec::new(),
            projection: opts.projection.map(Vec::into_boxed_slice),
        });
        StatsInner::bump(&self.stats.subscriptions_live);
        Ok((id, rx))
    }

    /// Removes a subscription eagerly (dropping the receiver achieves
    /// the same at the next batch). Returns whether the id was live;
    /// the last subscriber on a statement releases the group's shared
    /// delta state.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let mut groups = self.subscriptions.inner.lock().unwrap();
        let mut found = false;
        groups.retain(|_, group| {
            if let Some(pos) = group.subs.iter().position(|s| s.id == id) {
                group.subs.remove(pos);
                group
                    .targets
                    .retain(|tkey, _| group.subs.iter().any(|s| s.tkey == *tkey));
                found = true;
                StatsInner::sub(&self.stats.subscriptions_live, 1);
            }
            !group.subs.is_empty()
        });
        found
    }

    /// Currently registered subscriptions (the `subscriptions_live`
    /// gauge, as a convenience accessor).
    pub fn live_subscriptions(&self) -> u64 {
        self.stats.subscriptions_live.load(Ordering::Relaxed)
    }

    /// Builds the shared group state for a statement. Row statements:
    /// bind the base plan through the cache's reserved key, derive the
    /// maintained greedy state from the base evaluation, and catch it
    /// up to the current epoch's deletion set. Boolean statements: bind
    /// the current epoch's plan and remember whether the query is
    /// satisfied (re-solve-on-push maintains it from there). Caller
    /// holds the mutation lock.
    fn build_group(&self, stmt: &Statement<'_>) -> Result<Group, ServiceError> {
        let current = self.current();
        let (base, deleted) = (&current.base, &current.deleted);
        let query = Arc::clone(stmt.query_arc());
        let mut atoms_by_slot: Vec<Vec<usize>> = vec![Vec::new(); base.relations().len()];
        for (i, atom) in query.atoms().iter().enumerate() {
            let Some(rel_id) = base.rel_id(atom.name()) else {
                return Err(ServiceError::BadRequest(format!(
                    "unknown relation {:?} in subscribed statement",
                    atom.name()
                )));
            };
            atoms_by_slot[rel_id.index()].push(i);
        }
        if query.is_boolean() {
            // No delta state to maintain: bind the current epoch's plan
            // (shared with the solve path) just to record liveness.
            let (prep, _hit, evicted) = self.plan_for(
                stmt.fingerprint(),
                stmt.normalized_text().to_string(),
                &query,
                &current,
            );
            StatsInner::add(&self.stats.evicted, evicted);
            return Ok(Group {
                fingerprint: stmt.fingerprint(),
                normalized: stmt.normalized_text().to_string(),
                query,
                plan: Weak::new(),
                state: Maintained::Boolean {
                    live: prep.output_count() > 0,
                },
                atoms_by_slot,
                targets: HashMap::new(),
                subs: Vec::new(),
            });
        }
        let (prep, _hit, evicted) = self.cache.get_or_insert(
            stmt.fingerprint(),
            (stmt.normalized_text().to_string(), BASE_PLAN_EPOCH),
            |normalized| self.base_plan(normalized, &query, base),
        );
        StatsInner::add(&self.stats.evicted, evicted);
        // The statement's own base plan: its join and scoring pass serve
        // pull solves and this group alike.
        let mut greedy = IncrementalGreedy::from_prepared(&prep, true)
            .map_err(|e| ServiceError::Solve(e.into()))?;
        // Catch up from the base (epoch 0) state to the current epoch.
        let catch_up: Vec<TupleRef> = deleted
            .iter()
            .enumerate()
            .flat_map(|(slot, set)| {
                let atoms = &atoms_by_slot[slot];
                set.iter()
                    .flat_map(move |&idx| atoms.iter().map(move |&a| TupleRef::new(a, idx)))
            })
            .collect();
        greedy.apply_deletes(&catch_up);
        Ok(Group {
            fingerprint: stmt.fingerprint(),
            normalized: stmt.normalized_text().to_string(),
            query,
            plan: Arc::downgrade(&prep),
            state: Maintained::Greedy(Box::new(greedy)),
            atoms_by_slot,
            targets: HashMap::new(),
            subs: Vec::new(),
        })
    }

    /// Fresh boolean answer for `group` at the current epoch, through
    /// the shared plan cache: whether the query is satisfied, and (when
    /// it is) the min-cut cost plus its deletion set mapped to **base**
    /// tuple coordinates so churn stays comparable across epochs. Caller
    /// holds the mutation lock, so the current epoch is settled.
    fn boolean_answer(&self, group: &Group) -> Result<(bool, u64, Vec<TupleRef>), ServiceError> {
        let current = self.current();
        let db = Arc::clone(&current.db);
        let (prep, _hit, evicted) = self.plan_for(
            group.fingerprint,
            group.normalized.clone(),
            &group.query,
            &current,
        );
        StatsInner::add(&self.stats.evicted, evicted);
        if prep.output_count() == 0 {
            return Ok((false, 0, Vec::new()));
        }
        let mut opts = self.config.default_opts.clone();
        opts.mode = Mode::Report;
        let outcome = prep.solve(1, &opts).map_err(ServiceError::Solve)?;
        let solution = outcome.solution.unwrap_or_default();
        let mut deletions = Vec::with_capacity(solution.len());
        for t in solution {
            // Snapshot dense index → base stable id; atoms and
            // relations were validated when the group was built.
            let Some(atom) = group.query.atoms().get(t.atom) else {
                continue;
            };
            let Some(rel_id) = db.rel_id(atom.name()) else {
                continue;
            };
            let rel = db.relation_by_id(rel_id);
            deletions.push(TupleRef::new(t.atom, rel.stable_id_at(t.index)));
        }
        deletions.sort_unstable();
        Ok((true, outcome.cost, deletions))
    }

    /// The fan-out half of every effective mutation batch. Called by
    /// `apply_batch` with the mutation lock held, after the new epoch
    /// is installed: advances each group's shared delta state through
    /// the batch once, re-solves each distinct target on the maintained
    /// state, and `try_send`s per-subscriber updates — never blocking,
    /// dropping to [`Lagged`] accounting when a buffer is full.
    pub(crate) fn notify_subscribers(&self, epoch: u64, effective: &[(usize, u32)], delete: bool) {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let mut groups = self.subscriptions.inner.lock().unwrap();
        if groups.is_empty() {
            return;
        }
        let mut reaped = 0u64;
        for group in groups.values_mut() {
            let mut answers: HashMap<TargetKey, (i64, DeletionChurn)> = HashMap::new();
            let (gained, lost);
            if matches!(group.state, Maintained::Boolean { .. }) {
                // Re-solve-on-push: a fresh min-cut at the new epoch,
                // diffed against the remembered answer. A solver-side
                // failure (an over-budget flow solve under a custom
                // `default_opts` deadline) degrades to "answer unknown,
                // carry the previous one": the update still delivers
                // its gapless seq with zero drift, and the next
                // successful solve reports the accumulated movement.
                let answer = self.boolean_answer(group).ok();
                let prev_live = matches!(group.state, Maintained::Boolean { live: true });
                let live_now = answer.as_ref().map_or(prev_live, |&(live, _, _)| live);
                group.state = Maintained::Boolean { live: live_now };
                let pseudo = || {
                    vec![OutputRow {
                        id: 0,
                        values: Vec::new().into_boxed_slice(),
                    }]
                };
                (gained, lost) = match (prev_live, live_now) {
                    (false, true) => (pseudo(), Vec::new()),
                    (true, false) => (Vec::new(), pseudo()),
                    _ => (Vec::new(), Vec::new()),
                };
                for (tkey, st) in group.targets.iter_mut() {
                    let (cost, deletions) = match &answer {
                        Some((_, cost, dels)) if resolve_k(st.target, u64::from(live_now)) > 0 => {
                            (*cost, dels.clone())
                        }
                        Some(_) => (0, Vec::new()),
                        None => (st.prev_cost, st.prev_deletions.clone()),
                    };
                    let drift = cost as i64 - st.prev_cost as i64;
                    let moved = churn(&st.prev_deletions, &deletions);
                    st.prev_cost = cost;
                    st.prev_deletions = deletions;
                    answers.insert(*tkey, (drift, moved));
                }
            } else {
                // Service batches are (relation slot, base index); the
                // delta state wants per-atom tuple refs.
                let refs: Vec<TupleRef> = effective
                    .iter()
                    .flat_map(|&(slot, idx)| {
                        group
                            .atoms_by_slot
                            .get(slot)
                            .into_iter()
                            .flatten()
                            .map(move |&a| TupleRef::new(a, idx))
                    })
                    .collect();
                let transitions = match &mut group.state {
                    Maintained::Greedy(greedy) => {
                        if delete {
                            greedy.apply_deletes(&refs)
                        } else {
                            greedy.apply_restores(&refs)
                        }
                    }
                    Maintained::Boolean { .. } => Vec::new(),
                };
                StatsInner::bump(&self.stats.shared_delta_applications);

                // Materialize rows only for outputs that actually
                // crossed the live boundary (the SSP weight rule).
                let rows: Vec<OutputRow> = if transitions.is_empty() {
                    Vec::new()
                } else {
                    let eval = self.group_eval(group);
                    transitions
                        .iter()
                        .map(|&id| OutputRow {
                            id,
                            values: eval.outputs[id as usize].clone(),
                        })
                        .collect()
                };
                (gained, lost) = if delete {
                    (Vec::new(), rows)
                } else {
                    (rows, Vec::new())
                };

                // One re-solve per distinct target, shared by its
                // subscribers.
                let Group { state, targets, .. } = group;
                if let Maintained::Greedy(greedy) = state {
                    let live = greedy.live_outputs();
                    for (tkey, st) in targets.iter_mut() {
                        let solve = greedy.solve(resolve_k(st.target, live));
                        let drift = solve.cost as i64 - st.prev_cost as i64;
                        let moved = churn(&st.prev_deletions, &solve.deletions);
                        st.prev_cost = solve.cost;
                        st.prev_deletions = solve.deletions;
                        answers.insert(*tkey, (drift, moved));
                    }
                }
            }

            group.subs.retain_mut(|sub| {
                let seq = sub.next_seq;
                sub.next_seq += 1;
                let (cost_drift, deletion_set_churn) = answers[&sub.tkey].clone();
                let update = ViewUpdate {
                    epoch,
                    seq,
                    lagged: (!sub.missed.is_empty()).then(|| Lagged {
                        missed_seqs: std::mem::take(&mut sub.missed),
                    }),
                    outputs_gained: project_rows(&gained, sub.projection.as_deref()),
                    outputs_lost: project_rows(&lost, sub.projection.as_deref()),
                    cost_drift,
                    deletion_set_churn,
                };
                match sub.tx.try_send(update) {
                    Ok(()) => {
                        StatsInner::bump(&self.stats.updates_pushed);
                        true
                    }
                    Err(TrySendError::Full(mut dropped)) => {
                        // Put the pending-miss list back, then record
                        // this seq as missed too.
                        if let Some(l) = dropped.lagged.take() {
                            sub.missed = l.missed_seqs;
                        }
                        sub.missed.push(dropped.seq);
                        StatsInner::bump(&self.stats.lagged_drops);
                        true
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        // Receiver dropped: implicit unsubscribe.
                        reaped += 1;
                        false
                    }
                }
            });
            group
                .targets
                .retain(|tkey, _| group.subs.iter().any(|s| s.tkey == *tkey));
        }
        groups.retain(|_, g| !g.subs.is_empty());
        StatsInner::sub(&self.stats.subscriptions_live, reaped);
    }

    /// The group's base evaluation, re-binding the plan through the
    /// shared cache if LRU pressure evicted it. The base database never
    /// changes and evaluation is deterministic, so a re-compiled plan
    /// reproduces the exact output ids the maintained state indexes.
    fn group_eval(&self, group: &mut Group) -> Arc<adp_engine::join::EvalResult> {
        if let Some(prep) = group.plan.upgrade() {
            return prep.eval();
        }
        let base = self.current().base;
        let (prep, _hit, evicted) = self.cache.get_or_insert(
            group.fingerprint,
            (group.normalized.clone(), BASE_PLAN_EPOCH),
            |normalized| self.base_plan(normalized, &group.query, &base),
        );
        StatsInner::add(&self.stats.evicted, evicted);
        group.plan = Arc::downgrade(&prep);
        prep.eval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, SolveRequest};
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    const Q: &str = "Q(A,B) :- R1(A), R2(A,B), R3(B)";

    #[test]
    fn updates_flow_on_live_transitions_only() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        assert_eq!(svc.live_subscriptions(), 1);

        // Outputs are (1,1), (1,2), (2,1). Deleting R2(1,1) kills (1,1).
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!((u.epoch, u.seq), (1, 0));
        assert!(u.lagged.is_none());
        assert!(u.outputs_gained.is_empty());
        assert_eq!(u.outputs_lost.len(), 1);
        assert_eq!(&*u.outputs_lost[0].values, &[1, 1]);

        // Deleting R1(2)'s partner R3(2) touches no live output — row
        // (1,2) already died? No: (1,2) uses R3's B=2 tuple. Check the
        // weight rule instead with a redundant restore: restoring the
        // killed tuple revives exactly the same output.
        svc.restore_tuples(&[("R2", 0)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!((u.epoch, u.seq), (2, 1));
        assert_eq!(u.outputs_lost.len(), 0);
        assert_eq!(u.outputs_gained.len(), 1);
        assert_eq!(&*u.outputs_gained[0].values, &[1, 1]);

        // An effective batch with no output transitions still delivers
        // its (gapless) seq: deleting R1(2) kills (2,1) — pick instead a
        // tuple participating in no output at all. All base tuples here
        // participate, so delete one that only kills already-dead rows:
        // kill R2(1,1) then its sole witness partner R1(1) — the second
        // batch loses (1,2) only.
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        let _ = rx.try_recv().unwrap();
        svc.delete_tuples(&[("R1", 0)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!((u.epoch, u.seq), (4, 3));
        assert_eq!(u.outputs_lost.len(), 1, "only the still-live output dies");
        assert_eq!(&*u.outputs_lost[0].values, &[1, 2]);
    }

    #[test]
    fn drift_and_churn_track_the_targets_answer() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Ratio(1.0), SubscribeOptions::default())
            .unwrap();
        // Full deletion of 3 outputs costs some c0 > 0; after the view
        // shrinks, the accumulated drift must equal the new cost - c0,
        // and replaying churn from the seed set must yield the new set.
        let seed = {
            let groups = svc.subscriptions.inner.lock().unwrap();
            let g = groups.values().next().unwrap();
            let ts = g.targets.values().next().unwrap();
            (ts.prev_cost, ts.prev_deletions.clone())
        };
        svc.delete_tuples(&[("R2", 0), ("R2", 2)]).unwrap();
        let u = rx.try_recv().unwrap();
        let groups = svc.subscriptions.inner.lock().unwrap();
        let ts = groups
            .values()
            .next()
            .unwrap()
            .targets
            .values()
            .next()
            .unwrap();
        assert_eq!(seed.0 as i64 + u.cost_drift, ts.prev_cost as i64);
        let mut replay = seed.1.clone();
        replay.retain(|t| !u.deletion_set_churn.removed.contains(t));
        replay.extend(u.deletion_set_churn.added.iter().copied());
        replay.sort_unstable();
        assert_eq!(replay, ts.prev_deletions);
    }

    /// A subscription group maintains a clone of the statement's own
    /// base-plan template: no second base plan, and the cache holds the
    /// same entries as it would with two.
    #[test]
    fn subscription_groups_share_the_statements_base_plan() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        assert_eq!(
            svc.cached_plans(),
            2,
            "the epoch-0 key and the reserved key"
        );
        let group_plan = {
            let groups = svc.subscriptions.inner.lock().unwrap();
            groups[stmt.normalized_text()].plan.upgrade().unwrap()
        };
        let solved = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert!(solved.stats.cache_hit);
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(rx.try_recv().unwrap().outputs_lost.len(), 1);
        stmt.solve(Target::Outputs(1)).unwrap();
        assert_eq!(svc.cached_plans(), 2, "epoch 0 invalidated, epoch 1 added");
        let (prep, hit, _) = svc.cache.get_or_insert(
            stmt.fingerprint(),
            (stmt.normalized_text().to_string(), 1),
            |_| unreachable!("epoch 1 is cached"),
        );
        assert!(hit);
        assert!(Arc::ptr_eq(prep.anchor().unwrap(), &group_plan));
    }

    #[test]
    fn sharing_one_statement_means_one_delta_application() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let mut rxs = Vec::new();
        for _ in 0..5 {
            let (_, rx) = svc
                .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
                .unwrap();
            rxs.push(rx);
        }
        // A lexically different rendering of the same statement joins
        // the same group.
        let stmt2 = svc
            .prepare("Other( B ,A ):-R1( A ), R2( A , B ),R3( B )")
            .unwrap();
        let (_, rx6) = svc
            .subscribe(&stmt2, Target::Outputs(2), SubscribeOptions::default())
            .unwrap();
        rxs.push(rx6);
        assert_eq!(svc.live_subscriptions(), 6);

        svc.delete_tuples(&[("R2", 1)]).unwrap();
        svc.restore_tuples(&[("R2", 1)]).unwrap();
        let s = svc.stats();
        assert_eq!(
            s.shared_delta_applications, 2,
            "6 subscribers, 2 batches, 1 group ⇒ 2 applications"
        );
        assert_eq!(
            s.updates_pushed, 12,
            "every subscriber still gets every update"
        );
        for rx in &rxs {
            assert_eq!(rx.try_iter().count(), 2);
        }
    }

    #[test]
    fn full_buffers_lag_instead_of_blocking_and_name_missed_seqs() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(
                &stmt,
                Target::Outputs(1),
                SubscribeOptions::default().with_buffer(1),
            )
            .unwrap();
        // Three effective batches into a 1-slot buffer nobody drains:
        // seq 0 delivered, seqs 1 and 2 dropped.
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        svc.delete_tuples(&[("R2", 1)]).unwrap();
        svc.restore_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(svc.stats().lagged_drops, 2);

        let u0 = rx.try_recv().unwrap();
        assert_eq!(u0.seq, 0);
        assert!(u0.lagged.is_none());
        // The buffer has room again: the next batch delivers and names
        // the missed seqs.
        svc.restore_tuples(&[("R2", 1)]).unwrap();
        let u3 = rx.try_recv().unwrap();
        assert_eq!(u3.seq, 3);
        assert_eq!(
            u3.lagged,
            Some(Lagged {
                missed_seqs: vec![1, 2]
            })
        );
        assert_eq!(svc.stats().updates_pushed, 2);
    }

    #[test]
    fn unsubscribe_and_dropped_receivers_clean_up() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (id1, rx1) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        let (id2, rx2) = svc
            .subscribe(&stmt, Target::Outputs(2), SubscribeOptions::default())
            .unwrap();
        assert_eq!(svc.live_subscriptions(), 2);

        assert!(svc.unsubscribe(id1));
        assert!(!svc.unsubscribe(id1), "ids are single-use");
        assert_eq!(svc.live_subscriptions(), 1);
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(rx1.try_iter().count(), 0, "unsubscribed: no update");
        assert_eq!(rx2.try_iter().count(), 1);

        // Dropping the receiver reaps the subscription at the next batch
        // and the empty group releases its shared state.
        drop(rx2);
        svc.restore_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(svc.live_subscriptions(), 0);
        assert!(svc.subscriptions.inner.lock().unwrap().is_empty());
        let _ = id2;
    }

    #[test]
    fn base_plan_survives_epoch_invalidation_and_rebinds_after_eviction() {
        // 1-entry cache: the reserved base-plan entry is evicted by any
        // other traffic, and the notifier must transparently re-bind.
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                cache_shards: 1,
                cache_entries_per_shard: 1,
                ..Default::default()
            },
        );
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        // Epoch invalidation must not drop the reserved key.
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(rx.try_recv().unwrap().outputs_lost.len(), 1);
        // Unrelated traffic evicts the base plan from the 1-slot cache…
        svc.solve(&SolveRequest::outputs("Q(A) :- R1(A)", 1))
            .unwrap();
        // …and the next transition still materializes correct rows.
        svc.restore_tuples(&[("R2", 0)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!(u.outputs_gained.len(), 1);
        assert_eq!(&*u.outputs_gained[0].values, &[1, 1]);
    }

    #[test]
    fn bad_subscriptions_are_typed() {
        let svc = Service::new(chain_db());
        let other = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        assert!(matches!(
            other.subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default()),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            svc.subscribe(&stmt, Target::Ratio(f64::NAN), SubscribeOptions::default()),
            Err(ServiceError::BadRequest(_))
        ));
        // Projection columns must fit the head arity — including on
        // boolean statements, whose head has no columns at all.
        assert!(matches!(
            svc.subscribe(
                &stmt,
                Target::Outputs(1),
                SubscribeOptions::default().with_projection(vec![0, 2]),
            ),
            Err(ServiceError::BadRequest(_))
        ));
        let boolean = svc.prepare("Q() :- R1(A), R2(A,B)").unwrap();
        assert!(matches!(
            svc.subscribe(
                &boolean,
                Target::Outputs(1),
                SubscribeOptions::default().with_projection(vec![0]),
            ),
            Err(ServiceError::BadRequest(_))
        ));
        assert_eq!(svc.live_subscriptions(), 0);
    }

    #[test]
    fn projections_thin_rows_per_subscriber() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_f, full) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        // Head is (A, B): keep only B, and also B twice reversed —
        // reorder and repetition are both legal.
        let (_b, only_b) = svc
            .subscribe(
                &stmt,
                Target::Outputs(1),
                SubscribeOptions::default().with_projection(vec![1]),
            )
            .unwrap();
        let (_r, b_then_a) = svc
            .subscribe(
                &stmt,
                Target::Outputs(1),
                SubscribeOptions::default().with_projection(vec![1, 0]),
            )
            .unwrap();

        svc.delete_tuples(&[("R2", 1)]).unwrap(); // kills output (1,2)
        assert_eq!(&*full.try_recv().unwrap().outputs_lost[0].values, &[1, 2]);
        let u = only_b.try_recv().unwrap();
        assert_eq!(&*u.outputs_lost[0].values, &[2]);
        assert_eq!(u.outputs_lost[0].id, 1, "projection keeps the row id");
        assert_eq!(
            &*b_then_a.try_recv().unwrap().outputs_lost[0].values,
            &[2, 1]
        );
    }

    #[test]
    fn boolean_subscriptions_resolve_on_push_and_diff_on_answer_change() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare("Q() :- R1(A), R2(A,B), R3(B)").unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        assert_eq!(svc.live_subscriptions(), 1);

        // The query is satisfied; R1 = {1, 2} is one min cut (cost 2),
        // as is R3. Deleting one R2 tuple keeps the query true: the
        // update carries no transition, but the cut may drift.
        svc.delete_tuples(&[("R2", 1)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!((u.epoch, u.seq), (1, 0));
        assert!(u.outputs_gained.is_empty() && u.outputs_lost.is_empty());

        // Killing the remaining R2 tuples makes the query false: one
        // pseudo row dies and the cut cost falls to 0.
        svc.delete_tuples(&[("R2", 0), ("R2", 2)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!(u.outputs_lost.len(), 1);
        assert!(u.outputs_lost[0].values.is_empty());
        // Drift across both updates must telescope from the seed cost
        // (a min cut of the seeded epoch) down to 0.
        {
            let groups = svc.subscriptions.inner.lock().unwrap();
            let ts = groups
                .values()
                .next()
                .unwrap()
                .targets
                .values()
                .next()
                .unwrap();
            assert_eq!(ts.prev_cost, 0);
            assert!(ts.prev_deletions.is_empty());
        }

        // Restoring one R2 tuple revives the answer: a pseudo row is
        // gained and the cut is live again.
        svc.restore_tuples(&[("R2", 0)]).unwrap();
        let u = rx.try_recv().unwrap();
        assert_eq!(u.outputs_gained.len(), 1);
        assert!(u.outputs_gained[0].values.is_empty());
        assert!(u.cost_drift > 0);
        assert!(!u.deletion_set_churn.added.is_empty());
    }

    #[test]
    fn boolean_subscription_answers_match_fresh_solves() {
        // Differential: after every batch the maintained boolean answer
        // must equal a fresh service solve at the same epoch.
        let svc = Service::new(chain_db());
        let text = "Q() :- R1(A), R2(A,B), R3(B)";
        let stmt = svc.prepare(text).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        let batches: [(&[(&str, u32)], bool); 4] = [
            (&[("R2", 0)], true),
            (&[("R1", 0)], true),
            (&[("R2", 0)], false),
            (&[("R2", 1), ("R2", 2)], true),
        ];
        for (batch, delete) in batches {
            if delete {
                svc.delete_tuples(batch).unwrap();
            } else {
                svc.restore_tuples(batch).unwrap();
            }
            let _ = rx.try_recv().unwrap();
            let fresh = svc.solve(&SolveRequest::outputs(text, 1)).unwrap();
            let groups = svc.subscriptions.inner.lock().unwrap();
            let g = groups.values().next().unwrap();
            let live = matches!(g.state, Maintained::Boolean { live: true });
            let ts = g.targets.values().next().unwrap();
            assert_eq!(u64::from(live), fresh.outcome.output_count);
            assert_eq!(ts.prev_cost, fresh.outcome.cost);
        }
    }
}
