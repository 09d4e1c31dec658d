//! Push-based subscriptions: the incremental-view-maintenance front
//! door over the delta layer.
//!
//! Every other entry point is pull-based: after an epoch bump a client
//! must re-issue a solve, so N interested clients cost N solves per
//! mutation batch even though the delta layer can absorb the batch in
//! O(Δ). [`Service::subscribe`] inverts the flow — register once, and
//! every effective [`delete_tuples`](Service::delete_tuples) /
//! [`restore_tuples`](Service::restore_tuples) batch pushes a minimal
//! [`ViewUpdate`] describing what the batch did to the watched view:
//!
//! ```text
//! mutation batch ──→ advance the statement's pooled greedy state
//!                    from the old dead set to the new one (O(Δ))
//!                         │
//!                         ├─→ live-transition rows (the SSP weight
//!                         │   rule: emit only on 1→0 / 0→1 crossings)
//!                         ├─→ one pull solve per distinct target at the
//!                         │   new epoch, on the state just advanced
//!                         └─→ fan-out: try_send to every subscriber
//! ```
//!
//! The unit of sharing is the **group**: all subscriptions on the same
//! normalized statement. A group keeps no solver state of its own. It
//! holds the statement's plan record, whose base (epoch-0) plan's pool
//! already keeps the greedy states pull solves run on (the paper's
//! `Q(D − S)`, Definition 1, one state tagged per dead set `S`). A row
//! group moves one of those states to the new dead set once per batch,
//! no matter how many subscribers listen (the
//! `shared_delta_applications` counter pins this), through
//! [`PreparedQuery::advance`]. That call reports
//! the outputs whose last live witness disappeared (or first
//! reappeared), so redundant-witness churn inside a still-live output is
//! silent, exactly the SSP weight-transition rule. It checks the state
//! back in tagged with the new dead set, where the next solve at the new
//! epoch, push or pull, takes it as is.
//!
//! Every group answers its targets through the pull path: the epoch's
//! plan from the statement's plan record, solved in report mode. Row groups
//! force the greedy leaf (Algorithm 6), so a pushed answer is pick for
//! pick the fresh `force_greedy` solve. Boolean (min-cut) statements
//! solve with the service's default options, and a satisfied↔unsatisfied
//! flip emits a single pseudo output row (id 0, empty values).
//! Per-subscriber **projections** ([`SubscribeOptions::with_projection`])
//! thin delivered rows to the requested head columns before enqueue.
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
//! * **No plan of its own.** The group holds the statement's plan
//!   record by `Arc`, as a statement does, so registry eviction never
//!   takes it away, and the epoch plans it answers through are the ones
//!   pull solves of the statement bind.
//! * **Drop-aware cleanup.** Dropping a [`Receiver`] unsubscribes
//!   implicitly at the next batch; [`Service::unsubscribe`] does it
//!   eagerly. An empty group releases its hold on the record.
//!
//! Updates also track the subscription's removal **target**: each
//! distinct target in a group is solved once per batch, and the update
//! reports the cost drift and the deletion-set churn relative to the
//! previous epoch. The `subscription_differential` suite replays pushed
//! updates from the subscription point, with pull solves on the same
//! statement in between, and demands byte-identity with fresh solves at
//! every epoch.

use crate::error::ServiceError;
use crate::plans::QueryPlans;
use crate::request::Target;
use crate::statement::Statement;
use crate::stats::StatsInner;
use crate::{EpochState, Service};
use adp_core::query::Query;
use adp_core::solver::{AdpOptions, DeadSet, Mode, PreparedQuery};
use adp_engine::provenance::TupleRef;
use adp_engine::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

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

/// All subscriptions on one normalized statement: the statement's plan
/// record, the view's size at the last pushed epoch, one remembered
/// answer per distinct target, and the subscribers.
struct Group {
    /// The statement's plan record, held as a statement holds it. The
    /// group answers through its epoch plans, and a row group advances
    /// its base plan's idle greedy state once per batch; the base's root
    /// evaluation names the transition rows.
    plans: Arc<QueryPlans>,
    /// `|Q(D − S)|` at the last pushed epoch: 0 or 1 for a boolean
    /// statement, whose flips between them are its only row transitions.
    live: u64,
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

/// One target's answer through the pull path: `prep` solved for `k`
/// (already resolved against the live count; 0 is trivially free),
/// with the deletion set mapped from the epoch's dense indices to
/// base stable ids, sorted, so churn stays comparable across epochs.
fn answer(
    prep: &PreparedQuery,
    k: u64,
    opts: &AdpOptions,
) -> Result<(u64, Vec<TupleRef>), ServiceError> {
    if k == 0 {
        return Ok((0, Vec::new()));
    }
    let outcome = prep.solve(k, opts).map_err(ServiceError::Solve)?;
    let (db, rels) = (prep.database(), prep.plan().rels());
    let mut deletions: Vec<TupleRef> = outcome
        .solution
        .unwrap_or_default()
        .into_iter()
        .map(|t| {
            let rel = db.relation_by_id(rels[t.atom]);
            TupleRef::new(t.atom, rel.stable_id_at(t.index))
        })
        .collect();
    deletions.sort_unstable();
    Ok((outcome.cost, deletions))
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
    /// statement share one O(Δ) advance of the statement's greedy state
    /// per batch, and one solve per distinct target; a new target costs
    /// one seed solve at the current epoch.
    ///
    /// Boolean statements are watchable too: their targets are answered
    /// by the min-cut solver at each new epoch, and a flip between
    /// satisfied and unsatisfied emits a single pseudo output row (id 0,
    /// empty values).
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
        // Hold the mutation lock so the group is built and seeded at a
        // settled epoch: no batch can install (and notify) between the
        // seed below and the registration becoming visible.
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let _writer = self.mutation.lock().unwrap();
        // adp-lint: allow(panic-path) -- same poisoning rationale.
        let mut groups = self.subscriptions.inner.lock().unwrap();
        let current = self.current();
        let key = stmt.normalized_text();
        if !groups.contains_key(key) {
            let group = Self::build_group(stmt, &current)?;
            groups.insert(key.to_string(), group);
        }
        // adp-lint: allow(panic-path) -- the branch above inserted the
        // key if it was absent; the map holds it here.
        let group = groups.get_mut(key).expect("just inserted");
        let tkey = TargetKey::of(target);
        if !group.targets.contains_key(&tkey) {
            // Seed the target's answer at the current epoch so the
            // first update's drift is relative to subscription time.
            let (prep, _) = group.plans.plan_at(&current);
            let k = target.resolve(group.live);
            match answer(&prep, k, &self.push_opts(group.plans.query())) {
                Ok((prev_cost, prev_deletions)) => {
                    let seeded = TargetState {
                        target,
                        prev_cost,
                        prev_deletions,
                    };
                    group.targets.insert(tkey, seeded);
                }
                Err(e) => {
                    if group.subs.is_empty() {
                        groups.remove(key);
                    }
                    return Err(e);
                }
            }
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
    /// the last subscriber on a statement releases the group and its
    /// hold on the plan record.
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

    /// Builds the group for a statement at the epoch of `at`: the
    /// statement's plan record and the view's current size. A row group
    /// checks a greedy state in at the current dead set, which also
    /// surfaces a state that cannot be built as an error here rather
    /// than at the first batch. Caller holds the mutation lock.
    fn build_group(stmt: &Statement<'_>, at: &EpochState) -> Result<Group, ServiceError> {
        let plans = Arc::clone(stmt.plans());
        let live = if plans.query().is_boolean() {
            plans.plan_at(at).0.output_count()
        } else {
            plans
                .base()
                .advance(&at.deleted, &at.deleted)
                .map_err(|e| ServiceError::Solve(e.into()))?
                .live_outputs
        };
        Ok(Group {
            plans,
            live,
            targets: HashMap::new(),
            subs: Vec::new(),
        })
    }

    /// The options a group answers its targets with. Row groups force
    /// the greedy leaf, sequentially and without a deadline, so every
    /// push is the fresh `force_greedy` answer; boolean groups use the
    /// service's defaults, which reach the min-cut solver. Both report
    /// their deletion sets.
    fn push_opts(&self, query: &Query) -> AdpOptions {
        let mut opts = if query.is_boolean() {
            self.config.default_opts.clone()
        } else {
            AdpOptions {
                force_greedy: true,
                sequential: true,
                ..Default::default()
            }
        };
        opts.mode = Mode::Report;
        opts
    }

    /// Moves `group` from the dead set `prev` to `next` (the epoch `prep`
    /// is planned at) and returns the rows that `(came back, died)`.
    fn advance_group(
        &self,
        group: &mut Group,
        prep: &PreparedQuery,
        prev: &Arc<DeadSet>,
        next: &Arc<DeadSet>,
    ) -> (Vec<OutputRow>, Vec<OutputRow>) {
        if group.plans.query().is_boolean() {
            let was = group.live > 0;
            group.live = prep.output_count();
            let pseudo = || {
                vec![OutputRow {
                    id: 0,
                    values: Box::default(),
                }]
            };
            return match (was, group.live > 0) {
                (false, true) => (pseudo(), Vec::new()),
                (true, false) => (Vec::new(), pseudo()),
                _ => (Vec::new(), Vec::new()),
            };
        }
        // The group was built by a successful advance, and the plan
        // caches whether its scored state can be built, so this cannot
        // fail; were it to, the rows would be lost but not the seq.
        let Ok(moved) = group.plans.base().advance(prev, next) else {
            return (Vec::new(), Vec::new());
        };
        StatsInner::bump(&self.stats.shared_delta_applications);
        group.live = moved.live_outputs;
        let eval = group.plans.base().eval();
        let rows = |ids: &[u32]| -> Vec<OutputRow> {
            ids.iter()
                .map(|&id| OutputRow {
                    id,
                    values: eval.output(id as usize).into(),
                })
                .collect()
        };
        (rows(&moved.revived), rows(&moved.died))
    }

    /// The fan-out half of every effective mutation batch. Called by
    /// `apply_batch` with the mutation lock held, after the epoch whose
    /// dead set is `next` is installed: advances each group from `prev`
    /// to `next` once, answers each distinct target through the pull
    /// path, and `try_send`s per-subscriber updates — never blocking,
    /// dropping to [`Lagged`] accounting when a buffer is full.
    pub(crate) fn notify_subscribers(&self, epoch: u64, prev: &Arc<DeadSet>, next: &Arc<DeadSet>) {
        // adp-lint: allow(panic-path) -- lock poisoning requires a prior
        // panic while holding the lock; holders run no user code, and
        // propagating the original crash beats serving torn state.
        let mut groups = self.subscriptions.inner.lock().unwrap();
        if groups.is_empty() {
            return;
        }
        let current = self.current();
        let mut reaped = 0u64;
        for group in groups.values_mut() {
            let (prep, _) = group.plans.plan_at(&current);
            let (gained, lost) = self.advance_group(group, &prep, prev, next);

            // One solve per distinct resolved k, shared by every target
            // and subscriber that asks for it. A solver-side failure (an
            // over-budget flow solve under a custom `default_opts`
            // deadline) degrades to "answer unknown, carry the previous
            // one": the update still delivers its gapless seq with zero
            // drift, and the next successful solve reports the
            // accumulated movement.
            let opts = self.push_opts(group.plans.query());
            let mut by_k: BTreeMap<u64, Option<(u64, Vec<TupleRef>)>> = BTreeMap::new();
            let mut answers: HashMap<TargetKey, (i64, DeletionChurn)> = HashMap::new();
            for (tkey, st) in group.targets.iter_mut() {
                let k = st.target.resolve(group.live);
                let solved = by_k
                    .entry(k)
                    .or_insert_with(|| answer(&prep, k, &opts).ok());
                let (cost, deletions) = solved
                    .clone()
                    .unwrap_or_else(|| (st.prev_cost, st.prev_deletions.clone()));
                let drift = cost as i64 - st.prev_cost as i64;
                let moved = churn(&st.prev_deletions, &deletions);
                st.prev_cost = cost;
                st.prev_deletions = deletions;
                answers.insert(*tkey, (drift, moved));
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

    /// A subscription group holds the statement's own plan record, adds
    /// no plan of its own, and answers through the same epoch plans a
    /// pull solve uses.
    #[test]
    fn subscription_groups_share_the_statements_base_plan() {
        let svc = Service::new(chain_db());
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        assert_eq!(svc.cached_plans(), 1, "the epoch-0 plan only");
        let group_plan = {
            let groups = svc.subscriptions.inner.lock().unwrap();
            let plans = &groups[stmt.normalized_text()].plans;
            assert!(Arc::ptr_eq(plans, stmt.plans()), "one record per query");
            Arc::clone(plans.base())
        };
        let solved = svc.solve(&SolveRequest::outputs(Q, 1)).unwrap();
        assert!(solved.stats.cache_hit);
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(rx.try_recv().unwrap().outputs_lost.len(), 1);
        assert_eq!(
            svc.cached_plans(),
            1,
            "epoch 0 invalidated, the push cached epoch 1"
        );
        let pulled = stmt.solve(Target::Outputs(1)).unwrap();
        assert!(
            pulled.stats.cache_hit,
            "the pull solve shares the push's plan"
        );
        let (epoch, prep) = stmt.plans().bound();
        assert_eq!(epoch, 1, "epoch 1 is bound");
        assert!(Arc::ptr_eq(prep.unwrap().anchor().unwrap(), &group_plan));
    }

    /// A reader still holding the previous epoch's plan after a push
    /// advanced the shared state must still get that epoch's answer: the
    /// push checks the state in under the new dead set, never the old.
    /// The subscriber watches rows only (`k = 0`), so no target solve
    /// runs between the advance and the reader.
    #[test]
    fn a_reader_at_the_previous_epoch_is_not_served_the_pushed_state() {
        use adp_core::solver::AdpOptions;
        // An 8 × 8 grid: 64 witnesses, and one pick kills at most 8, so
        // small solves check their states back into the pool.
        let r1: Vec<[u64; 1]> = (0..8).map(|a| [a]).collect();
        let r2: Vec<[u64; 2]> = (0..64).map(|i| [i % 8, i / 8]).collect();
        let mut db = Database::new();
        db.add_relation(
            "R1",
            attrs(&["A"]),
            &r1.iter().map(|t| &t[..]).collect::<Vec<_>>(),
        );
        db.add_relation(
            "R2",
            attrs(&["A", "B"]),
            &r2.iter().map(|t| &t[..]).collect::<Vec<_>>(),
        );
        db.add_relation(
            "R3",
            attrs(&["B"]),
            &r1.iter().map(|t| &t[..]).collect::<Vec<_>>(),
        );
        let svc = Service::new(db);
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(0), SubscribeOptions::default())
            .unwrap();
        let greedy = AdpOptions {
            force_greedy: true,
            ..Default::default()
        };
        let batches: [(&[(&str, u32)], bool); 4] = [
            (&[("R1", 0)], true),
            (&[("R3", 2), ("R2", 9)], true),
            (&[("R1", 0)], false),
            (&[("R1", 1), ("R3", 2)], true),
        ];
        for (batch, delete) in batches {
            stmt.solve(Target::Outputs(1)).unwrap();
            let (epoch, snap) = svc.snapshot();
            let (bound_at, old) = stmt.plans().bound();
            assert_eq!(bound_at, epoch, "the statement bound its epoch");
            let old = old.unwrap();
            if delete {
                svc.delete_tuples(batch).unwrap();
            } else {
                svc.restore_tuples(batch).unwrap();
            }
            rx.try_recv().unwrap();
            let fresh = PreparedQuery::new(old.query().clone(), snap);
            for k in [1, 2, 5] {
                assert_eq!(
                    old.solve(k, &greedy).unwrap(),
                    fresh.solve(k, &greedy).unwrap(),
                    "epoch {epoch}, k={k}"
                );
            }
        }
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
    fn rows_stay_correct_after_cache_eviction() {
        // 1-record registry: other traffic adds records past capacity and
        // evicts them, never the record the group and statement hold.
        let svc = Service::with_config(
            chain_db(),
            ServiceConfig {
                cache_entries: 1,
                ..Default::default()
            },
        );
        let stmt = svc.prepare(Q).unwrap();
        let (_id, rx) = svc
            .subscribe(&stmt, Target::Outputs(1), SubscribeOptions::default())
            .unwrap();
        svc.delete_tuples(&[("R2", 0)]).unwrap();
        assert_eq!(rx.try_recv().unwrap().outputs_lost.len(), 1);
        // Unrelated traffic fills the 1-record registry past capacity…
        for q in ["Q(A) :- R1(A)", "Q(B) :- R3(B)"] {
            svc.solve(&SolveRequest::outputs(q, 1)).unwrap();
        }
        assert_eq!(svc.stats().evicted, 1, "the R1 record, not the held one");
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
            let ts = g.targets.values().next().unwrap();
            assert_eq!(g.live, fresh.outcome.output_count);
            assert_eq!(ts.prev_cost, fresh.outcome.cost);
        }
    }
}
