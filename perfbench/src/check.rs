//! The answer oracle applied to a run: every served solve and every push
//! diff against in-process references computed outside the timed span.

use crate::data::{self, Base, Batch, Spec, PUSH_K};
use crate::drive::{SeenAnswers, WriteOut};
use adp_core::solver::AdpOutcome;
use adp_engine::provenance::TupleRef;
use adp_service::{Target, ViewUpdate};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::thread;

/// The `Q_path`, `k = PUSH_K` answer at one epoch.
pub struct EpochRef {
    /// The answer in that epoch's dense coordinates.
    pub outcome: AdpOutcome,
    /// Its deletion set in base coordinates, sorted.
    pub base_solution: Vec<TupleRef>,
}

/// References for a run: one per epoch-0 cell, and one per epoch of the
/// write stream (index = epoch).
pub struct References {
    /// Per cell of the spec.
    pub cells: Vec<AdpOutcome>,
    /// Per epoch `0..=batches`.
    pub epochs: Vec<EpochRef>,
}

/// Computes every reference the spec's run can be checked against, on two
/// threads.
pub fn references(spec: &Spec, base: &Base, stream: &[Batch]) -> References {
    let epoch0 = Arc::new(base.database_without(&BTreeSet::new()));
    let cells = spec
        .cells
        .iter()
        .map(|c| data::reference(c.query, c.target, Arc::clone(&epoch0)))
        .collect();
    let dead = data::deleted_by_epoch(stream);
    let r2_len = base.r2_len();
    let one = |e: usize| {
        let outcome = data::reference(
            0,
            Target::Outputs(PUSH_K),
            Arc::new(base.database_without(&dead[e])),
        );
        let base_solution =
            data::to_base(outcome.solution.as_deref().unwrap_or(&[]), &dead[e], r2_len);
        EpochRef {
            outcome,
            base_solution,
        }
    };
    let epochs: Vec<EpochRef> = thread::scope(|s| {
        let odd = s.spawn(|| (1..dead.len()).step_by(2).map(one).collect::<Vec<_>>());
        let even: Vec<EpochRef> = (0..dead.len()).step_by(2).map(one).collect();
        let odd = odd.join().expect("reference worker");
        let mut all = Vec::with_capacity(dead.len());
        let (mut e, mut o) = (even.into_iter(), odd.into_iter());
        for i in 0..dead.len() {
            all.extend(if i % 2 == 0 { e.next() } else { o.next() });
        }
        all
    });
    References { cells, epochs }
}

/// Checks the epoch-0 answers seen by the read phase and the warm-ups.
pub fn check_cells(seen: &SeenAnswers, refs: &References, problems: &mut Vec<String>) {
    problems.extend(seen.problems.iter().cloned());
    for (i, (first, want)) in seen.first.iter().zip(&refs.cells).enumerate() {
        match first {
            Some(got) if got == want => {}
            Some(got) => problems.push(format!(
                "cell {i}: served cost {} achieved {} != reference cost {} achieved {}",
                got.cost, got.achieved, want.cost, want.achieved
            )),
            None => problems.push(format!("cell {i}: never served")),
        }
    }
}

/// A subscriber's replica, advanced only by pushed diffs.
struct Replica {
    live_rows: HashSet<u32>,
    cost: i64,
    deletions: Vec<TupleRef>,
}

impl Replica {
    fn apply(&mut self, u: &ViewUpdate) -> Result<(), String> {
        for row in &u.outputs_lost {
            if !self.live_rows.remove(&row.id) {
                return Err(format!("lost row {} was not live", row.id));
            }
        }
        for row in &u.outputs_gained {
            if !self.live_rows.insert(row.id) {
                return Err(format!("gained row {} was live", row.id));
            }
        }
        self.cost += u.cost_drift;
        for t in &u.deletion_set_churn.removed {
            let pos = self
                .deletions
                .binary_search(t)
                .map_err(|_| format!("churn removed {t:?} not in the set"))?;
            self.deletions.remove(pos);
        }
        for t in &u.deletion_set_churn.added {
            match self.deletions.binary_search(t) {
                Ok(_) => return Err(format!("churn added {t:?} already in the set")),
                Err(pos) => self.deletions.insert(pos, *t),
            }
        }
        Ok(())
    }
}

/// Checks the write phase: acks, every solve after a batch, every push
/// diff (replayed from the subscription epoch), and the last answer.
pub fn check_writes(out: &WriteOut, refs: &References, problems: &mut Vec<String>) {
    let batches = refs.epochs.len() - 1;
    let want_acks: Vec<u64> = (1..=batches as u64).collect();
    if out.acked != want_acks {
        problems.push(format!(
            "acked epochs {:?}.. do not step by one from 1",
            &out.acked[..out.acked.len().min(4)]
        ));
    }
    for (epoch, got) in &out.solves {
        match refs.epochs.get(*epoch as usize) {
            Some(r) if r.outcome == *got => {}
            Some(r) => problems.push(format!(
                "solve at epoch {epoch}: cost {} != reference {}",
                got.cost, r.outcome.cost
            )),
            None => problems.push(format!("solve at unknown epoch {epoch}")),
        }
    }
    problems.extend(out.lagged.iter().map(|m| format!("push stream: {m}")));
    if out.updates.len() != batches {
        problems.push(format!(
            "{} pushes for {batches} batches",
            out.updates.len()
        ));
    }
    let seed = &refs.epochs[0];
    let mut replica = Replica {
        live_rows: (0..seed.outcome.output_count as u32).collect(),
        cost: seed.outcome.cost as i64,
        deletions: seed.base_solution.clone(),
    };
    for (i, u) in out.updates.iter().enumerate() {
        let epoch = i as u64 + 1;
        if u.epoch != epoch || u.seq != i as u64 || u.lagged.is_some() {
            problems.push(format!(
                "push {i}: epoch {} seq {} lagged {}",
                u.epoch,
                u.seq,
                u.lagged.is_some()
            ));
            break;
        }
        if let Err(e) = replica.apply(u) {
            problems.push(format!("push at epoch {epoch}: {e}"));
            break;
        }
        let r = &refs.epochs[epoch as usize];
        if replica.cost != r.outcome.cost as i64
            || replica.deletions != r.base_solution
            || replica.live_rows.len() as u64 != r.outcome.output_count
        {
            problems.push(format!(
                "push at epoch {epoch}: replica cost {} / {} outputs != fresh solve cost {} / {} outputs",
                replica.cost,
                replica.live_rows.len(),
                r.outcome.cost,
                r.outcome.output_count
            ));
            break;
        }
    }
    match &out.last_answer {
        Some((epoch, got))
            if *epoch as usize == batches && *got == refs.epochs[batches].outcome => {}
        Some((epoch, _)) => problems.push(format!("last answer at epoch {epoch} is wrong")),
        None => problems.push("no last answer".into()),
    }
}
