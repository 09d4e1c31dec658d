//! Incremental delta maintenance of witnesses, outputs, and scores.
//!
//! Every ADP algorithm reads the same fact about `Q(D)`: which input
//! tuples each witness uses. [`DeltaProvenance`] is the one incidence
//! the solvers build over an evaluation, and it keeps the state derived
//! from it **live** across deletions, updating it in time proportional
//! to the witnesses actually affected by a batch:
//!
//! * witness liveness, via a per-witness *dead-tuple refcount*, so
//!   deletions can be **undone** ([`restore_batch`](DeltaProvenance::restore_batch)),
//!   which is what solver backtracking and streaming re-insertions need;
//! * per-output live-witness counts and the global `|Q(D − S)|`;
//! * the *profit* of every tuple (sole killers per output, maintained
//!   through a cached per-output agreement vector) and its *live count*
//!   — the two scores every greedy round reads;
//! * optionally ([`enable_selection`](DeltaProvenance::enable_selection))
//!   two lazy max-heaps over the scores, so the greedy argmax — under
//!   the same `(score, Reverse((atom, idx)))` total order as a rescan
//!   of the [`ProvenanceIndex`](crate::provenance::ProvenanceIndex)
//!   reference — is an `O(1)` peek instead of a scan.
//!
//! [`killed_by_set`](DeltaProvenance::killed_by_set) answers what a
//! whole deletion set would remove on top of the current state without
//! mutating it: deletion-set verification and brute-force probes read
//! it from a pristine state.
//!
//! Tuple indices are dense per relation, so everything keyed by a tuple
//! is a flat array indexed by it: the inverse postings are one CSR per
//! atom (offsets plus witness ids, built by counting sort) and the two
//! scores are one `u32` per tuple. Each atom's arrays cover its largest
//! participating index; a tuple past that joins no witness, has empty
//! postings and scores 0.
//!
//! The heaps hold upper bounds, not exact scores: a decrease only
//! writes the array, and every batch ends by pushing one entry, at its
//! final score, per tuple whose score rose in the batch, then popping
//! the stale entries off the top (re-pushing the current score where it
//! is still positive). The invariant is that
//! every selectable tuple with score `s > 0` has an entry `≥ s`, so a
//! top entry that matches its tuple's current score is the exact
//! maximum. A heap that grows past twice its atoms' tuple slots is
//! rebuilt from the arrays.
//!
//! A deletion batch of Δ tuples costs `O(Σ_{w affected} p + Σ_{o
//! touched} |witnesses(o)| · p)` plus logarithmic heap pushes and pops:
//! `O(Δ)` in the affected incidence, independent of `|Q(D)|`.
//!
//! The state splits in two. The *incidence* never changes after
//! construction and is shared by `Arc`. Which tuples each witness joins,
//! which output it supports and each output's witnesses are the
//! [`EvalResult`]'s own flat arrays, held by reference count and never
//! copied; only the inverse postings are built here. Cloning a
//! [`DeltaProvenance`] copies only the per-state scores, heaps and
//! liveness (flat vectors, no per-witness allocation), so a solver can
//! keep several independent states over one evaluation cheaply.
//!
//! The initial scoring pass is the one full scan the structure ever
//! pays. [`try_new_on`](DeltaProvenance::try_new_on) fans it out over a
//! thread pool in contiguous output ranges: each output contributes its
//! scores independently, so the summed ranges equal one sequential pass.
//!
//! Every maintained quantity is differentially testable against the
//! masked full re-evaluation oracle
//! ([`QueryPlan::execute_masked`](crate::plan::QueryPlan::execute_masked));
//! the workspace proptest suite does exactly that after every batch.

use crate::error::AdpError;
use crate::join::{Csr, EvalResult};
use crate::provenance::TupleRef;
use adp_runtime::ThreadPool;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Heap entry ordered like the greedy pick: highest score first, then
/// smallest `(atom, idx)`. The score is an upper bound on the tuple's
/// current one (see the module docs).
type Entry = (u32, Reverse<(u32, u32)>);

/// A heap holding more than this many entries per selectable tuple slot
/// is rebuilt from the score arrays when its batch settles.
const HEAP_SLACK: usize = 2;

/// Lazy max-heaps over the maintained scores, restricted to the atoms a
/// solver may delete from.
#[derive(Clone, Debug)]
struct Selector {
    selectable: Vec<bool>,
    /// Tuple slots of the selectable atoms: the heaps' rebuild bound is
    /// `HEAP_SLACK` times this.
    slots: usize,
    by_profit: LazyHeap,
    by_count: LazyHeap,
}

/// One score's lazy max-heap.
#[derive(Clone, Debug)]
struct LazyHeap {
    entries: BinaryHeap<Entry>,
    /// Selectable `(atom, idx)` whose score rose in the current batch;
    /// each gets one entry, at its final score, when the batch settles.
    /// Empty between batches.
    raised: Vec<(u32, u32)>,
}

/// Partial scores over one output range, produced by
/// [`DeltaProvenance::score_range`] and summed by
/// [`DeltaProvenance::install_scores`]. Contributions are additive
/// across any partition of `0..output_slots()`.
#[derive(Clone, Debug, Default)]
struct RangeScores {
    /// First output of the range.
    lo: usize,
    profits: Vec<Vec<u32>>,
    counts: Vec<Vec<u32>>,
    /// Agreement vectors of the range's outputs, `atom_count()` slots
    /// each (all `None` for dead outputs).
    agreed: Vec<Option<u32>>,
}

/// The immutable incidence of one evaluation, shared by every state
/// cloned from the same build.
#[derive(Debug)]
struct Incidence {
    /// The evaluation: witness tuples, witness → output and output →
    /// witnesses, shared with every other holder of it.
    eval: EvalResult,
    /// Per atom: tuple index → the witnesses containing it, ascending.
    /// Each covers the atom's largest participating index.
    postings: Vec<Csr>,
}

impl Incidence {
    /// Writes the per-atom sole killers of `out` — the tuple all its
    /// live witnesses agree on, if any — into `dst`. All `None` when no
    /// witness is alive.
    fn agreement_into(&self, witness_dead: &[u32], out: usize, dst: &mut [Option<u32>]) {
        let mut any = false;
        for &w in self.eval.witnesses_of(out) {
            let w = w as usize;
            if witness_dead[w] != 0 {
                continue;
            }
            let tuples = self.eval.witness(w);
            if any {
                for (slot, &t) in dst.iter_mut().zip(tuples) {
                    if *slot != Some(t) {
                        *slot = None;
                    }
                }
            } else {
                for (slot, &t) in dst.iter_mut().zip(tuples) {
                    *slot = Some(t);
                }
                any = true;
            }
        }
        if !any {
            dst.fill(None);
        }
    }

    /// One zeroed score per covered tuple slot, per atom.
    fn zero_scores(&self) -> Vec<Vec<u32>> {
        self.postings.iter().map(|p| vec![0; p.lists()]).collect()
    }
}

/// Adds `src` into `dst` slot by slot.
fn add_scores(dst: &mut [Vec<u32>], src: &[Vec<u32>]) {
    for (d, s) in dst.iter_mut().zip(src) {
        for (a, b) in d.iter_mut().zip(s) {
            *a += b;
        }
    }
}

/// The non-zero scores of `scores` as per-atom maps.
fn score_maps(scores: &[Vec<u32>]) -> Vec<HashMap<u32, u64>> {
    scores
        .iter()
        .map(|atom| {
            atom.iter()
                .zip(0u32..)
                .filter(|&(&s, _)| s > 0)
                .map(|(&s, i)| (i, u64::from(s)))
                .collect()
        })
        .collect()
}

/// Incidence structure over an [`EvalResult`] with **incremental**
/// deletion/re-insertion semantics and live-maintained scores. Clones
/// share the immutable incidence and copy only the mutable state.
#[derive(Clone, Debug)]
pub struct DeltaProvenance {
    inc: Arc<Incidence>,
    /// witness → number of its input tuples currently deleted. Alive
    /// iff 0; the refcount is what makes deletion reversible.
    witness_dead: Vec<u32>,
    /// output → live witness count.
    output_live: Vec<u32>,
    /// per atom: currently deleted tuple indices (including tuples on
    /// no witness, so delete/restore stay symmetric).
    deleted: Vec<HashSet<u32>>,
    live_outputs: u64,
    live_witnesses: u64,
    /// per atom: tuple index → profit (sole killers). The non-zero
    /// entries are `ProvenanceIndex::profits()` at every deletion state.
    profits: Vec<Vec<u32>>,
    /// per atom: tuple index → live witnesses containing it. The
    /// non-zero entries are `ProvenanceIndex::live_counts()` at every
    /// deletion state.
    counts: Vec<Vec<u32>>,
    /// output → cached agreement vector (its current profit
    /// contribution), `n_atoms` slots per output; all `None` for dead
    /// outputs.
    agreed: Vec<Option<u32>>,
    scored: bool,
    selector: Option<Selector>,
}

impl DeltaProvenance {
    /// Builds the index and scores it sequentially. Fails with
    /// [`AdpError::TooManyWitnesses`] instead of truncating witness ids.
    pub fn try_new(result: &EvalResult) -> Result<Self, AdpError> {
        Self::try_new_with_cap(result, u32::MAX as u64)
    }

    /// [`try_new`](Self::try_new) with an injected witness-id cap, for
    /// testing the overflow guard without materializing 4B witnesses.
    /// Caps above `u32::MAX` act as `u32::MAX`: witness ids and scores
    /// are `u32`.
    pub fn try_new_with_cap(result: &EvalResult, cap: u64) -> Result<Self, AdpError> {
        let mut d = Self::new_unscored(result, cap)?;
        let scores = d.score_range(0, d.output_slots());
        d.install_scores(vec![scores]);
        Ok(d)
    }

    /// [`try_new`](Self::try_new), with the scoring pass fanned out over
    /// `pool` in contiguous output ranges (two per worker). Disjoint
    /// ranges contribute additively, so the installed scores equal the
    /// sequential build's for every worker count.
    pub fn try_new_on(result: &EvalResult, pool: &ThreadPool) -> Result<Self, AdpError> {
        let mut d = Self::new_unscored(result, u32::MAX as u64)?;
        let slots = d.output_slots();
        let parts = if pool.threads() > 1 && slots > 1 {
            let chunk = slots.div_ceil(pool.threads() * 2);
            pool.par_indexed(slots.div_ceil(chunk), |i| {
                d.score_range(i * chunk, ((i + 1) * chunk).min(slots))
            })
        } else {
            vec![d.score_range(0, slots)]
        };
        d.install_scores(parts);
        Ok(d)
    }

    /// Builds the incidence structure without the initial scoring pass;
    /// mutation is rejected until [`install_scores`](Self::install_scores)
    /// ran.
    fn new_unscored(result: &EvalResult, cap: u64) -> Result<Self, AdpError> {
        let witnesses = result.witness_count();
        let cap = cap.min(u32::MAX as u64);
        if witnesses > cap {
            return Err(AdpError::TooManyWitnesses { witnesses, cap });
        }
        let n_atoms = result.atom_count();
        // Inverse postings: each atom's column of witness tuples, grouped
        // by tuple index.
        let postings = (0..n_atoms)
            .map(|atom| Csr::group(result.column(atom)))
            .collect();
        let inc = Incidence {
            eval: result.clone(),
            postings,
        };
        let outputs = inc.eval.output_count() as usize;
        Ok(DeltaProvenance {
            witness_dead: vec![0; witnesses as usize],
            output_live: (0..outputs)
                // adp-lint: allow(truncating-cast) -- per-output witness
                // lists are subsets of the cap-checked witness set.
                .map(|o| result.witnesses_of(o).len() as u32)
                .collect(),
            deleted: vec![HashSet::new(); n_atoms],
            live_outputs: outputs as u64,
            live_witnesses: witnesses,
            profits: inc.zero_scores(),
            counts: inc.zero_scores(),
            agreed: vec![None; outputs * n_atoms],
            scored: false,
            selector: None,
            inc: Arc::new(inc),
        })
    }

    /// The evaluation this state was built over; it shares, not copies,
    /// its arrays ([`EvalResult::shares_storage`]).
    pub fn eval(&self) -> &EvalResult {
        &self.inc.eval
    }

    /// Number of atoms in the underlying query.
    pub fn atom_count(&self) -> usize {
        self.inc.eval.atom_count()
    }

    /// Output slots (live or dead), `|Q(D)|`.
    pub fn output_slots(&self) -> usize {
        self.output_live.len()
    }

    /// Witness slots (live or dead).
    pub fn witness_slots(&self) -> usize {
        self.witness_dead.len()
    }

    /// Outputs still alive: `|Q(D − S)|` for the current deletion set.
    pub fn live_outputs(&self) -> u64 {
        self.live_outputs
    }

    /// Witnesses still alive.
    pub fn live_witnesses(&self) -> u64 {
        self.live_witnesses
    }

    /// `|Q(D)|` before any deletion.
    pub fn total_outputs(&self) -> u64 {
        self.output_slots() as u64
    }

    /// Outputs removed by the current deletion set.
    pub fn removed_outputs(&self) -> u64 {
        self.total_outputs() - self.live_outputs
    }

    /// Is the tuple currently deleted?
    pub fn is_deleted(&self, t: TupleRef) -> bool {
        self.deleted[t.atom].contains(&t.index)
    }

    /// Witnesses (dead or alive) the tuple joins: the work a
    /// [`delete`](Self::delete) or [`restore`](Self::restore) of it
    /// costs.
    pub fn witness_degree(&self, t: TupleRef) -> usize {
        self.inc.postings[t.atom].of(t.index as usize).len()
    }

    /// How many live outputs would die if every tuple of `set` were
    /// deleted on top of the current state, without mutating it:
    /// `|Q(D − S)| − |Q(D − S − set)|` for the current deletion set `S`.
    /// Costs the postings of `set`, not a pass over the witnesses.
    pub fn killed_by_set(&self, set: &[TupleRef]) -> u64 {
        let mut newly_dead: Vec<u32> = set
            .iter()
            .flat_map(|t| self.inc.postings[t.atom].of(t.index as usize))
            .copied()
            .filter(|&w| self.witness_dead[w as usize] == 0)
            .collect();
        newly_dead.sort_unstable();
        newly_dead.dedup();
        let mut outputs: Vec<u32> = newly_dead
            .iter()
            .map(|&w| self.inc.eval.output_of(w as usize))
            .collect();
        outputs.sort_unstable();
        // An output dies iff the set kills every one of its live witnesses.
        outputs
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() == self.output_live[run[0] as usize] as usize)
            .count() as u64
    }

    /// Computes profit/count/agreement contributions of the outputs in
    /// `lo..hi` under the **current** witness liveness. Pure; disjoint
    /// ranges may be scored from multiple threads and summed with
    /// [`install_scores`](Self::install_scores).
    fn score_range(&self, lo: usize, hi: usize) -> RangeScores {
        let n = self.atom_count();
        let mut scores = RangeScores {
            lo,
            profits: self.inc.zero_scores(),
            counts: self.inc.zero_scores(),
            agreed: vec![None; (hi - lo) * n],
        };
        for out in lo..hi {
            if self.output_live[out] == 0 {
                continue;
            }
            // Every witness belongs to exactly one output, so per-output
            // iteration partitions the witness set too.
            for &w in self.inc.eval.witnesses_of(out) {
                if self.witness_dead[w as usize] != 0 {
                    continue;
                }
                for (counts, &t) in scores
                    .counts
                    .iter_mut()
                    .zip(self.inc.eval.witness(w as usize))
                {
                    counts[t as usize] += 1;
                }
            }
            let slot = &mut scores.agreed[(out - lo) * n..(out - lo + 1) * n];
            self.inc.agreement_into(&self.witness_dead, out, slot);
            for (profits, t) in scores.profits.iter_mut().zip(slot.iter()) {
                if let Some(t) = t {
                    profits[*t as usize] += 1;
                }
            }
        }
        scores
    }

    /// Installs the summed scores of a full partition of
    /// `0..output_slots()`. Must be called exactly once, before any
    /// mutation or selection.
    fn install_scores(&mut self, parts: Vec<RangeScores>) {
        assert!(!self.scored, "scores already installed");
        assert!(self.selector.is_none());
        let n = self.atom_count();
        for part in parts {
            add_scores(&mut self.profits, &part.profits);
            add_scores(&mut self.counts, &part.counts);
            let at = part.lo * n;
            self.agreed[at..at + part.agreed.len()].copy_from_slice(&part.agreed);
        }
        self.scored = true;
    }

    /// The tuple's profit: how many live outputs its deletion alone
    /// would remove (`ProvenanceIndex::profits()` at the current
    /// deletion state, 0 where that map has no entry).
    pub fn profit(&self, t: TupleRef) -> u64 {
        assert!(self.scored, "scores not installed");
        self.profits[t.atom]
            .get(t.index as usize)
            .map_or(0, |&p| u64::from(p))
    }

    /// The live witnesses containing the tuple
    /// (`ProvenanceIndex::live_counts()` at the current deletion state,
    /// 0 where that map has no entry).
    pub fn live_count(&self, t: TupleRef) -> u64 {
        assert!(self.scored, "scores not installed");
        self.counts[t.atom]
            .get(t.index as usize)
            .map_or(0, |&c| u64::from(c))
    }

    /// The profit maps (`ProvenanceIndex::profits()` at the current
    /// deletion state), one per atom. No zero entries. Builds the maps:
    /// a round reads [`profit`](Self::profit) instead.
    pub fn profits(&self) -> Vec<HashMap<u32, u64>> {
        assert!(self.scored, "scores not installed");
        score_maps(&self.profits)
    }

    /// The live-count maps (`ProvenanceIndex::live_counts()` at the
    /// current deletion state), one per atom. No zero entries. Builds
    /// the maps: a round reads [`live_count`](Self::live_count) instead.
    pub fn live_counts(&self) -> Vec<HashMap<u32, u64>> {
        assert!(self.scored, "scores not installed");
        score_maps(&self.counts)
    }

    /// Builds the selector heaps over the atoms in `selectable`, turning
    /// [`best_profit_candidate`](Self::best_profit_candidate) /
    /// [`best_count_candidate`](Self::best_count_candidate) into `O(1)`
    /// peeks that stay current across batches.
    pub fn enable_selection(&mut self, selectable: Vec<bool>) {
        assert!(self.scored, "scores not installed");
        assert_eq!(selectable.len(), self.atom_count());
        let slots = (self.inc.postings.iter().zip(&selectable))
            .filter(|&(_, &s)| s)
            .map(|(p, _)| p.lists())
            .sum();
        self.selector = Some(Selector {
            by_profit: LazyHeap::exact(&self.profits, &selectable),
            by_count: LazyHeap::exact(&self.counts, &selectable),
            selectable,
            slots,
        });
    }

    /// Entries held by the larger selector heap and the bound past which
    /// a settling batch rebuilds a heap; `None` before
    /// [`enable_selection`](Self::enable_selection). Between batches the
    /// entries never exceed the bound.
    pub fn selection_load(&self) -> Option<(usize, usize)> {
        self.selector.as_ref().map(|sel| {
            (
                sel.by_profit.entries.len().max(sel.by_count.entries.len()),
                HEAP_SLACK * sel.slots,
            )
        })
    }

    /// The selectable tuple with the highest profit, ties broken toward
    /// the smallest `(atom, idx)` — exactly the full-scan greedy pick.
    pub fn best_profit_candidate(&self) -> Option<(u64, usize, u32)> {
        // adp-lint: allow(panic-path) -- documented precondition: callers
        // enable selection first; misuse is a programming error.
        let sel = self.selector.as_ref().expect("selection not enabled");
        top(&sel.by_profit.entries)
    }

    /// The selectable tuple on the most live witnesses (the greedy
    /// tie-breaker round), same total order.
    pub fn best_count_candidate(&self) -> Option<(u64, usize, u32)> {
        // adp-lint: allow(panic-path) -- documented precondition: callers
        // enable selection first; misuse is a programming error.
        let sel = self.selector.as_ref().expect("selection not enabled");
        top(&sel.by_count.entries)
    }

    /// Deletes one tuple. Returns the number of outputs that died.
    pub fn delete(&mut self, t: TupleRef) -> u64 {
        self.delete_batch(&[t])
    }

    /// Restores one tuple. Returns the number of outputs revived.
    pub fn restore(&mut self, t: TupleRef) -> u64 {
        self.restore_batch(&[t])
    }

    /// Deletes a batch of tuples (already-deleted members are ignored).
    /// Returns the number of outputs that died. Cost is proportional to
    /// the affected witnesses, not to `|Q(D)|`.
    pub fn delete_batch(&mut self, batch: &[TupleRef]) -> u64 {
        self.delete_batch_sink(batch, None)
    }

    /// [`delete_batch`](Self::delete_batch), additionally reporting
    /// *which* outputs died: the ids whose live-witness count crossed
    /// 1→0 during this batch, sorted ascending. An output appears at
    /// most once (liveness only decreases within a deletion batch).
    /// This is the transition set an incremental-view subscriber needs:
    /// outputs merely losing redundant witnesses are not reported.
    pub fn delete_batch_transitions(&mut self, batch: &[TupleRef]) -> Vec<u32> {
        let mut died = Vec::new();
        self.delete_batch_sink(batch, Some(&mut died));
        died.sort_unstable();
        died
    }

    fn delete_batch_sink(&mut self, batch: &[TupleRef], mut sink: Option<&mut Vec<u32>>) -> u64 {
        assert!(self.scored, "scores not installed");
        let inc = Arc::clone(&self.inc);
        let mut touched: Vec<u32> = Vec::new();
        let mut died = 0u64;
        for &t in batch {
            if !self.deleted[t.atom].insert(t.index) {
                continue;
            }
            for &w in inc.postings[t.atom].of(t.index as usize) {
                let wd = &mut self.witness_dead[w as usize];
                *wd += 1;
                if *wd != 1 {
                    continue; // was already dead through another tuple
                }
                self.live_witnesses -= 1;
                for (counts, &tt) in self.counts.iter_mut().zip(inc.eval.witness(w as usize)) {
                    let c = &mut counts[tt as usize];
                    // adp-lint: allow(panic-path) -- incidence-structure
                    // invariant: a count is only subtracted where it was
                    // added; a miss means the index is corrupt.
                    *c = c.checked_sub(1).expect("count underflow");
                }
                let out = inc.eval.output_of(w as usize);
                let live = &mut self.output_live[out as usize];
                *live -= 1;
                if *live == 0 {
                    self.live_outputs -= 1;
                    died += 1;
                    if let Some(s) = sink.as_deref_mut() {
                        s.push(out);
                    }
                }
                touched.push(out);
            }
        }
        self.rescore_touched(&inc, touched);
        died
    }

    /// Restores a batch of tuples (members not currently deleted are
    /// ignored). Returns the number of outputs revived.
    pub fn restore_batch(&mut self, batch: &[TupleRef]) -> u64 {
        self.restore_batch_sink(batch, None)
    }

    /// [`restore_batch`](Self::restore_batch), additionally reporting
    /// *which* outputs revived: the ids whose live-witness count crossed
    /// 0→1 during this batch, sorted ascending — the mirror of
    /// [`delete_batch_transitions`](Self::delete_batch_transitions).
    pub fn restore_batch_transitions(&mut self, batch: &[TupleRef]) -> Vec<u32> {
        let mut revived = Vec::new();
        self.restore_batch_sink(batch, Some(&mut revived));
        revived.sort_unstable();
        revived
    }

    fn restore_batch_sink(&mut self, batch: &[TupleRef], mut sink: Option<&mut Vec<u32>>) -> u64 {
        assert!(self.scored, "scores not installed");
        let inc = Arc::clone(&self.inc);
        let mut touched: Vec<u32> = Vec::new();
        let mut revived = 0u64;
        for &t in batch {
            if !self.deleted[t.atom].remove(&t.index) {
                continue;
            }
            for &w in inc.postings[t.atom].of(t.index as usize) {
                let wd = &mut self.witness_dead[w as usize];
                *wd -= 1;
                if *wd != 0 {
                    continue; // still dead through another tuple
                }
                self.live_witnesses += 1;
                for (atom, &tt) in inc.eval.witness(w as usize).iter().enumerate() {
                    self.counts[atom][tt as usize] += 1;
                    if let Some(sel) = &mut self.selector {
                        sel.by_count.raise(&sel.selectable, atom, tt);
                    }
                }
                let out = inc.eval.output_of(w as usize);
                let live = &mut self.output_live[out as usize];
                *live += 1;
                if *live == 1 {
                    self.live_outputs += 1;
                    revived += 1;
                    if let Some(s) = sink.as_deref_mut() {
                        s.push(out);
                    }
                }
                touched.push(out);
            }
        }
        self.rescore_touched(&inc, touched);
        revived
    }

    /// Re-derives the profit contribution of every output whose witness
    /// set changed in this batch, then settles the selector heaps.
    fn rescore_touched(&mut self, inc: &Incidence, mut touched: Vec<u32>) {
        touched.sort_unstable();
        touched.dedup();
        let n = inc.eval.atom_count();
        let mut fresh = vec![None; n];
        for out in touched {
            let out = out as usize;
            inc.agreement_into(&self.witness_dead, out, &mut fresh);
            let cached = &mut self.agreed[out * n..(out + 1) * n];
            for (atom, (old, &new)) in cached.iter_mut().zip(&fresh).enumerate() {
                if *old == new {
                    continue;
                }
                if let Some(t) = *old {
                    let p = &mut self.profits[atom][t as usize];
                    // adp-lint: allow(panic-path) -- incidence-structure
                    // invariant: a profit is only subtracted where it was
                    // added; a miss means the index is corrupt.
                    *p = p.checked_sub(1).expect("profit underflow");
                }
                if let Some(t) = new {
                    self.profits[atom][t as usize] += 1;
                    if let Some(sel) = &mut self.selector {
                        sel.by_profit.raise(&sel.selectable, atom, t);
                    }
                }
                *old = new;
            }
        }
        if let Some(sel) = &mut self.selector {
            let bound = HEAP_SLACK * sel.slots;
            sel.by_profit.settle(&self.profits, &sel.selectable, bound);
            sel.by_count.settle(&self.counts, &sel.selectable, bound);
        }
    }
}

/// The heap's top as `(score, atom, idx)`. Exact between batches: every
/// batch ends with a settle.
fn top(heap: &BinaryHeap<Entry>) -> Option<(u64, usize, u32)> {
    heap.peek()
        .map(|&(s, Reverse((atom, idx)))| (u64::from(s), atom as usize, idx))
}

/// One entry per selectable tuple with a positive score: the exact
/// heap, built by heapify.
fn exact_heap(scores: &[Vec<u32>], selectable: &[bool]) -> BinaryHeap<Entry> {
    let entries: Vec<Entry> = (scores.iter().zip(selectable))
        .zip(0u32..)
        .filter(|&((_, &selectable), _)| selectable)
        .flat_map(|((atom, _), a)| {
            atom.iter()
                .zip(0u32..)
                .filter(|&(&s, _)| s > 0)
                .map(move |(&s, i)| (s, Reverse((a, i))))
        })
        .collect();
    BinaryHeap::from(entries)
}

impl LazyHeap {
    /// The exact heap over `scores`.
    fn exact(scores: &[Vec<u32>], selectable: &[bool]) -> Self {
        LazyHeap {
            entries: exact_heap(scores, selectable),
            raised: Vec::new(),
        }
    }

    /// Records that the tuple's score rose in this batch.
    fn raise(&mut self, selectable: &[bool], atom: usize, idx: u32) {
        if selectable[atom] {
            // adp-lint: allow(truncating-cast) -- atom indexes the
            // query's body atoms, a handful.
            self.raised.push((atom as u32, idx));
        }
    }

    /// Ends a batch: pushes one entry per raised tuple at its final
    /// score, then rebuilds the heap if it holds more than `bound`
    /// entries, or else pops stale entries off its top until the top
    /// matches its tuple's score. A popped entry above a still-positive
    /// score is re-pushed at that score; one below it is covered by the
    /// entry its rise pushed.
    fn settle(&mut self, scores: &[Vec<u32>], selectable: &[bool], bound: usize) {
        self.raised.sort_unstable();
        self.raised.dedup();
        for (atom, idx) in self.raised.drain(..) {
            let score = scores[atom as usize][idx as usize];
            if score > 0 {
                self.entries.push((score, Reverse((atom, idx))));
            }
        }
        if self.entries.len() > bound {
            self.entries = exact_heap(scores, selectable);
            return;
        }
        let heap = &mut self.entries;
        while let Some(&(stored, Reverse((atom, idx)))) = heap.peek() {
            let current = scores[atom as usize][idx as usize];
            if stored == current {
                break;
            }
            heap.pop();
            if stored > current && current > 0 {
                heap.push((current, Reverse((atom, idx))));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::join::evaluate;
    use crate::provenance::ProvenanceIndex;
    use crate::schema::{attrs, RelationSchema};

    /// Figure 1 database with Q2(A,E) (projection query).
    fn q2_eval() -> (Database, EvalResult) {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[2, 2], &[3, 3]]);
        db.add_relation(
            "R2",
            attrs(&["B", "C"]),
            &[&[1, 1], &[2, 2], &[2, 3], &[3, 3]],
        );
        db.add_relation("R3", attrs(&["C", "E"]), &[&[1, 1], &[2, 3], &[3, 3]]);
        let atoms = vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ];
        let r = evaluate(&db, &atoms, &attrs(&["A", "E"]));
        (db, r)
    }

    /// Trimmed-map equality with a fresh `ProvenanceIndex` after the
    /// same kill sequence: the maintained scores must be *equal*, not
    /// just equivalent.
    fn assert_scores_match(d: &DeltaProvenance, p: &ProvenanceIndex) {
        assert_eq!(d.profits(), p.profits(), "profit maps diverged");
        assert_eq!(d.live_counts(), p.live_counts(), "count maps diverged");
        assert_eq!(d.live_outputs(), p.live_outputs());
        assert_eq!(d.live_witnesses(), p.live_witnesses());
    }

    #[test]
    fn initial_scores_equal_provenance_index() {
        let (_, eval) = q2_eval();
        let d = DeltaProvenance::try_new(&eval).unwrap();
        let p = ProvenanceIndex::new(&eval);
        assert_scores_match(&d, &p);
        assert_eq!(d.total_outputs(), 3);
        assert_eq!(d.removed_outputs(), 0);
    }

    #[test]
    fn delete_matches_provenance_kill() {
        let (db, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        let mut p = ProvenanceIndex::new(&eval);
        let b2c2 = db.expect("R2").index_of(&[2, 2]).unwrap();
        let t = TupleRef::new(1, b2c2);
        assert_eq!(d.delete(t), p.kill(t));
        assert_scores_match(&d, &p);
        assert!(d.is_deleted(t));
        // Killing the now-sole witness path removes both outputs of a2/a3.
        let c3e3 = db.expect("R3").index_of(&[3, 3]).unwrap();
        let t2 = TupleRef::new(2, c3e3);
        assert_eq!(d.delete(t2), p.kill(t2));
        assert_scores_match(&d, &p);
    }

    #[test]
    fn restore_round_trips_to_initial_state() {
        let (_, eval) = q2_eval();
        let pristine = DeltaProvenance::try_new(&eval).unwrap();
        let mut d = pristine.clone();
        let batch = [
            TupleRef::new(0, 0),
            TupleRef::new(1, 1),
            TupleRef::new(2, 2),
        ];
        let died = d.delete_batch(&batch);
        assert!(died > 0);
        assert_eq!(d.restore_batch(&batch), died);
        assert_eq!(d.profits(), pristine.profits());
        assert_eq!(d.live_counts(), pristine.live_counts());
        assert_eq!(d.live_outputs(), pristine.live_outputs());
        assert_eq!(d.live_witnesses(), pristine.live_witnesses());
        assert_eq!(d.removed_outputs(), 0);
    }

    /// Clones share the immutable incidence and copy only the mutable
    /// state: deleting on a clone leaves the original untouched.
    #[test]
    fn clones_share_incidence_but_not_scores() {
        let (_, eval) = q2_eval();
        let pristine = DeltaProvenance::try_new(&eval).unwrap();
        let mut d = pristine.clone();
        assert!(Arc::ptr_eq(&d.inc, &pristine.inc));
        assert!(
            d.eval().shares_storage(&eval),
            "the incidence is the eval's"
        );
        assert!(d.delete(TupleRef::new(1, 1)) + d.delete(TupleRef::new(0, 0)) > 0);
        let p = ProvenanceIndex::new(&eval);
        assert_scores_match(&pristine, &p);
        assert!(!pristine.is_deleted(TupleRef::new(0, 0)));
    }

    #[test]
    fn overlapping_deletes_are_refcounted() {
        let (db, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        // Both tuples sit on the (a1,e1) witness; restoring only one of
        // them must keep the witness dead.
        let a1b1 = TupleRef::new(0, db.expect("R1").index_of(&[1, 1]).unwrap());
        let b1c1 = TupleRef::new(1, db.expect("R2").index_of(&[1, 1]).unwrap());
        assert_eq!(d.delete_batch(&[a1b1, b1c1]), 1);
        assert_eq!(d.restore(b1c1), 0, "witness still dead through R1");
        assert_eq!(d.live_outputs(), 2);
        assert_eq!(d.restore(a1b1), 1, "last deleted tuple revives it");
        assert_eq!(d.live_outputs(), 3);
    }

    /// The transition variants must report exactly the outputs whose
    /// live-witness count crossed 1→0 (delete) / 0→1 (restore) — the SSP
    /// weight rule — and leave the state identical to the count-only
    /// batch operations.
    #[test]
    fn batch_transitions_name_the_outputs_that_crossed() {
        let (_, eval) = q2_eval();
        let mut by_count = DeltaProvenance::try_new(&eval).unwrap();
        let mut by_trans = by_count.clone();
        let batch = [
            TupleRef::new(0, 0),
            TupleRef::new(1, 1),
            TupleRef::new(2, 2),
        ];
        let died = by_count.delete_batch(&batch);
        let lost = by_trans.delete_batch_transitions(&batch);
        assert_eq!(lost.len() as u64, died, "one id per 1→0 transition");
        assert!(lost.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
        assert_eq!(by_trans.live_outputs(), by_count.live_outputs());
        assert_eq!(by_trans.profits(), by_count.profits());
        // Restoring reports the same outputs coming back.
        let revived = by_count.restore_batch(&batch);
        let gained = by_trans.restore_batch_transitions(&batch);
        assert_eq!(gained.len() as u64, revived);
        assert_eq!(gained, lost, "exactly the dead outputs revive");
        assert_eq!(by_trans.removed_outputs(), 0);
    }

    /// An output losing a redundant witness (live count 2→1) must not
    /// appear in the transition set — only true liveness flips count.
    #[test]
    fn redundant_witness_loss_is_not_a_transition() {
        let (db, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        // R2(2,2) sits on one of output (a2,e3)'s two witnesses: the
        // output survives through R2(2,3).
        let b2c2 = db.expect("R2").index_of(&[2, 2]).unwrap();
        let lost = d.delete_batch_transitions(&[TupleRef::new(1, b2c2)]);
        assert!(lost.is_empty(), "output still live via its other witness");
        assert_eq!(d.live_outputs(), 3);
        // Cutting the second path is the actual 1→0 transition.
        let b2c3 = db.expect("R2").index_of(&[2, 3]).unwrap();
        let lost = d.delete_batch_transitions(&[TupleRef::new(1, b2c3)]);
        assert_eq!(lost.len(), 1);
    }

    #[test]
    fn duplicate_and_unknown_tuples_are_ignored() {
        let (_, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        let t = TupleRef::new(0, 0);
        let died = d.delete(t);
        assert_eq!(d.delete(t), 0, "double delete is a no-op");
        assert_eq!(d.restore(TupleRef::new(0, 99)), 0, "unknown tuple");
        assert_eq!(d.restore(t), died);
        assert_eq!(d.restore(t), 0, "double restore is a no-op");
    }

    /// Tuples the CSR does not cover — a dangling tuple inside an atom's
    /// range and indices past its largest participating tuple — have no
    /// postings and score 0: deleting or restoring one toggles
    /// `is_deleted` and changes nothing else.
    #[test]
    fn tuples_outside_the_postings_only_toggle_deletion() {
        let mut db = Database::new();
        // R(1,5) joins nothing; R(7,7) sits past every joining R tuple.
        db.add_relation(
            "R",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 5], &[2, 2], &[7, 7]],
        );
        db.add_relation("S", attrs(&["B", "C"]), &[&[1, 1], &[2, 1], &[2, 2]]);
        let atoms = vec![
            RelationSchema::new("R", attrs(&["A", "B"])),
            RelationSchema::new("S", attrs(&["B", "C"])),
        ];
        let eval = evaluate(&db, &atoms, &attrs(&["A"]));
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        d.enable_selection(vec![true; 2]);
        let r = db.expect("R");
        let outside = [
            TupleRef::new(0, r.index_of(&[1, 5]).unwrap()),
            TupleRef::new(0, r.index_of(&[7, 7]).unwrap()),
            TupleRef::new(0, 1_000),
            TupleRef::new(1, 1_000),
        ];
        assert!(outside[1].index > r.index_of(&[2, 2]).unwrap());
        let snapshot = |d: &DeltaProvenance| {
            (
                d.profits(),
                d.live_counts(),
                d.live_outputs(),
                d.live_witnesses(),
                d.best_profit_candidate(),
                d.best_count_candidate(),
            )
        };
        let load = d.selection_load();
        let before = snapshot(&d);
        for t in outside {
            assert_eq!(d.witness_degree(t), 0, "{t:?}");
            assert_eq!(d.killed_by_set(&[t]), 0, "{t:?}");
            assert_eq!((d.profit(t), d.live_count(t)), (0, 0), "{t:?}");
            assert_eq!(d.delete(t), 0, "{t:?}");
            assert!(d.is_deleted(t), "{t:?}");
            assert_eq!(snapshot(&d), before, "{t:?}: delete changed the state");
            assert_eq!(d.restore(t), 0, "{t:?}");
            assert!(!d.is_deleted(t), "{t:?}");
            assert_eq!(snapshot(&d), before, "{t:?}: restore changed the state");
            assert_eq!(d.selection_load(), load, "{t:?}: heap entries pushed");
        }
        // A batch mixing them with a joining tuple kills only that
        // tuple's witnesses, and the outside tuples stay deleted with it.
        let mut batch = outside.to_vec();
        batch.push(TupleRef::new(0, r.index_of(&[2, 2]).unwrap()));
        assert_eq!(d.delete_batch(&batch), 1);
        assert!(batch.iter().all(|&t| d.is_deleted(t)));
        assert_eq!(d.restore_batch(&batch), 1);
        assert_eq!(snapshot(&d), before);
    }

    #[test]
    fn selection_tracks_the_full_scan_argmax() {
        let (_, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        d.enable_selection(vec![true; 3]);
        let mut p = ProvenanceIndex::new(&eval);
        loop {
            // Reference pick: full scan of the fresh index's maps.
            let scan_best = |maps: &[HashMap<u32, u64>]| {
                let mut best: Option<(u64, usize, u32)> = None;
                for (atom, map) in maps.iter().enumerate() {
                    for (&idx, &s) in map {
                        let better = match best {
                            None => true,
                            Some((bs, ba, bi)) => {
                                (s, Reverse((atom, idx))) > (bs, Reverse((ba, bi)))
                            }
                        };
                        if better {
                            best = Some((s, atom, idx));
                        }
                    }
                }
                best
            };
            assert_eq!(d.best_profit_candidate(), scan_best(&p.profits()));
            assert_eq!(d.best_count_candidate(), scan_best(&p.live_counts()));
            let Some((_, atom, idx)) = d.best_profit_candidate() else {
                break;
            };
            let t = TupleRef::new(atom, idx);
            assert_eq!(d.delete(t), p.kill(t));
        }
        assert_eq!(d.live_outputs(), 0);
    }

    #[test]
    fn selection_respects_the_selectable_mask() {
        let (_, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        d.enable_selection(vec![false, true, false]);
        while let Some((_, atom, idx)) = d
            .best_profit_candidate()
            .or_else(|| d.best_count_candidate())
        {
            assert_eq!(atom, 1, "only R2 is selectable");
            d.delete(TupleRef::new(atom, idx));
        }
        // R2 alone cannot be fully... it can: all witnesses pass through R2.
        assert_eq!(d.live_outputs(), 0);
    }

    #[test]
    fn range_scoring_partitions_match_sequential_install() {
        let (_, eval) = q2_eval();
        let seq = DeltaProvenance::try_new(&eval).unwrap();
        for chunk in 1..=seq.output_slots() {
            let mut par = DeltaProvenance::new_unscored(&eval, u32::MAX as u64).unwrap();
            let parts: Vec<RangeScores> = (0..par.output_slots())
                .step_by(chunk)
                .map(|lo| par.score_range(lo, (lo + chunk).min(par.output_slots())))
                .collect();
            par.install_scores(parts);
            assert_eq!(par.profits(), seq.profits(), "chunk={chunk}");
            assert_eq!(par.live_counts(), seq.live_counts(), "chunk={chunk}");
        }
        for threads in [1, 2, 4] {
            let pooled = DeltaProvenance::try_new_on(&eval, &ThreadPool::new(threads)).unwrap();
            assert_eq!(pooled.profits(), seq.profits(), "threads={threads}");
            assert_eq!(pooled.live_counts(), seq.live_counts(), "threads={threads}");
        }
    }

    #[test]
    fn killed_by_set_is_pure() {
        let (db, eval) = q2_eval();
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        let r1 = db.expect("R1");
        let all_r1: Vec<TupleRef> = (0..r1.len() as u32).map(|i| TupleRef::new(0, i)).collect();
        assert_eq!(d.killed_by_set(&all_r1), 3);
        assert_eq!(d.live_outputs(), 3, "no mutation");
        assert_eq!(d.killed_by_set(&[]), 0);
        // On a non-pristine state it counts only outputs still live: with
        // R2(2,2) deleted, (a2,e3) hangs on its witness through c3.
        let b2c2 = db.expect("R2").index_of(&[2, 2]).unwrap();
        d.delete(TupleRef::new(1, b2c2));
        let c3e3 = db.expect("R3").index_of(&[3, 3]).unwrap();
        assert_eq!(d.killed_by_set(&[TupleRef::new(2, c3e3)]), 2);
        assert_eq!(d.killed_by_set(&all_r1), 3);
        assert_eq!(d.live_outputs(), 3);
    }

    #[test]
    fn witness_cap_guard_surfaces_too_many_witnesses() {
        let (_, eval) = q2_eval();
        let err = DeltaProvenance::try_new_with_cap(&eval, 3).unwrap_err();
        assert_eq!(
            err,
            AdpError::TooManyWitnesses {
                witnesses: 4,
                cap: 3
            }
        );
        assert!(err.to_string().contains("4 witnesses"));
        assert!(DeltaProvenance::try_new_with_cap(&eval, 4).is_ok());
    }

    #[test]
    fn empty_evaluation_is_harmless() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        db.add_relation("S", attrs(&["A"]), &[]);
        let atoms = vec![
            RelationSchema::new("R", attrs(&["A"])),
            RelationSchema::new("S", attrs(&["A"])),
        ];
        let eval = evaluate(&db, &atoms, &attrs(&["A"]));
        let mut d = DeltaProvenance::try_new(&eval).unwrap();
        assert_eq!(d.live_outputs(), 0);
        assert_eq!(d.delete(TupleRef::new(0, 0)), 0);
        assert_eq!(d.restore(TupleRef::new(0, 0)), 0);
        d.enable_selection(vec![true; 2]);
        assert_eq!(d.best_profit_candidate(), None);
        assert_eq!(d.best_count_candidate(), None);
    }
}
