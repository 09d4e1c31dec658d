//! Compiled query plans: resolve once, execute many times.
//!
//! [`crate::join::evaluate`] re-derived the join order, re-keyed every
//! lookup through `String` attribute/relation names, and rebuilt every
//! hash index from scratch on each call. The ADP solvers, however,
//! repeatedly re-evaluate the *same* conjunctive query — across the
//! benchmark ρ-sweep, across solution verification, and under shrinking
//! deletion sets. This module splits evaluation into the three phases
//! that make re-evaluation cheap:
//!
//! 1. [`QueryPlan::new`] — name resolution (via the database
//!    [`Catalog`](crate::catalog::Catalog)), schema validation, join
//!    ordering, and binding-slot assignment. Pure metadata; no data is
//!    scanned. After this point execution touches only dense `u32` ids.
//! 2. [`QueryPlan::build_indexes`] — one hash index per non-leading
//!    atom, built over the *full* relation so the same [`JoinIndexes`]
//!    serves every subsequent execution. Build sides at paper scale are
//!    hash-partitioned and the per-partition tables are constructed
//!    concurrently on the [`adp_runtime`] pool
//!    ([`QueryPlan::build_indexes_on`]).
//! 3. [`QueryPlan::execute`] / [`QueryPlan::execute_masked`] — the
//!    backtracking join. The masked variant skips tuples an
//!    [`AliveMask`] marks dead, giving `Q(D − S)` for any deletion set
//!    `S` without touching the database or the indexes. Large lead
//!    ranges are probed in parallel chunks and merged deterministically,
//!    so parallel results are **byte-identical** to the sequential path
//!    (same output ids, same witness order — the internal merge step
//!    re-deduplicates outputs in first-seen chunk order).
//!
//! Witness tuple indices always refer to the original relation
//! instances, so masked results compose directly with
//! [`crate::provenance`] and the solvers' tuple bookkeeping.

use crate::catalog::RelId;
use crate::database::Database;
use crate::join::EvalResult;
use crate::keytable::KeyTable;
use crate::provenance::TupleRef;
use crate::relation::{RelationInstance, SegProbe};
use crate::schema::{Attr, RelationSchema};
use crate::value::Value;
use adp_runtime::ThreadPool;
use std::collections::HashMap;

/// Build sides smaller than this stay single-partition: the table fits
/// in cache and partitioning overhead outweighs the parallel build.
const PAR_BUILD_MIN_ROWS: usize = 1 << 13;

/// Lead ranges smaller than this are probed sequentially; the
/// deterministic merge is pure overhead for small joins.
const PAR_EXEC_MIN_CANDS: usize = 1 << 12;

/// One atom's role in the join order: which tuple positions are already
/// bound (and to which binding slots) and which bind fresh slots.
#[derive(Clone, Debug)]
struct JoinStep {
    /// Query-atom position this step scans.
    atom: usize,
    /// Tuple positions checked against already-bound slots.
    bound_pos: Box<[u32]>,
    /// Binding slots the bound positions must match, pairwise.
    bound_slot: Box<[u32]>,
    /// Tuple positions that bind fresh slots.
    free_pos: Box<[u32]>,
    /// Slots the free positions bind, pairwise.
    free_slot: Box<[u32]>,
}

/// A compiled evaluation plan for one conjunctive query body + head over
/// one database's catalog. Build once with [`QueryPlan::new`], execute
/// any number of times.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Per query atom: the relation it scans.
    rels: Box<[RelId]>,
    /// Join steps, in execution order.
    steps: Box<[JoinStep]>,
    /// Binding slots projected into output tuples.
    head_slots: Box<[u32]>,
    /// Total number of binding slots.
    n_slots: usize,
}

/// One atom's hash index: bound-attr key → tuple indices.
///
/// Two representations, chosen per instance by `build_step_index`:
///
/// * **Flat** — the unsegmented store's index, hash-split into a
///   power-of-two number of partitions so construction can fan out
///   across workers. A probe hashes the key once to pick its partition;
///   with one partition this is exactly the old flat table.
/// * **Segmented** — for sealed stores: one cached, `Arc`-shared
///   per-segment index (tombstone-independent, reused by every epoch
///   that contains the segment) plus a fresh map over the mutable tail.
///   A probe walks the segments in dense order, applying each epoch's
///   tombstone overlay and rank-shift at probe time.
///
/// Either way, [`StepIndex::extend_into`] yields ascending dense tuple
/// ids — flat posting lists are built in id order
/// ([`adp_runtime::partition_ids`]), and segment-local postings are
/// rebased by their segment's dense offset in segment order — so the
/// probe order (hence the whole evaluation) is byte-identical across
/// representations, worker counts, and epochs.
#[derive(Clone, Debug)]
pub struct StepIndex {
    repr: StepRepr,
}

#[derive(Clone, Debug)]
enum StepRepr {
    Flat(Vec<HashMap<Box<[Value]>, Vec<u32>>>),
    Segmented {
        segs: Vec<SegProbe>,
        tail: HashMap<Box<[Value]>, Vec<u32>>,
    },
}

impl StepIndex {
    #[inline]
    fn part_of(parts: &[HashMap<Box<[Value]>, Vec<u32>>], key: &[Value]) -> usize {
        if parts.len() == 1 {
            0
        } else {
            hash_values(key.iter().copied()) as usize & (parts.len() - 1)
        }
    }

    /// Appends the tuple ids whose bound attributes equal `key` to
    /// `out`, in ascending dense-id order.
    #[inline]
    pub fn extend_into(&self, key: &[Value], out: &mut Vec<u32>) {
        match &self.repr {
            StepRepr::Flat(parts) => {
                if let Some(list) = parts[Self::part_of(parts, key)].get(key) {
                    out.extend_from_slice(list);
                }
            }
            StepRepr::Segmented { segs, tail } => {
                for seg in segs {
                    seg.extend_matches(key, out);
                }
                if let Some(list) = tail.get(key) {
                    out.extend_from_slice(list);
                }
            }
        }
    }

    /// Tuple ids whose bound attributes equal `key`, ascending
    /// (allocating convenience over
    /// [`extend_into`](StepIndex::extend_into)).
    pub fn matches(&self, key: &[Value]) -> Vec<u32> {
        let mut out = Vec::new();
        self.extend_into(key, &mut out);
        out
    }

    /// Number of probe units: hash partitions (power of two) for a flat
    /// index, segments + tail for a segmented one.
    pub fn partition_count(&self) -> usize {
        match &self.repr {
            StepRepr::Flat(parts) => parts.len(),
            StepRepr::Segmented { segs, .. } => segs.len() + 1,
        }
    }

    /// Number of distinct keys across all partitions/segments.
    pub fn entry_count(&self) -> usize {
        match &self.repr {
            StepRepr::Flat(parts) => parts.iter().map(|m| m.len()).sum(),
            StepRepr::Segmented { segs, tail } => {
                segs.iter().map(SegProbe::entry_count).sum::<usize>() + tail.len()
            }
        }
    }

    /// Test-only view of the flat partition tables.
    #[cfg(test)]
    fn flat_parts(&self) -> &[HashMap<Box<[Value]>, Vec<u32>>] {
        match &self.repr {
            StepRepr::Flat(parts) => parts,
            StepRepr::Segmented { .. } => panic!("expected a flat index"),
        }
    }
}

/// FNV-1a over the little-endian bytes of a value sequence. Used both to
/// scatter build rows and to route probes, so the two always agree.
#[inline]
fn hash_values<I: IntoIterator<Item = Value>>(vals: I) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in vals {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Hash indexes for a plan's non-leading atoms, built once over the full
/// relations by [`QueryPlan::build_indexes`] and reused across
/// executions (masked or not).
#[derive(Clone, Debug)]
pub struct JoinIndexes {
    /// Per join step: bound-attr key → tuple indices (leading step:
    /// `None`).
    per_step: Vec<Option<StepIndex>>,
}

impl JoinIndexes {
    /// Partition count per join step (0 for the un-indexed lead step).
    pub fn partition_counts(&self) -> Vec<usize> {
        self.per_step
            .iter()
            .map(|s| s.as_ref().map_or(0, StepIndex::partition_count))
            .collect()
    }
}

/// Per-atom liveness of input tuples: the deletion state `S` in
/// `Q(D − S)`, layered over immutable relation instances so tuple
/// indices stay stable.
#[derive(Clone, Debug)]
pub struct AliveMask {
    alive: Vec<Vec<bool>>,
}

impl AliveMask {
    /// An all-alive mask for the instances behind `atoms` in `db`.
    pub fn all_alive(db: &Database, atoms: &[RelationSchema]) -> Self {
        AliveMask {
            alive: atoms
                .iter()
                // adp-lint: allow(panic-path) -- documented panicking
                // lookup; masks are built for atoms already validated
                // against the database.
                .map(|a| vec![true; db.expect(a.name()).len()])
                .collect(),
        }
    }

    /// Marks a tuple dead. Returns whether it was alive.
    pub fn kill(&mut self, atom: usize, index: u32) -> bool {
        let slot = &mut self.alive[atom][index as usize];
        std::mem::replace(slot, false)
    }

    /// Marks every referenced tuple dead.
    pub fn kill_all<'a, I: IntoIterator<Item = &'a TupleRef>>(&mut self, refs: I) {
        for t in refs {
            self.kill(t.atom, t.index);
        }
    }

    /// Marks a tuple alive again.
    pub fn revive(&mut self, atom: usize, index: u32) {
        self.alive[atom][index as usize] = true;
    }

    /// Is the tuple alive?
    pub fn is_alive(&self, atom: usize, index: u32) -> bool {
        self.alive[atom][index as usize]
    }

    /// Number of live tuples in one atom.
    pub fn live_count(&self, atom: usize) -> usize {
        self.alive[atom].iter().filter(|&&a| a).count()
    }
}

impl QueryPlan {
    /// Compiles a plan for the body `atoms` projected on `head`.
    ///
    /// Every atom's relation must exist in `db` with the same attribute
    /// set, and `head` must be a subset of the body attributes — the
    /// same contract as [`crate::join::evaluate`], checked here once
    /// instead of on every evaluation.
    pub fn new(db: &Database, atoms: &[RelationSchema], head: &[Attr]) -> Self {
        assert!(!atoms.is_empty(), "cannot plan a query with no atoms");
        let catalog = db.catalog();

        // Resolve atoms to relations and validate attribute sets.
        let rels: Vec<RelId> = atoms
            .iter()
            .map(|a| {
                let id = db
                    .rel_id(a.name())
                    // adp-lint: allow(panic-path) -- compile's documented
                    // contract: atoms must name registered relations;
                    // Query::validate is the typed front door.
                    .unwrap_or_else(|| panic!("relation {} not in database", a.name()));
                let mut want: Vec<_> = a
                    .attrs()
                    .iter()
                    .map(|x| catalog.attr_id(x))
                    .collect::<Option<Vec<_>>>()
                    .unwrap_or_default();
                let mut have: Vec<_> = db.resolved_attrs(id).to_vec();
                want.sort_unstable();
                have.sort_unstable();
                assert!(
                    want.len() == a.arity() && want == have,
                    "schema mismatch for {}: query says {:?}, database says {:?}",
                    a.name(),
                    a,
                    db.relation_by_id(id).schema()
                );
                id
            })
            .collect();

        let sizes: Vec<usize> = rels.iter().map(|&r| db.relation_by_id(r).len()).collect();
        let order = join_order(db, &rels, &sizes);

        // Binding slots, assigned in first-seen order along the join
        // order. Dense over the catalog's attribute space.
        let mut slot_of: Vec<Option<u32>> = vec![None; catalog.attr_count()];
        let mut n_slots = 0u32;
        let steps: Vec<JoinStep> = order
            .iter()
            .map(|&ai| {
                let mut bound_pos = Vec::new();
                let mut bound_slot = Vec::new();
                let mut free_pos = Vec::new();
                let mut free_slot = Vec::new();
                for (pos, &aid) in db.resolved_attrs(rels[ai]).iter().enumerate() {
                    match slot_of[aid.index()] {
                        Some(s) => {
                            // adp-lint: allow(truncating-cast) -- pos
                            // indexes a schema's attributes (arity-bounded).
                            bound_pos.push(pos as u32);
                            bound_slot.push(s);
                        }
                        None => {
                            slot_of[aid.index()] = Some(n_slots);
                            // adp-lint: allow(truncating-cast) -- pos
                            // indexes a schema's attributes (arity-bounded).
                            free_pos.push(pos as u32);
                            free_slot.push(n_slots);
                            n_slots += 1;
                        }
                    }
                }
                JoinStep {
                    atom: ai,
                    bound_pos: bound_pos.into(),
                    bound_slot: bound_slot.into(),
                    free_pos: free_pos.into(),
                    free_slot: free_slot.into(),
                }
            })
            .collect();

        let head_slots: Vec<u32> = head
            .iter()
            .map(|a| {
                catalog
                    .attr_id(a)
                    .and_then(|id| slot_of[id.index()])
                    // adp-lint: allow(panic-path) -- compile's documented
                    // contract: head attributes must occur in the body;
                    // Query::validate is the typed front door.
                    .unwrap_or_else(|| panic!("head attribute {a} not in query body"))
            })
            .collect();

        QueryPlan {
            rels: rels.into(),
            steps: steps.into(),
            head_slots: head_slots.into(),
            n_slots: n_slots as usize,
        }
    }

    /// The relation scanned by each query atom.
    pub fn rels(&self) -> &[RelId] {
        &self.rels
    }

    /// Number of query atoms.
    pub fn atom_count(&self) -> usize {
        self.rels.len()
    }

    /// Builds the hash indexes the plan's non-leading atoms probe.
    /// Indexes cover the full relations; masked executions filter at
    /// probe time, so one build serves every deletion state.
    ///
    /// Paper-scale build sides fan out over the process-wide
    /// [`adp_runtime::global`] pool with automatic partitioning; small
    /// build sides stay sequential and never touch (or lazily
    /// initialize) the global pool. See
    /// [`QueryPlan::build_indexes_on`] for explicit control.
    pub fn build_indexes(&self, db: &Database) -> JoinIndexes {
        let big = self
            .steps
            .iter()
            .skip(1)
            .any(|s| db.relation_by_id(self.rels[s.atom]).len() >= PAR_BUILD_MIN_ROWS);
        let pool = if big {
            Some(adp_runtime::global())
        } else {
            None
        };
        self.build_indexes_inner(db, pool, None)
    }

    /// Builds the join indexes on an explicit pool. `partitions`
    /// overrides the partition count per build side (rounded up to a
    /// power of two); `None` chooses it from the pool size, as
    /// [`QueryPlan::build_indexes`] does: 1 for small build sides or
    /// single-worker pools, otherwise ~2× the pool's workers. Results
    /// are identical for every `(pool, partitions)` combination —
    /// partitioning only changes *where* a key lives, and per-key
    /// posting lists stay in ascending tuple-id order.
    pub fn build_indexes_on(
        &self,
        db: &Database,
        pool: &ThreadPool,
        partitions: Option<usize>,
    ) -> JoinIndexes {
        self.build_indexes_inner(db, Some(pool), partitions)
    }

    fn build_indexes_inner(
        &self,
        db: &Database,
        pool: Option<&ThreadPool>,
        partitions: Option<usize>,
    ) -> JoinIndexes {
        let threads = pool.map_or(1, ThreadPool::threads);
        let per_step = self
            .steps
            .iter()
            .enumerate()
            .map(|(depth, step)| {
                if depth == 0 {
                    return None;
                }
                let inst = db.relation_by_id(self.rels[step.atom]);
                let parts = match partitions {
                    Some(p) => p.next_power_of_two().max(1),
                    None if threads <= 1 || inst.len() < PAR_BUILD_MIN_ROWS => 1,
                    None => (threads * 2).next_power_of_two().min(64),
                };
                Some(build_step_index(inst, &step.bound_pos, parts, pool))
            })
            .collect();
        JoinIndexes { per_step }
    }

    /// Evaluates over the full database (every tuple alive). Large lead
    /// ranges fan out over the global pool; small ones run sequentially
    /// without touching it.
    pub fn execute(&self, db: &Database, indexes: &JoinIndexes) -> EvalResult {
        self.run(db, indexes, None, None, 0)
    }

    /// Evaluates `Q(D − S)` where `S` is the set of dead tuples in
    /// `alive`. Witness indices refer to the original instances, so
    /// results are directly comparable across masks.
    pub fn execute_masked(
        &self,
        db: &Database,
        indexes: &JoinIndexes,
        alive: &AliveMask,
    ) -> EvalResult {
        self.run(db, indexes, Some(alive), None, 0)
    }

    /// [`QueryPlan::execute`] / [`QueryPlan::execute_masked`] on an
    /// explicit pool (auto-chunked). Needed by harnesses that sweep
    /// worker counts with local pools — the global pool is fixed-size.
    pub fn execute_on(
        &self,
        db: &Database,
        indexes: &JoinIndexes,
        alive: Option<&AliveMask>,
        pool: &ThreadPool,
    ) -> EvalResult {
        self.run(db, indexes, alive, Some(pool), 0)
    }

    /// Evaluates with an explicit probe chunk count, bypassing the
    /// size threshold. `chunks == 0` means automatic. Exposed so tests
    /// can force the parallel merge path on small inputs and assert
    /// byte-identity against the sequential result.
    pub fn execute_chunked(
        &self,
        db: &Database,
        indexes: &JoinIndexes,
        alive: Option<&AliveMask>,
        pool: &ThreadPool,
        chunks: usize,
    ) -> EvalResult {
        self.run(db, indexes, alive, Some(pool), chunks)
    }

    /// Convenience for one-shot callers: build indexes and execute.
    pub fn execute_once(&self, db: &Database) -> EvalResult {
        if self.rels.iter().any(|&r| db.relation_by_id(r).is_empty()) {
            return self.merge(Vec::new());
        }
        let indexes = self.build_indexes(db);
        self.execute(db, &indexes)
    }

    /// A chunk result with no witnesses yet.
    fn empty_partial(&self) -> PartialEval {
        PartialEval {
            outputs: KeyTable::new(self.head_slots.len()),
            witness_tuples: Vec::new(),
            witness_output: Vec::new(),
        }
    }

    /// Backtracking join over the lead candidates, optionally fanned out
    /// across `pool` in contiguous chunks. Chunk results are merged in
    /// chunk order, re-deduplicating outputs in first-seen order, so the
    /// merged [`EvalResult`] is byte-identical to the sequential scan:
    /// same output ids, same witness ids, same posting order.
    fn run(
        &self,
        db: &Database,
        indexes: &JoinIndexes,
        alive: Option<&AliveMask>,
        pool: Option<&ThreadPool>,
        chunks: usize,
    ) -> EvalResult {
        let instances: Vec<_> = self.rels.iter().map(|&r| db.relation_by_id(r)).collect();
        let lead = self.steps[0].atom;
        let cands: Vec<u32> = instances[lead]
            .indices()
            .filter(|&i| alive.is_none_or(|m| m.is_alive(lead, i)))
            .collect();
        // Consult the global pool only past the size threshold: small
        // executions stay sequential and never lazily initialize it.
        let pool = match pool {
            Some(p) => Some(p),
            None if cands.len() >= PAR_EXEC_MIN_CANDS => Some(adp_runtime::global()),
            None => None,
        };
        let threads = pool.map_or(1, ThreadPool::threads);
        let chunks = match chunks {
            0 if threads > 1 && cands.len() >= PAR_EXEC_MIN_CANDS => threads * 4,
            0 => 1,
            n => n,
        };
        let (Some(pool), false) = (pool, chunks <= 1 || cands.len() <= 1) else {
            let part = self.run_range(&instances, indexes, alive, &cands);
            return self.merge(vec![part]);
        };
        let chunk_size = cands.len().div_ceil(chunks).max(1);
        let n_chunks = cands.len().div_ceil(chunk_size);
        let partials = pool.par_indexed(n_chunks, |c| {
            let lo = c * chunk_size;
            let hi = ((c + 1) * chunk_size).min(cands.len());
            self.run_range(&instances, indexes, alive, &cands[lo..hi])
        });
        self.merge(partials)
    }

    /// The iterative backtracking loop over one contiguous slice of lead
    /// candidates. Outputs are deduplicated locally (first-seen order
    /// within the slice); [`QueryPlan::merge`] rebuilds global ids.
    fn run_range(
        &self,
        instances: &[&RelationInstance],
        indexes: &JoinIndexes,
        alive: Option<&AliveMask>,
        lead_cands: &[u32],
    ) -> PartialEval {
        let mut partial = self.empty_partial();
        let is_alive = |atom: usize, idx: u32| alive.is_none_or(|m| m.is_alive(atom, idx));

        let mut binding: Vec<Value> = vec![0; self.n_slots];
        let mut chosen: Vec<u32> = vec![0; self.rels.len()];
        let mut key_buf: Vec<Value> = Vec::new();
        let mut out_buf: Vec<Value> = Vec::with_capacity(self.head_slots.len());

        // Candidate list + cursor per depth.
        let mut cand: Vec<Vec<u32>> = vec![Vec::new(); self.steps.len()];
        let mut cursor: Vec<usize> = vec![0; self.steps.len()];
        let mut depth: usize = 0;
        cand[0] = lead_cands.to_vec();
        cursor[0] = 0;

        loop {
            if cursor[depth] >= cand[depth].len() {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                continue;
            }
            let step = &self.steps[depth];
            let inst = instances[step.atom];
            let idx = cand[depth][cursor[depth]];
            cursor[depth] += 1;
            let t = inst.tuple(idx);
            for (i, &p) in step.free_pos.iter().enumerate() {
                binding[step.free_slot[i] as usize] = t[p as usize];
            }
            debug_assert!(step
                .bound_pos
                .iter()
                .zip(step.bound_slot.iter())
                .all(|(&p, &s)| t[p as usize] == binding[s as usize]));
            chosen[step.atom] = idx;

            if depth + 1 == self.steps.len() {
                // Complete witness: its tuples are appended to the flat
                // array and its output key, built in a reused buffer, is
                // interned by value.
                out_buf.clear();
                out_buf.extend(self.head_slots.iter().map(|&s| binding[s as usize]));
                let (out_id, _) = partial.outputs.intern(&out_buf);
                partial.witness_tuples.extend_from_slice(&chosen);
                partial.witness_output.push(out_id);
                continue;
            }

            // Descend. The probe key buffer is reused across probes —
            // no per-probe allocation.
            let next = &self.steps[depth + 1];
            key_buf.clear();
            key_buf.extend(next.bound_slot.iter().map(|&s| binding[s as usize]));
            let sidx = indexes.per_step[depth + 1]
                .as_ref()
                // adp-lint: allow(panic-path) -- JoinIndexes::build
                // populates every non-leading step; a miss is plan/index
                // mismatch (internal invariant).
                .expect("non-leading steps have indexes");
            let nd = depth + 1;
            cand[nd].clear();
            sidx.extend_into(&key_buf, &mut cand[nd]);
            cand[nd].retain(|&i| is_alive(next.atom, i));
            if cand[nd].is_empty() {
                continue;
            }
            depth = nd;
            cursor[depth] = 0;
        }

        partial
    }

    /// Concatenates partial results in chunk order, remapping each later
    /// chunk's local output ids to global first-seen ids (the first
    /// chunk's local ids are already global). Because chunks cover the
    /// lead candidates in ascending contiguous slices, the concatenation
    /// visits witnesses in exactly the sequential order — making the
    /// merged result byte-identical to a one-chunk run. The output table's
    /// key arena becomes the result's output keys.
    fn merge(&self, partials: Vec<PartialEval>) -> EvalResult {
        let mut partials = partials.into_iter();
        let mut all = partials.next().unwrap_or_else(|| self.empty_partial());
        for partial in partials {
            let keys = partial.outputs.keys();
            let local_to_global: Vec<u32> = keys.map(|k| all.outputs.intern(k).0).collect();
            let global = partial
                .witness_output
                .iter()
                .map(|&l| local_to_global[l as usize]);
            all.witness_output.extend(global);
            all.witness_tuples.extend(partial.witness_tuples);
        }
        let (atoms, head) = (self.rels.len(), self.head_slots.len());
        let outputs = all.outputs.into_keys();
        EvalResult::from_parts(atoms, head, all.witness_tuples, all.witness_output, outputs)
    }
}

/// One chunk's worth of join results: outputs in local first-seen order,
/// witnesses in lead-candidate order (their tuples back to back, one
/// slot per atom), witness → local output id.
struct PartialEval {
    outputs: KeyTable,
    witness_tuples: Vec<u32>,
    witness_output: Vec<u32>,
}

/// Builds one step's hash index.
///
/// Sealed stores get the segmented representation: per-segment indexes
/// are fetched from (or built into) the segments' shared caches — so a
/// segment indexed once serves every epoch that contains it — plus a
/// fresh map over the tail rows. Unsegmented stores get the flat
/// representation with `parts` partitions (power of two):
/// single-partition builds scan sequentially; partitioned builds (which
/// only a pool asks for) scatter ids with [`adp_runtime::partition_ids`]
/// and fill each partition's table on the pool. All paths yield
/// probe-identical content.
fn build_step_index(
    inst: &RelationInstance,
    bound_pos: &[u32],
    parts: usize,
    pool: Option<&ThreadPool>,
) -> StepIndex {
    debug_assert!(parts.is_power_of_two());
    if inst.is_segmented() {
        let segs = inst.segment_probes(bound_pos, pool);
        let mut tail: HashMap<Box<[Value]>, Vec<u32>> = HashMap::new();
        let mut buf: Vec<Value> = Vec::with_capacity(bound_pos.len());
        for idx in inst.tail_dense_range() {
            let t = inst.tuple(idx);
            buf.clear();
            buf.extend(bound_pos.iter().map(|&p| t[p as usize]));
            match tail.get_mut(buf.as_slice()) {
                Some(list) => list.push(idx),
                None => {
                    tail.insert(buf.clone().into_boxed_slice(), vec![idx]);
                }
            }
        }
        return StepIndex {
            repr: StepRepr::Segmented { segs, tail },
        };
    }
    let fill = |ids: &[u32]| {
        let mut map: HashMap<Box<[Value]>, Vec<u32>> = HashMap::new();
        let mut buf: Vec<Value> = Vec::with_capacity(bound_pos.len());
        for &idx in ids {
            let t = inst.tuple(idx);
            buf.clear();
            buf.extend(bound_pos.iter().map(|&p| t[p as usize]));
            match map.get_mut(buf.as_slice()) {
                Some(list) => list.push(idx),
                None => {
                    map.insert(buf.clone().into_boxed_slice(), vec![idx]);
                }
            }
        }
        map
    };
    let pool = match pool {
        Some(pool) if parts > 1 => pool,
        _ => {
            debug_assert_eq!(parts, 1, "partitioned builds run on a pool");
            let ids: Vec<u32> = inst.indices().collect();
            return StepIndex {
                repr: StepRepr::Flat(vec![fill(&ids)]),
            };
        }
    };
    let mask = parts - 1;
    let part_of = |idx: u32| {
        let t = inst.tuple(idx);
        hash_values(bound_pos.iter().map(|&p| t[p as usize])) as usize & mask
    };
    let buckets = adp_runtime::partition_ids(pool, inst.len(), parts, part_of);
    StepIndex {
        repr: StepRepr::Flat(pool.par_indexed(parts, |p| fill(&buckets[p]))),
    }
}

/// Greedy join order: smallest relation first, then repeatedly the
/// smallest atom sharing an attribute with the bound set (falling back
/// to the smallest remaining atom for disconnected queries). Operates
/// entirely on dense ids.
fn join_order(db: &Database, rels: &[RelId], sizes: &[usize]) -> Vec<usize> {
    let n = rels.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut bound = vec![false; db.catalog().attr_count()];

    let first = *remaining
        .iter()
        .min_by_key(|&&i| (sizes[i], i))
        // adp-lint: allow(panic-path) -- compile rejects empty queries
        // before ordering; remaining starts with one entry per atom.
        .expect("non-empty");
    remaining.retain(|&i| i != first);
    for &aid in db.resolved_attrs(rels[first]) {
        bound[aid.index()] = true;
    }
    order.push(first);

    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| db.resolved_attrs(rels[i]).iter().any(|a| bound[a.index()]))
            .collect();
        let pool = if connected.is_empty() {
            &remaining
        } else {
            &connected
        };
        // adp-lint: allow(panic-path) -- pool is non-empty by
        // construction: it falls back to `remaining`, and the loop runs
        // only while `remaining` is non-empty.
        let next = *pool.iter().min_by_key(|&&i| (sizes[i], i)).unwrap();
        remaining.retain(|&i| i != next);
        for &aid in db.resolved_attrs(rels[next]) {
            bound[aid.index()] = true;
        }
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::evaluate;
    use crate::naive::evaluate_nested_loop;
    use crate::schema::attrs;

    /// The running example from Figure 1 of the paper.
    fn figure1_db() -> Database {
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

    fn figure1_atoms() -> Vec<RelationSchema> {
        vec![
            RelationSchema::new("R1", attrs(&["A", "B"])),
            RelationSchema::new("R2", attrs(&["B", "C"])),
            RelationSchema::new("R3", attrs(&["C", "E"])),
        ]
    }

    fn sorted_outputs(r: &EvalResult) -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = r.outputs().map(<[Value]>::to_vec).collect();
        v.sort();
        v
    }

    fn sorted_witnesses(r: &EvalResult) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = r.witnesses().map(<[u32]>::to_vec).collect();
        v.sort();
        v
    }

    #[test]
    fn plan_execute_matches_evaluate() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        for head in [attrs(&["A", "E"]), attrs(&["A", "B", "C", "E"]), vec![]] {
            let plan = QueryPlan::new(&db, &atoms, &head);
            let planned = plan.execute_once(&db);
            let classic = evaluate(&db, &atoms, &head);
            assert_eq!(sorted_outputs(&planned), sorted_outputs(&classic));
            assert_eq!(sorted_witnesses(&planned), sorted_witnesses(&classic));
        }
    }

    #[test]
    fn indexes_are_reusable_across_executions() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A", "E"]));
        let idx = plan.build_indexes(&db);
        let a = plan.execute(&db, &idx);
        let b = plan.execute(&db, &idx);
        assert_eq!(sorted_witnesses(&a), sorted_witnesses(&b));
        assert_eq!(a.output_count(), 3);
    }

    #[test]
    fn all_alive_mask_is_identity() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A", "E"]));
        let idx = plan.build_indexes(&db);
        let mask = AliveMask::all_alive(&db, &atoms);
        let masked = plan.execute_masked(&db, &idx, &mask);
        let full = plan.execute(&db, &idx);
        assert_eq!(sorted_witnesses(&masked), sorted_witnesses(&full));
        assert_eq!(sorted_outputs(&masked), sorted_outputs(&full));
    }

    #[test]
    fn masked_execution_matches_filtered_database() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        let head = attrs(&["A", "E"]);
        let plan = QueryPlan::new(&db, &atoms, &head);
        let idx = plan.build_indexes(&db);

        // Kill R3(c3,e3) — the paper's ADP(Q1, D, 2) answer.
        let c3e3 = db.expect("R3").index_of(&[3, 3]).unwrap();
        let mut mask = AliveMask::all_alive(&db, &atoms);
        assert!(mask.kill(2, c3e3));
        assert!(!mask.kill(2, c3e3), "second kill reports already-dead");
        let masked = plan.execute_masked(&db, &idx, &mask);

        // Reference: rebuild the database without the tuple.
        let mut db2 = Database::new();
        for (ai, atom) in atoms.iter().enumerate() {
            let rel = db.expect(atom.name());
            let (kept, _) = rel.filter_by_index(|i| mask.is_alive(ai, i));
            db2.add(kept);
        }
        let reference = evaluate_nested_loop(&db2, &atoms, &head);
        assert_eq!(sorted_outputs(&masked), sorted_outputs(&reference));
        assert_eq!(masked.witness_count(), reference.witness_count());
        // Original indices survive masking.
        for w in masked.witnesses() {
            assert!(mask.is_alive(2, w[2]));
        }
    }

    #[test]
    fn mask_revive_restores_results() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A", "E"]));
        let idx = plan.build_indexes(&db);
        let mut mask = AliveMask::all_alive(&db, &atoms);
        mask.kill(0, 0);
        assert_eq!(plan.execute_masked(&db, &idx, &mask).output_count(), 2);
        assert_eq!(mask.live_count(0), 2);
        mask.revive(0, 0);
        assert_eq!(plan.execute_masked(&db, &idx, &mask).output_count(), 3);
    }

    #[test]
    fn fully_masked_leading_atom_gives_empty_result() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A"]));
        let idx = plan.build_indexes(&db);
        let mut mask = AliveMask::all_alive(&db, &atoms);
        for i in 0..db.expect("R1").len() as u32 {
            mask.kill(0, i);
        }
        let r = plan.execute_masked(&db, &idx, &mask);
        assert_eq!(r.output_count(), 0);
        assert_eq!(r.witness_count(), 0);
    }

    #[test]
    fn kill_all_accepts_tuple_refs() {
        let db = figure1_db();
        let atoms = figure1_atoms();
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A", "E"]));
        let idx = plan.build_indexes(&db);
        let mut mask = AliveMask::all_alive(&db, &atoms);
        mask.kill_all(&[
            TupleRef::new(0, 0),
            TupleRef::new(0, 1),
            TupleRef::new(0, 2),
        ]);
        assert_eq!(plan.execute_masked(&db, &idx, &mask).output_count(), 0);
    }

    #[test]
    fn vacuum_atom_plans_and_executes() {
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("V", vec![], &[&[]]);
        let atoms = vec![
            RelationSchema::new("R", attrs(&["A"])),
            RelationSchema::new("V", vec![]),
        ];
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A"]));
        assert_eq!(plan.execute_once(&db).output_count(), 2);
    }

    /// A bigger chain instance with shared join keys and duplicate
    /// head projections, to exercise dedup across chunk boundaries.
    fn chain_db(n: u64) -> Database {
        let mut db = Database::new();
        let r1: Vec<Vec<Value>> = (0..n).map(|i| vec![i, i % 17]).collect();
        let r2: Vec<Vec<Value>> = (0..n).map(|i| vec![i % 17, i % 5]).collect();
        let r3: Vec<Vec<Value>> = (0..n).map(|i| vec![i % 5, i % 3]).collect();
        fn as_refs(rows: &[Vec<Value>]) -> Vec<&[Value]> {
            rows.iter().map(|r| &r[..]).collect()
        }
        db.add_relation("R1", attrs(&["A", "B"]), &as_refs(&r1));
        db.add_relation("R2", attrs(&["B", "C"]), &as_refs(&r2));
        db.add_relation("R3", attrs(&["C", "E"]), &as_refs(&r3));
        db
    }

    #[test]
    fn partitioned_index_matches_flat_index() {
        let db = chain_db(500);
        let atoms = figure1_atoms();
        let plan = QueryPlan::new(&db, &atoms, &attrs(&["A", "E"]));
        let pool = ThreadPool::new(4);
        let flat = plan.build_indexes_on(&db, &pool, Some(1));
        for parts in [2usize, 8, 16] {
            let split = plan.build_indexes_on(&db, &pool, Some(parts));
            assert_eq!(split.partition_counts()[1], parts);
            // Identical results through either index.
            assert_eq!(plan.execute(&db, &flat), plan.execute(&db, &split));
            for (f, s) in flat.per_step.iter().zip(&split.per_step) {
                let (Some(f), Some(s)) = (f.as_ref(), s.as_ref()) else {
                    continue;
                };
                assert_eq!(f.entry_count(), s.entry_count());
                for (key, list) in f.flat_parts()[0].iter() {
                    assert_eq!(&s.matches(key), list, "key {key:?}");
                }
            }
        }
    }

    #[test]
    fn partitioned_build_is_pool_size_invariant() {
        let db = chain_db(300);
        let plan = QueryPlan::new(&db, &figure1_atoms(), &attrs(&["A", "E"]));
        let one = plan.build_indexes_on(&db, &ThreadPool::new(1), Some(8));
        let four = plan.build_indexes_on(&db, &ThreadPool::new(4), Some(8));
        for (a, b) in one.per_step.iter().zip(&four.per_step) {
            match (a.as_ref(), b.as_ref()) {
                (Some(a), Some(b)) => assert_eq!(a.flat_parts(), b.flat_parts()),
                (None, None) => {}
                _ => panic!("index presence differs"),
            }
        }
    }

    /// A sealed (segmented) store must evaluate byte-identically to the
    /// unsegmented original — and, after tombstoning, to a from-scratch
    /// database holding only the live tuples. This is the engine half of
    /// the COW-epoch contract: plans and provenance never see segments,
    /// only the dense view.
    #[test]
    fn segmented_store_executes_byte_identically() {
        let db = chain_db(400);
        let atoms = figure1_atoms();
        let pool = ThreadPool::new(4);
        for head in [attrs(&["A", "E"]), attrs(&["B"]), vec![]] {
            let plan = QueryPlan::new(&db, &atoms, &head);
            let baseline = plan.execute_once(&db);

            let mut sealed = db.clone();
            sealed.seal_all(64);
            let idx = plan.build_indexes(&sealed);
            assert_eq!(plan.execute(&sealed, &idx), baseline);
            // Pool-built segmented indexes answer identically too.
            let idx_on = plan.build_indexes_on(&sealed, &pool, None);
            assert_eq!(plan.execute_on(&sealed, &idx_on, None, &pool), baseline);

            // Tombstone a spread of every relation, then compare against
            // a database rebuilt from the live view.
            for name in ["R1", "R2", "R3"] {
                let id = sealed.rel_id(name).unwrap();
                let n = crate::ids::dense_id(sealed.relation_by_id(id).len(), "test rows");
                for s in (0..n).step_by(7) {
                    assert!(sealed.relation_mut_by_id(id).delete_stable(s));
                }
            }
            let mut oracle = Database::new();
            for name in ["R1", "R2", "R3"] {
                let (kept, _) = sealed.expect(name).filter_by_index(|_| true);
                oracle.add(kept);
            }
            let plan_s = QueryPlan::new(&sealed, &atoms, &head);
            let plan_o = QueryPlan::new(&oracle, &atoms, &head);
            let got = plan_s.execute(&sealed, &plan_s.build_indexes(&sealed));
            let want = plan_o.execute(&oracle, &plan_o.build_indexes(&oracle));
            assert_eq!(got, want, "head {head:?}");
        }
    }

    #[test]
    fn chunked_execution_is_byte_identical() {
        let db = chain_db(400);
        let atoms = figure1_atoms();
        let pool = ThreadPool::new(4);
        for head in [attrs(&["A", "E"]), attrs(&["B"]), vec![]] {
            let plan = QueryPlan::new(&db, &atoms, &head);
            let idx = plan.build_indexes_on(&db, &pool, Some(4));
            let seq = plan.execute_chunked(&db, &idx, None, &pool, 1);
            for chunks in [2usize, 3, 7, 64] {
                let par = plan.execute_chunked(&db, &idx, None, &pool, chunks);
                assert_eq!(seq, par, "chunks={chunks}");
            }
            // Masked path, killing a spread of tuples.
            let mut mask = AliveMask::all_alive(&db, &atoms);
            for i in (0..db.expect("R1").len() as u32).step_by(3) {
                mask.kill(0, i);
            }
            for i in (0..db.expect("R2").len() as u32).step_by(5) {
                mask.kill(1, i);
            }
            let seq = plan.execute_chunked(&db, &idx, Some(&mask), &pool, 1);
            let par = plan.execute_chunked(&db, &idx, Some(&mask), &pool, 8);
            assert_eq!(seq, par);
            assert_eq!(seq, plan.execute_on(&db, &idx, Some(&mask), &pool));
        }

        // An arity-3 head whose 600 keys differ only in the last column:
        // every lead tuple reaches all of them, so each chunk's output
        // table grows several times, and every later chunk re-finds
        // chunk 0's keys in the merge.
        let mut wide = Database::new();
        let leads: Vec<Vec<Value>> = (0..12).map(|b| vec![5, b]).collect();
        let links: Vec<Vec<Value>> = (0..12).map(|b| vec![b, 9]).collect();
        let tails: Vec<Vec<Value>> = (0..600).map(|e| vec![9, 1000 + e]).collect();
        for (name, schema, rows) in [
            ("R1", ["A", "B"], &leads),
            ("R2", ["B", "C"], &links),
            ("R3", ["C", "E"], &tails),
        ] {
            let rows: Vec<&[Value]> = rows.iter().map(|r| &r[..]).collect();
            wide.add_relation(name, attrs(&schema), &rows);
        }
        let head = attrs(&["A", "C", "E"]);
        let plan = QueryPlan::new(&wide, &atoms, &head);
        let idx = plan.build_indexes_on(&wide, &pool, Some(4));
        let seq = plan.execute_chunked(&wide, &idx, None, &pool, 1);
        assert_eq!(seq.output_count(), 600);
        assert_eq!(seq.witness_count(), 12 * 600);
        let want: Vec<Vec<Value>> = (0..600).map(|e| vec![5, 9, 1000 + e]).collect();
        assert_eq!(sorted_outputs(&seq), want);
        assert_eq!(
            sorted_outputs(&seq),
            sorted_outputs(&evaluate_nested_loop(&wide, &atoms, &head))
        );
        for chunks in [2usize, 3, 7, 12] {
            let par = plan.execute_chunked(&wide, &idx, None, &pool, chunks);
            assert_eq!(seq, par, "wide head, chunks={chunks}");
        }
    }

    #[test]
    fn chunk_count_exceeding_candidates_is_fine() {
        let db = figure1_db();
        let plan = QueryPlan::new(&db, &figure1_atoms(), &attrs(&["A", "E"]));
        let pool = ThreadPool::new(2);
        let idx = plan.build_indexes_on(&db, &pool, None);
        let seq = plan.execute(&db, &idx);
        let par = plan.execute_chunked(&db, &idx, None, &pool, 1000);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "not in database")]
    fn unknown_relation_rejected_at_plan_time() {
        let db = figure1_db();
        let atoms = vec![RelationSchema::new("Nope", attrs(&["A"]))];
        QueryPlan::new(&db, &atoms, &[]);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn schema_mismatch_rejected_at_plan_time() {
        let db = figure1_db();
        let atoms = vec![RelationSchema::new("R1", attrs(&["A", "Z"]))];
        QueryPlan::new(&db, &atoms, &[]);
    }
}
