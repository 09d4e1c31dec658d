//! Relation instances: a schema plus a segmented columnar tuple store.
//!
//! Storage is column-oriented and value-interned: every attribute value
//! (`u64`) is mapped through a per-relation interner to a dense `u32`
//! *symbol*, and each attribute position holds one dense `Vec<u32>`
//! symbol column. A 10M-row arity-2 relation is therefore two 40 MB
//! arrays plus the interner — no per-tuple heap allocation, no boxed
//! rows. Set semantics are enforced by an open-addressing dedup table
//! that stores only tuple ids and probes the columns directly, so a
//! tuple is stored exactly once.
//!
//! # Segments, overlays, and epochs
//!
//! An instance has two storage tiers:
//!
//! * **Sealed segments** ([`Segment`]): immutable column chunks shared
//!   by `Arc` across clones. A segment never changes after
//!   [`seal`](RelationInstance::seal); mutation state lives *next to*
//!   it as a per-clone sorted tombstone overlay (copy-on-write via
//!   `Arc::make_mut`, so a Δ-row mutation clones O(overlay), not the
//!   columns).
//! * **The tail**: a plain mutable columnar store for rows inserted
//!   after the last seal, exactly the pre-segmentation representation.
//!
//! Every tuple carries a permanent **stable id** — its insertion
//! sequence number — which survives seals and compactions and is the
//! coordinate mutations are expressed in ([`delete_stable`],
//! [`restore_stable`]). The **dense view** (what [`len`], [`indices`],
//! [`tuple`], the planner and the solvers see) enumerates live rows in
//! stable order, so it is byte-identical to a from-scratch store built
//! by inserting the live tuples in their original order. Rank/select
//! arithmetic over the sorted tombstone overlays converts between the
//! two coordinate systems in O(log overlay).
//!
//! [`maybe_compact`] physically drops tombstoned rows from a segment
//! once their ratio passes a threshold, replacing the `Arc` — clones
//! holding the old epoch keep the old segment alive until they drop.
//!
//! [`delete_stable`]: RelationInstance::delete_stable
//! [`restore_stable`]: RelationInstance::restore_stable
//! [`len`]: RelationInstance::len
//! [`indices`]: RelationInstance::indices
//! [`tuple`]: RelationInstance::tuple
//! [`maybe_compact`]: RelationInstance::maybe_compact

use crate::error::AdpError;
use crate::keytable::{place, probe_slots, EMPTY, LOAD_DEN, LOAD_NUM};
use crate::schema::{Attr, RelationSchema};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// An owned tuple, used at API boundaries (storage itself is columnar).
pub type Tuple = Box<[Value]>;

/// Accounting estimate for one cached per-segment index entry (key box,
/// posting vec headers, bucket control); mirrors the planner's estimate.
const SEG_INDEX_ENTRY_BYTES: usize = 48;

/// Sentinel "segment" number meaning the mutable tail.
const TAIL_SEG: usize = usize::MAX;

/// The next dense id for a store of `len` entries, or
/// [`AdpError::RelationFull`] once the `u32` space (minus the reserved
/// [`EMPTY`] sentinel) is exhausted. Both id spaces of the store — tuple
/// indices and interned symbols — allocate through this one checked
/// gate, so no `as u32` truncation exists on the insert path.
fn checked_next_id(len: usize, relation: &str, what: &'static str) -> Result<u32, AdpError> {
    match u32::try_from(len) {
        Ok(id) if id != EMPTY => Ok(id),
        _ => Err(AdpError::RelationFull {
            relation: relation.to_owned(),
            what,
        }),
    }
}

/// FNV-1a over a symbol row; the dedup tables' hash function. Symbols
/// are injective in values, so hashing symbols is hashing the tuple.
#[inline]
fn hash_syms(syms: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &s in syms {
        for b in s.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Number of tombstones strictly below local row `l` (sorted input).
#[inline]
fn rank_below(tombs: &[u32], l: u32) -> u32 {
    crate::ids::dense_id(tombs.partition_point(|&t| t < l), "tombstone ranks")
}

/// Is local row `l` tombstoned?
#[inline]
fn is_dead(tombs: &[u32], l: u32) -> bool {
    tombs.binary_search(&l).is_ok()
}

/// The local row holding the `rank`-th (0-based) live entry: the
/// smallest live `l` with exactly `rank` live rows below it. Binary
/// search over `[rank, rank + tombs.len()]`.
#[inline]
fn select_alive(tombs: &[u32], rank: u32) -> u32 {
    if tombs.is_empty() {
        return rank;
    }
    let mut lo = rank as usize;
    let mut hi = rank as usize + tombs.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // live rows in [0, mid] = (mid + 1) - tombstones ≤ mid.
        let t = tombs.partition_point(|&x| x as usize <= mid);
        if mid + 1 - t > rank as usize {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    crate::ids::dense_id(lo, "tombstone ranks")
}

/// The relation-local value interner: symbol → value and value → symbol.
/// Shared (`Arc`) between the tail and every sealed segment; append-only,
/// so a symbol minted once stays valid in every epoch. Copy-on-write:
/// interning a brand-new value after a clone copies the table once.
#[derive(Clone, Debug, Default)]
struct Symbols {
    /// symbol → value (reverse side of the interner).
    values: Vec<Value>,
    /// value → symbol.
    of: HashMap<Value, u32>,
}

impl Symbols {
    #[inline]
    fn get(&self, v: Value) -> Option<u32> {
        self.of.get(&v).copied()
    }

    #[inline]
    fn value(&self, sym: u32) -> Value {
        self.values[sym as usize]
    }

    fn approx_bytes(&self) -> usize {
        // HashMap<Value, u32>: key + value + bucket control, estimated.
        self.values.capacity() * 8 + self.of.capacity() * (8 + 4 + 4)
    }
}

/// How a segment maps local rows to stable ids.
#[derive(Clone, Debug)]
enum StableIds {
    /// `stable = stable_lo + local` — freshly sealed chunks.
    Contiguous,
    /// Explicit sorted stable id per local row — post-compaction gaps.
    Explicit(Box<[u32]>),
}

/// One immutable sealed chunk of a relation: columns, a private dedup
/// table, the stable-id range it covers, and a cache of join indexes
/// keyed by bound attribute positions. Never mutated after
/// construction; shared by `Arc` across epoch snapshots, so a segment's
/// cached indexes are reused by every epoch that contains it.
#[derive(Debug)]
pub struct Segment {
    /// `columns[pos][local]` = symbol of attribute `pos` in local row.
    columns: Vec<Vec<u32>>,
    rows: u32,
    /// Open-addressing dedup over local rows.
    dedup: Vec<u32>,
    /// Stable-id range `[stable_lo, stable_hi)` this segment covers —
    /// fixed at seal time, preserved across compactions (a compacted
    /// segment still "owns" the ids of rows it dropped, so restores
    /// find their way home).
    stable_lo: u32,
    stable_hi: u32,
    stable: StableIds,
    /// Cached join indexes: bound positions → local-row postings.
    /// Tombstone-independent, hence valid in every epoch.
    indexes: Mutex<SegIndexCache>,
}

/// A per-segment join index: bound-value key → local rows (ascending).
pub(crate) type SegIndex = HashMap<Box<[Value]>, Vec<u32>>;

/// Cached indexes of one segment, keyed by bound attribute positions.
type SegIndexCache = Vec<(Box<[u32]>, Arc<SegIndex>)>;

impl Segment {
    #[inline]
    fn stable_of_local(&self, l: u32) -> u32 {
        match &self.stable {
            StableIds::Contiguous => self.stable_lo + l,
            StableIds::Explicit(ids) => ids[l as usize],
        }
    }

    fn local_of_stable(&self, stable: u32) -> Option<u32> {
        match &self.stable {
            StableIds::Contiguous => (self.stable_lo..self.stable_hi)
                .contains(&stable)
                .then(|| stable - self.stable_lo),
            StableIds::Explicit(ids) => ids
                .binary_search(&stable)
                .ok()
                .map(|p| crate::ids::dense_id(p, "segment rows")),
        }
    }

    /// Is stored local row `row` exactly the symbol sequence `syms`?
    #[inline]
    fn row_eq_syms(&self, row: u32, syms: &[u32]) -> bool {
        self.columns
            .iter()
            .zip(syms)
            .all(|(c, &s)| c[row as usize] == s)
    }

    fn probe(&self, h: u64, syms: &[u32]) -> Option<u32> {
        probe_slots(&self.dedup, h, |e| self.row_eq_syms(e, syms))
    }

    /// Rebuilds the dedup table from the columns.
    fn rebuild_dedup(&mut self) {
        let capacity = ((self.rows as usize) * LOAD_DEN / LOAD_NUM + 1)
            .next_power_of_two()
            .max(16);
        let mut slots = vec![EMPTY; capacity];
        let mut syms = Vec::with_capacity(self.columns.len());
        for row in 0..self.rows {
            syms.clear();
            syms.extend(self.columns.iter().map(|c| c[row as usize]));
            place(&mut slots, hash_syms(&syms), row);
        }
        self.dedup = slots;
    }

    /// Builds the join index for `bound_pos` over every physical row
    /// (tombstone-independent: overlays are applied at probe time).
    fn build_index(&self, bound_pos: &[u32], syms: &Symbols) -> SegIndex {
        let mut map: SegIndex = HashMap::new();
        let mut key: Vec<Value> = Vec::with_capacity(bound_pos.len());
        for l in 0..self.rows {
            key.clear();
            key.extend(
                bound_pos
                    .iter()
                    .map(|&p| syms.value(self.columns[p as usize][l as usize])),
            );
            map.entry(key.as_slice().into()).or_default().push(l);
        }
        map
    }

    fn cached_index(&self, bound_pos: &[u32]) -> Option<Arc<SegIndex>> {
        let cache = self.indexes.lock().unwrap_or_else(PoisonError::into_inner);
        cache
            .iter()
            .find(|(k, _)| &k[..] == bound_pos)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Registers `built` for `bound_pos` (first writer wins) and returns
    /// the cached copy.
    fn store_index(&self, bound_pos: &[u32], built: SegIndex) -> Arc<SegIndex> {
        let mut cache = self.indexes.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, v)) = cache.iter().find(|(k, _)| &k[..] == bound_pos) {
            return Arc::clone(v);
        }
        let arc = Arc::new(built);
        cache.push((bound_pos.into(), Arc::clone(&arc)));
        arc
    }

    fn approx_bytes(&self) -> usize {
        let columns: usize = self.columns.iter().map(|c| c.capacity() * 4).sum();
        let stable = match &self.stable {
            StableIds::Contiguous => 0,
            StableIds::Explicit(ids) => ids.len() * 4,
        };
        let cache = self.indexes.lock().unwrap_or_else(PoisonError::into_inner);
        let idx: usize = cache
            .iter()
            .map(|(k, m)| k.len() * 4 + m.len() * SEG_INDEX_ENTRY_BYTES)
            .sum();
        columns + self.dedup.len() * 4 + stable + idx
    }
}

/// A sealed segment plus this clone's tombstone overlay for it. Cloning
/// is two `Arc` bumps; the overlay copies on first write
/// (`Arc::make_mut`), leaving sibling epochs untouched.
#[derive(Clone, Debug)]
struct SegState {
    seg: Arc<Segment>,
    /// Sorted tombstoned local rows.
    tombs: Arc<Vec<u32>>,
}

impl SegState {
    #[inline]
    fn live(&self) -> usize {
        self.seg.rows as usize - self.tombs.len()
    }
}

/// A probe handle for one segment inside a [`crate::plan::StepIndex`]:
/// the (shared, cached) per-segment index, this epoch's tombstone
/// overlay, and the segment's dense offset in this epoch's view.
#[derive(Clone, Debug)]
pub(crate) struct SegProbe {
    index: Arc<SegIndex>,
    tombs: Arc<Vec<u32>>,
    start: u32,
}

impl SegProbe {
    /// Appends the dense ids matching `key` (ascending), applying the
    /// tombstone overlay and the local→dense rank shift.
    pub(crate) fn extend_matches(&self, key: &[Value], out: &mut Vec<u32>) {
        let Some(list) = self.index.get(key) else {
            return;
        };
        if self.tombs.is_empty() {
            out.extend(list.iter().map(|&l| self.start + l));
            return;
        }
        for &l in list {
            let r = rank_below(&self.tombs, l);
            if self.tombs.get(r as usize) == Some(&l) {
                continue; // tombstoned in this epoch
            }
            out.push(self.start + l - r);
        }
    }

    /// Distinct keys in the underlying segment index.
    pub(crate) fn entry_count(&self) -> usize {
        self.index.len()
    }
}

/// A relation instance: schema + segmented columnar tuple store.
///
/// Tuples are deduplicated on insert (set semantics, as in the paper).
/// Tuple *indices* are stable within one snapshot: deletions used by the
/// solvers are expressed as "alive" masks layered on top (see
/// [`crate::provenance`]), so an index handed out once refers to the
/// same tuple for that snapshot's lifetime. Across epochs, tuples are
/// addressed by their permanent stable id (see the module docs).
#[derive(Clone, Debug)]
pub struct RelationInstance {
    schema: RelationSchema,
    /// Shared append-only interner (tail + all segments).
    interner: Arc<Symbols>,
    /// Sealed segments, in stable-id order.
    sealed: Vec<SegState>,
    /// `starts[i]` = dense id of segment `i`'s first live row;
    /// `starts[sealed.len()]` = the tail's dense offset. Never empty.
    starts: Vec<u32>,
    /// `columns[pos][row]` = symbol of attribute `pos` in tail row.
    columns: Vec<Vec<u32>>,
    /// Number of stored tail rows (columns may be empty for vacuum
    /// schemas).
    rows: u32,
    /// Open-addressing dedup over tail rows: tuple ids, probed against
    /// the columns. Power-of-two capacity, linear probing, every stored
    /// row present exactly once. No keys are stored — this is the "one
    /// stored copy per tuple" invariant.
    dedup: Vec<u32>,
    /// Scratch symbol buffer reused across inserts.
    scratch: Vec<u32>,
    /// Stable id of tail row 0 (== total rows ever sealed).
    tail_stable_lo: u32,
    /// Sorted tombstoned tail rows.
    tail_tombs: Vec<u32>,
}

impl RelationInstance {
    /// Creates an empty instance of `schema`.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity();
        RelationInstance {
            schema,
            interner: Arc::new(Symbols::default()),
            sealed: Vec::new(),
            starts: vec![0],
            columns: vec![Vec::new(); arity],
            rows: 0,
            dedup: Vec::new(),
            scratch: Vec::new(),
            tail_stable_lo: 0,
            tail_tombs: Vec::new(),
        }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Relation name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Pre-allocates room for `additional` more tuples, so streaming
    /// builders (e.g. the 10M-row `adp-datagen` generators) pay no
    /// incremental reallocation.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve(additional);
        }
        let want = (self.rows as usize + additional) * LOAD_DEN / LOAD_NUM + 1;
        if want > self.dedup.len() {
            self.rebuild_dedup(want.next_power_of_two());
        }
    }

    /// Dense offset of the tail (== live rows across all segments).
    #[inline]
    fn sealed_live(&self) -> u32 {
        self.starts[self.starts.len() - 1]
    }

    /// Live tuples, as the dense `u32` count.
    #[inline]
    fn live_u32(&self) -> u32 {
        self.sealed_live() + self.rows - rank_below(&self.tail_tombs, self.rows)
    }

    /// Dense id of live segment row `(i, local)` in this epoch's view.
    #[inline]
    fn seg_dense(&self, i: usize, local: u32) -> u32 {
        self.starts[i] + local - rank_below(&self.sealed[i].tombs, local)
    }

    /// Dense id of live tail row `local` in this epoch's view.
    #[inline]
    fn tail_dense(&self, local: u32) -> u32 {
        self.sealed_live() + local - rank_below(&self.tail_tombs, local)
    }

    /// Physical coordinates of dense id `idx`: `(TAIL_SEG, tail row)` or
    /// `(segment, local row)`.
    #[inline]
    fn phys(&self, idx: u32) -> (usize, u32) {
        if self.sealed.is_empty() && self.tail_tombs.is_empty() {
            return (TAIL_SEG, idx); // unsegmented fast path
        }
        self.phys_slow(idx)
    }

    fn phys_slow(&self, idx: u32) -> (usize, u32) {
        let tail_start = self.sealed_live();
        if idx >= tail_start {
            return (TAIL_SEG, select_alive(&self.tail_tombs, idx - tail_start));
        }
        let i = self.starts.partition_point(|&s| s <= idx) - 1;
        let rank = idx - self.starts[i];
        (i, select_alive(&self.sealed[i].tombs, rank))
    }

    /// Inserts a tuple, returning its dense index in the current view.
    /// Duplicate inserts return the existing index; inserting a tuple
    /// that exists only tombstoned *revives* it in place (set
    /// semantics). Panics if the arity does not match the schema or the
    /// id space is exhausted; use [`try_insert`](Self::try_insert) for a
    /// typed error instead.
    pub fn insert(&mut self, tuple: &[Value]) -> u32 {
        // adp-lint: allow(panic-path) -- documented panicking convenience
        // wrapper; try_insert is the checked API.
        self.try_insert(tuple).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`insert`](Self::insert) with a typed error: rejects tuples whose
    /// length disagrees with the schema's arity as
    /// [`AdpError::ArityMismatch`], and a store whose dense `u32` id
    /// space is exhausted as [`AdpError::RelationFull`], instead of
    /// panicking.
    pub fn try_insert(&mut self, tuple: &[Value]) -> Result<u32, AdpError> {
        if tuple.len() != self.schema.arity() {
            return Err(AdpError::ArityMismatch {
                relation: self.schema.name().to_owned(),
                expected: self.schema.arity(),
                got: tuple.len(),
            });
        }
        // Map values to symbols. A value the interner has never seen
        // makes the tuple definitely fresh in *every* tier (the interner
        // is shared with the segments) — no probe needed.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let mut all_known = true;
        for &v in tuple {
            match self.interner.get(v) {
                Some(s) => scratch.push(s),
                None => {
                    all_known = false;
                    break;
                }
            }
        }
        if all_known {
            let h = hash_syms(&scratch);
            if let Some(idx) = self.find_or_revive(h, &scratch) {
                self.scratch = scratch;
                return Ok(idx);
            }
            let idx = self.append_syms(&scratch, h);
            self.scratch = scratch;
            return idx;
        }
        // Fresh tuple: intern the remaining values, then append.
        scratch.clear();
        for &v in tuple {
            match self.intern_value(v) {
                Ok(s) => scratch.push(s),
                Err(e) => {
                    self.scratch = scratch;
                    return Err(e);
                }
            }
        }
        let h = hash_syms(&scratch);
        let idx = self.append_syms(&scratch, h);
        self.scratch = scratch;
        idx
    }

    /// Looks for a physical copy of `syms` in any tier. An alive hit
    /// returns its dense id; a tombstoned hit is revived first (the
    /// store holds at most one physical copy of a tuple, so insert ==
    /// un-delete).
    fn find_or_revive(&mut self, h: u64, syms: &[u32]) -> Option<u32> {
        for i in 0..self.sealed.len() {
            if let Some(l) = self.sealed[i].seg.probe(h, syms) {
                if is_dead(&self.sealed[i].tombs, l) {
                    let tombs = Arc::make_mut(&mut self.sealed[i].tombs);
                    if let Ok(p) = tombs.binary_search(&l) {
                        tombs.remove(p);
                    }
                    self.refresh_starts();
                }
                return Some(self.seg_dense(i, l));
            }
        }
        let l = probe_slots(&self.dedup, h, |e| self.row_eq_tail(e, syms))?;
        if let Ok(p) = self.tail_tombs.binary_search(&l) {
            self.tail_tombs.remove(p);
        }
        Some(self.tail_dense(l))
    }

    /// Bulk insert.
    pub fn extend<I: IntoIterator<Item = Vec<Value>>>(&mut self, iter: I) {
        for t in iter {
            self.insert(&t);
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live_u32() as usize
    }

    /// True if the instance holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.live_u32() == 0
    }

    /// Every live tuple index, `0..len()`, as the dense `u32` ids the
    /// engine uses everywhere. Iterating this instead of `0..len() as
    /// u32` keeps callers free of truncating casts — the store itself
    /// guarantees indices fit (see [`AdpError::RelationFull`]).
    pub fn indices(&self) -> std::ops::Range<u32> {
        0..self.live_u32()
    }

    /// Number of distinct interned values in this relation.
    pub fn symbol_count(&self) -> usize {
        self.interner.values.len()
    }

    /// Estimated resident bytes of the store: segment + tail columns,
    /// interner, dedup tables, tombstone overlays, and cached segment
    /// indexes. An accounting estimate (it ignores allocator slack),
    /// used by [`crate::database::Database::memory_report`] and the size
    /// regression tests.
    pub fn approx_bytes(&self) -> usize {
        let tail: usize = self.columns.iter().map(|c| c.capacity() * 4).sum();
        let segs: usize = self
            .sealed
            .iter()
            .map(|s| s.seg.approx_bytes() + s.tombs.len() * 4)
            .sum();
        tail + segs
            + self.interner.approx_bytes()
            + self.dedup.len() * 4
            + self.tail_tombs.len() * 4
    }

    /// The value at tuple `idx`, attribute position `pos` — the columnar
    /// hot-path accessor (two dense array reads on the unsegmented fast
    /// path; plus an O(log segments + log overlay) coordinate hop once
    /// sealed).
    #[inline]
    pub fn value_at(&self, idx: u32, pos: usize) -> Value {
        self.interner.value(self.symbol_at(idx, pos))
    }

    /// The interned symbol at tuple `idx`, position `pos`. Symbols are
    /// relation-local dense ids; equal symbols ⇔ equal values.
    #[inline]
    pub fn symbol_at(&self, idx: u32, pos: usize) -> u32 {
        match self.phys(idx) {
            (TAIL_SEG, l) => self.columns[pos][l as usize],
            (i, l) => self.sealed[i].seg.columns[pos][l as usize],
        }
    }

    /// A zero-copy view of the tuple at `idx`.
    #[inline]
    pub fn tuple(&self, idx: u32) -> TupleView<'_> {
        debug_assert!(
            idx < self.live_u32(),
            "tuple index {idx} out of {}",
            self.live_u32()
        );
        TupleView { rel: self, idx }
    }

    /// The tuple at `idx`, materialized (cold paths and API boundaries).
    pub fn tuple_vec(&self, idx: u32) -> Vec<Value> {
        (0..self.schema.arity())
            .map(|p| self.value_at(idx, p))
            .collect()
    }

    /// Iterates over all live tuples, in index order.
    pub fn iter(&self) -> impl Iterator<Item = TupleView<'_>> {
        self.indices().map(move |i| self.tuple(i))
    }

    /// All live tuples, materialized in index order (tests/presentation;
    /// the store itself is columnar).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.indices().map(|i| self.tuple_vec(i)).collect()
    }

    /// Does the instance contain exactly this tuple (alive)?
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.index_of(tuple).is_some()
    }

    /// Dense index of `tuple` if present and alive.
    pub fn index_of(&self, tuple: &[Value]) -> Option<u32> {
        if tuple.len() != self.schema.arity() {
            return None;
        }
        let syms: Option<Vec<u32>> = tuple.iter().map(|&v| self.interner.get(v)).collect();
        let syms = syms?;
        let h = hash_syms(&syms);
        for (i, s) in self.sealed.iter().enumerate() {
            if let Some(l) = s.seg.probe(h, &syms) {
                // At most one physical copy exists across all tiers.
                return (!is_dead(&s.tombs, l)).then(|| self.seg_dense(i, l));
            }
        }
        let l = probe_slots(&self.dedup, h, |e| self.row_eq_tail(e, &syms))?;
        (!is_dead(&self.tail_tombs, l)).then(|| self.tail_dense(l))
    }

    /// Projects tuple `idx` onto the attributes `on` (which must all be in
    /// the schema), in the order given.
    pub fn project(&self, idx: u32, on: &[Attr]) -> Vec<Value> {
        on.iter()
            .map(|a| {
                let p = self
                    .schema
                    .position(a)
                    // adp-lint: allow(panic-path) -- documented contract:
                    // `on` must name schema attributes; projections are
                    // built from validated plans.
                    .unwrap_or_else(|| panic!("attribute {a} not in {}", self.schema));
                self.value_at(idx, p)
            })
            .collect()
    }

    /// A new (unsegmented) instance keeping only the tuples whose dense
    /// index passes `keep`. The surviving tuples get fresh dense
    /// indices; the returned map sends new index → old index.
    pub fn filter_by_index<F: Fn(u32) -> bool>(&self, keep: F) -> (RelationInstance, Vec<u32>) {
        let mut out = RelationInstance::new(self.schema.clone());
        let mut back = Vec::new();
        let mut buf = Vec::with_capacity(self.schema.arity());
        for idx in self.indices() {
            if keep(idx) {
                buf.clear();
                buf.extend((0..self.schema.arity()).map(|p| self.value_at(idx, p)));
                out.insert(&buf);
                back.push(idx);
            }
        }
        (out, back)
    }

    /// A new instance with the attributes in `remove` projected away.
    /// Projection can merge tuples; the returned map sends old index → new
    /// index.
    pub fn project_away(&self, remove: &[Attr]) -> (RelationInstance, Vec<u32>) {
        let schema = self.schema.without_attrs(remove);
        let keep_attrs: Vec<Attr> = schema.attrs().to_vec();
        let mut out = RelationInstance::new(schema);
        let mut fwd = Vec::with_capacity(self.len());
        for idx in self.indices() {
            let proj = self.project(idx, &keep_attrs);
            fwd.push(out.insert(&proj));
        }
        (out, fwd)
    }

    // ------------------------------------------------------------------
    // Epoch mechanics: seal / tombstone / restore / compact.
    // ------------------------------------------------------------------

    /// Moves every tail row into immutable sealed segments of at most
    /// `target_rows` rows each. Stable ids, the dense view, and pending
    /// tail tombstones are all preserved (tombstones migrate into the
    /// new segments' overlays). After sealing, a clone of this instance
    /// shares all column data by `Arc` and a Δ-row mutation costs
    /// O(Δ + overlay), not O(n).
    pub fn seal(&mut self, target_rows: usize) {
        if self.rows == 0 {
            return;
        }
        let total = self.rows as usize;
        let target = target_rows.max(1);
        let mut start = 0usize;
        while start < total {
            let end = start.saturating_add(target).min(total);
            let lo32 = crate::ids::dense_id(start, "segment rows");
            let rows32 = crate::ids::dense_id(end - start, "segment rows");
            let mut seg = Segment {
                columns: self
                    .columns
                    .iter()
                    .map(|c| c[start..end].to_vec())
                    .collect(),
                rows: rows32,
                dedup: Vec::new(),
                stable_lo: self.tail_stable_lo + lo32,
                stable_hi: self.tail_stable_lo + lo32 + rows32,
                stable: StableIds::Contiguous,
                indexes: Mutex::new(Vec::new()),
            };
            seg.rebuild_dedup();
            let t0 = self.tail_tombs.partition_point(|&t| (t as usize) < start);
            let t1 = self.tail_tombs.partition_point(|&t| (t as usize) < end);
            let tombs: Vec<u32> = self.tail_tombs[t0..t1].iter().map(|&t| t - lo32).collect();
            self.sealed.push(SegState {
                seg: Arc::new(seg),
                tombs: Arc::new(tombs),
            });
            start = end;
        }
        self.tail_stable_lo =
            crate::ids::dense_id(self.tail_stable_lo as usize + total, "tuple ids");
        self.columns = vec![Vec::new(); self.schema.arity()];
        self.rows = 0;
        self.dedup = Vec::new();
        self.tail_tombs.clear();
        self.refresh_starts();
    }

    /// Tombstones the tuple with stable id `stable`. Returns `false` if
    /// the id is out of range, already tombstoned, or was physically
    /// compacted away. O(log segments + overlay) — never touches column
    /// data.
    pub fn delete_stable(&mut self, stable: u32) -> bool {
        if stable >= self.tail_stable_lo {
            let local = stable - self.tail_stable_lo;
            if local >= self.rows {
                return false;
            }
            match self.tail_tombs.binary_search(&local) {
                Ok(_) => false,
                Err(p) => {
                    self.tail_tombs.insert(p, local);
                    true
                }
            }
        } else {
            let Some(i) = self.seg_of_stable(stable) else {
                return false;
            };
            let Some(local) = self.sealed[i].seg.local_of_stable(stable) else {
                return false;
            };
            let tombs = Arc::make_mut(&mut self.sealed[i].tombs);
            match tombs.binary_search(&local) {
                Ok(_) => false,
                Err(p) => {
                    tombs.insert(p, local);
                    self.refresh_starts();
                    true
                }
            }
        }
    }

    /// Undoes [`delete_stable`](Self::delete_stable): brings the tuple
    /// with stable id `stable` back to life at its original position in
    /// the dense order. `values` must be the tuple's original values —
    /// they are only consulted when the row was physically compacted
    /// away and has to be re-materialized into its segment. Returns
    /// `false` if the id is out of range or already alive.
    pub fn restore_stable(&mut self, stable: u32, values: &[Value]) -> bool {
        if stable >= self.tail_stable_lo {
            let local = stable - self.tail_stable_lo;
            if local >= self.rows {
                return false;
            }
            match self.tail_tombs.binary_search(&local) {
                Ok(p) => {
                    self.tail_tombs.remove(p);
                    true
                }
                Err(_) => false,
            }
        } else {
            let Some(i) = self.seg_of_stable(stable) else {
                return false;
            };
            if let Some(local) = self.sealed[i].seg.local_of_stable(stable) {
                let tombs = Arc::make_mut(&mut self.sealed[i].tombs);
                match tombs.binary_search(&local) {
                    Ok(p) => {
                        tombs.remove(p);
                        self.refresh_starts();
                        true
                    }
                    Err(_) => false,
                }
            } else {
                if values.len() != self.schema.arity() {
                    return false;
                }
                let mut syms = Vec::with_capacity(values.len());
                for &v in values {
                    match self.intern_value(v) {
                        Ok(s) => syms.push(s),
                        Err(_) => return false,
                    }
                }
                self.reinsert_into_segment(i, stable, &syms);
                self.refresh_starts();
                true
            }
        }
    }

    /// The segment whose stable-id range contains `stable`, if any.
    fn seg_of_stable(&self, stable: u32) -> Option<usize> {
        let i = self.sealed.partition_point(|s| s.seg.stable_hi <= stable);
        (i < self.sealed.len() && self.sealed[i].seg.stable_lo <= stable).then_some(i)
    }

    /// Re-materializes a compacted-away row back into segment `i` at its
    /// stable-order position, remapping the overlay. Rebuilds that one
    /// segment (O(segment)); the restore path only lands here when
    /// compaction physically dropped the row first.
    fn reinsert_into_segment(&mut self, i: usize, stable: u32, syms: &[u32]) {
        let state = &self.sealed[i];
        let old = &state.seg;
        let rows = old.rows as usize;
        // Locals are stable-ascending: binary-search the insert slot.
        let mut lo = 0usize;
        let mut hi = rows;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if old.stable_of_local(crate::ids::dense_id(mid, "segment rows")) < stable {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let p = lo;
        let columns: Vec<Vec<u32>> = old
            .columns
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let mut nc = Vec::with_capacity(rows + 1);
                nc.extend_from_slice(&c[..p]);
                nc.push(syms[ci]);
                nc.extend_from_slice(&c[p..]);
                nc
            })
            .collect();
        let new_rows = crate::ids::dense_id(rows + 1, "segment rows");
        let stable_ids = if new_rows == old.stable_hi - old.stable_lo {
            StableIds::Contiguous
        } else {
            let mut ids = Vec::with_capacity(rows + 1);
            for l in 0..old.rows {
                if (l as usize) == p {
                    ids.push(stable);
                }
                ids.push(old.stable_of_local(l));
            }
            if p == rows {
                ids.push(stable);
            }
            StableIds::Explicit(ids.into_boxed_slice())
        };
        let tombs: Vec<u32> = state
            .tombs
            .iter()
            .map(|&t| if (t as usize) >= p { t + 1 } else { t })
            .collect();
        let mut seg = Segment {
            columns,
            rows: new_rows,
            dedup: Vec::new(),
            stable_lo: old.stable_lo,
            stable_hi: old.stable_hi,
            stable: stable_ids,
            indexes: Mutex::new(Vec::new()),
        };
        seg.rebuild_dedup();
        self.sealed[i] = SegState {
            seg: Arc::new(seg),
            tombs: Arc::new(tombs),
        };
    }

    /// Physically drops tombstoned rows from every segment whose
    /// tombstone ratio reaches `tombstone_pct` percent (`0` compacts any
    /// segment with at least one tombstone). Stable ids and the dense
    /// view are unchanged; each compacted segment gets a fresh `Arc`, so
    /// clones pinning the old epoch keep the old column data alive until
    /// they drop. Returns the number of segments compacted.
    pub fn maybe_compact(&mut self, tombstone_pct: u32) -> usize {
        let mut n = 0;
        for i in 0..self.sealed.len() {
            let t = self.sealed[i].tombs.len();
            if t == 0 {
                continue;
            }
            if t * 100 >= (self.sealed[i].seg.rows as usize) * tombstone_pct as usize {
                self.compact_segment(i);
                n += 1;
            }
        }
        n
    }

    /// Compacts every segment holding at least one tombstone.
    pub fn compact_all(&mut self) -> usize {
        self.maybe_compact(0)
    }

    fn compact_segment(&mut self, i: usize) {
        let state = &self.sealed[i];
        let old = &state.seg;
        let keep: Vec<u32> = (0..old.rows)
            .filter(|&l| !is_dead(&state.tombs, l))
            .collect();
        let columns: Vec<Vec<u32>> = old
            .columns
            .iter()
            .map(|c| keep.iter().map(|&l| c[l as usize]).collect())
            .collect();
        let rows = crate::ids::dense_id(keep.len(), "segment rows");
        let stable = if rows == old.stable_hi - old.stable_lo {
            StableIds::Contiguous
        } else {
            StableIds::Explicit(keep.iter().map(|&l| old.stable_of_local(l)).collect())
        };
        let mut seg = Segment {
            columns,
            rows,
            dedup: Vec::new(),
            stable_lo: old.stable_lo,
            stable_hi: old.stable_hi,
            stable,
            indexes: Mutex::new(Vec::new()),
        };
        seg.rebuild_dedup();
        self.sealed[i] = SegState {
            seg: Arc::new(seg),
            tombs: Arc::new(Vec::new()),
        };
    }

    /// Rebuilds the cumulative dense offsets after an overlay change.
    fn refresh_starts(&mut self) {
        self.starts.clear();
        self.starts.push(0);
        let mut acc = 0usize;
        for s in &self.sealed {
            acc += s.live();
            self.starts.push(crate::ids::dense_id(acc, "tuple ids"));
        }
    }

    // ------------------------------------------------------------------
    // Coordinate translation + diagnostics.
    // ------------------------------------------------------------------

    /// The permanent stable id of the live tuple at dense index `idx`.
    pub fn stable_id_at(&self, idx: u32) -> u32 {
        match self.phys(idx) {
            (TAIL_SEG, l) => self.tail_stable_lo + l,
            (i, l) => self.sealed[i].seg.stable_of_local(l),
        }
    }

    /// The dense index of the tuple with stable id `stable`, if it is
    /// alive in this epoch.
    pub fn dense_of_stable(&self, stable: u32) -> Option<u32> {
        if stable >= self.tail_stable_lo {
            let local = stable - self.tail_stable_lo;
            (local < self.rows && !is_dead(&self.tail_tombs, local)).then(|| self.tail_dense(local))
        } else {
            let i = self.seg_of_stable(stable)?;
            let local = self.sealed[i].seg.local_of_stable(stable)?;
            (!is_dead(&self.sealed[i].tombs, local)).then(|| self.seg_dense(i, local))
        }
    }

    /// True once [`seal`](Self::seal) has produced at least one segment.
    pub fn is_segmented(&self) -> bool {
        !self.sealed.is_empty()
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.sealed.len()
    }

    /// Total tombstones across all overlays (segments + tail).
    pub fn tombstone_count(&self) -> usize {
        self.sealed.iter().map(|s| s.tombs.len()).sum::<usize>() + self.tail_tombs.len()
    }

    /// Weak handles to every sealed segment — lets liveness tests
    /// observe when dropping the last epoch that references a segment
    /// actually releases its memory.
    pub fn segment_handles(&self) -> Vec<Weak<Segment>> {
        self.sealed.iter().map(|s| Arc::downgrade(&s.seg)).collect()
    }

    /// The dense index range of the mutable tail (rows inserted after
    /// the last seal).
    pub fn tail_dense_range(&self) -> std::ops::Range<u32> {
        self.sealed_live()..self.live_u32()
    }

    /// Probe handles for every segment under the join-index key
    /// `bound_pos`, building and caching any missing per-segment
    /// indexes (in parallel on `pool` when given). Cached indexes live
    /// on the shared segments, so every epoch containing a segment
    /// reuses one build.
    pub(crate) fn segment_probes(
        &self,
        bound_pos: &[u32],
        pool: Option<&adp_runtime::ThreadPool>,
    ) -> Vec<SegProbe> {
        if let Some(p) = pool {
            let missing: Vec<usize> = (0..self.sealed.len())
                .filter(|&i| self.sealed[i].seg.cached_index(bound_pos).is_none())
                .collect();
            if p.threads() > 1 && missing.len() > 1 {
                let built = p.par_indexed(missing.len(), |k| {
                    self.sealed[missing[k]]
                        .seg
                        .build_index(bound_pos, &self.interner)
                });
                for (&i, idx) in missing.iter().zip(built) {
                    self.sealed[i].seg.store_index(bound_pos, idx);
                }
            }
        }
        let mut probes = Vec::with_capacity(self.sealed.len());
        for (i, s) in self.sealed.iter().enumerate() {
            let index = match s.seg.cached_index(bound_pos) {
                Some(a) => a,
                None => s
                    .seg
                    .store_index(bound_pos, s.seg.build_index(bound_pos, &self.interner)),
            };
            probes.push(SegProbe {
                index,
                tombs: Arc::clone(&s.tombs),
                start: self.starts[i],
            });
        }
        probes
    }

    /// Is stored tail row `row` exactly the symbol sequence `syms`?
    #[inline]
    fn row_eq_tail(&self, row: u32, syms: &[u32]) -> bool {
        self.columns
            .iter()
            .zip(syms)
            .all(|(c, &s)| c[row as usize] == s)
    }

    /// Appends a (known-fresh) symbol row to the tail and registers it
    /// in the dedup table. `h` is `hash_syms(syms)`. Fails with
    /// [`AdpError::RelationFull`] when the stable tuple id space is
    /// exhausted (interned symbols stay consistent: the tuple is simply
    /// absent).
    fn append_syms(&mut self, syms: &[u32], h: u64) -> Result<u32, AdpError> {
        let stable = checked_next_id(
            self.tail_stable_lo as usize + self.rows as usize,
            self.schema.name(),
            "tuple ids",
        )?;
        let local = stable - self.tail_stable_lo;
        for (c, &s) in self.columns.iter_mut().zip(syms) {
            c.push(s);
        }
        self.rows += 1;
        if (self.rows as usize) * LOAD_DEN >= self.dedup.len() * LOAD_NUM {
            let cap = ((self.rows as usize) * 2).next_power_of_two().max(16);
            self.rebuild_dedup(cap);
        } else {
            place(&mut self.dedup, h, local);
        }
        Ok(self.tail_dense(local))
    }

    /// Rebuilds the tail dedup table at `capacity` (a power of two) from
    /// the columns. Every stored row re-hashes to exactly one slot.
    fn rebuild_dedup(&mut self, capacity: usize) {
        let capacity = capacity.next_power_of_two().max(16);
        let mut slots = vec![EMPTY; capacity];
        let mut syms = Vec::with_capacity(self.columns.len());
        for row in 0..self.rows {
            syms.clear();
            syms.extend(self.columns.iter().map(|c| c[row as usize]));
            place(&mut slots, hash_syms(&syms), row);
        }
        self.dedup = slots;
    }

    /// Interns `v`, returning its relation-local symbol, or
    /// [`AdpError::RelationFull`] once the symbol space is exhausted.
    /// Copy-on-write: the first brand-new value interned after a clone
    /// copies the shared table once.
    fn intern_value(&mut self, v: Value) -> Result<u32, AdpError> {
        if let Some(s) = self.interner.get(v) {
            return Ok(s);
        }
        let s = checked_next_id(self.interner.values.len(), self.schema.name(), "symbols")?;
        let int = Arc::make_mut(&mut self.interner);
        int.values.push(v);
        int.of.insert(v, s);
        Ok(s)
    }
}

/// A zero-copy view of one stored tuple. Indexes like a slice
/// (`view[pos]` is the [`Value`] at attribute position `pos`) and
/// compares against other views, slices, and arrays by value.
#[derive(Clone, Copy)]
pub struct TupleView<'a> {
    rel: &'a RelationInstance,
    idx: u32,
}

impl<'a> TupleView<'a> {
    /// The tuple's arity.
    pub fn len(&self) -> usize {
        self.rel.schema.arity()
    }

    /// True for vacuum (arity-0) tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at position `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> Value {
        self.rel.value_at(self.idx, pos)
    }

    /// The tuple's dense index in its relation.
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Materializes the tuple.
    pub fn to_vec(&self) -> Vec<Value> {
        self.rel.tuple_vec(self.idx)
    }

    /// Iterates the tuple's values in position order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + 'a {
        let rel = self.rel;
        let idx = self.idx;
        (0..rel.schema.arity()).map(move |p| rel.value_at(idx, p))
    }
}

impl std::ops::Index<usize> for TupleView<'_> {
    type Output = Value;
    #[inline]
    fn index(&self, pos: usize) -> &Value {
        // The reference points into the interner's value table, which
        // holds exactly this tuple's value at the column's symbol.
        &self.rel.interner.values[self.rel.symbol_at(self.idx, pos) as usize]
    }
}

impl PartialEq for TupleView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for TupleView<'_> {}

impl PartialEq<[Value]> for TupleView<'_> {
    fn eq(&self, other: &[Value]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, &b)| a == b)
    }
}

impl PartialEq<&[Value]> for TupleView<'_> {
    fn eq(&self, other: &&[Value]) -> bool {
        *self == **other
    }
}

impl<const N: usize> PartialEq<[Value; N]> for TupleView<'_> {
    fn eq(&self, other: &[Value; N]) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[Value; N]> for TupleView<'_> {
    fn eq(&self, other: &&[Value; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<Value>> for TupleView<'_> {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self == other[..]
    }
}

impl std::fmt::Debug for TupleView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attrs;

    fn rel() -> RelationInstance {
        let mut r = RelationInstance::new(RelationSchema::new("R", attrs(&["A", "B"])));
        r.insert(&[1, 10]);
        r.insert(&[2, 20]);
        r.insert(&[2, 30]);
        r
    }

    #[test]
    fn insert_dedups() {
        let mut r = rel();
        let before = r.len();
        let idx = r.insert(&[1, 10]);
        assert_eq!(idx, 0);
        assert_eq!(r.len(), before);
    }

    // A 4-billion-row instance is not constructible in a test, so the
    // overflow guard is exercised at the allocation gate both id spaces
    // share: the regression here is the PR-3 class of bug where a
    // `len() as u32` silently wrapped instead of failing typed.
    #[test]
    fn checked_next_id_guards_the_dense_space() {
        assert_eq!(checked_next_id(0, "R", "tuple ids"), Ok(0));
        assert_eq!(
            checked_next_id(u32::MAX as usize - 1, "R", "tuple ids"),
            Ok(u32::MAX - 1)
        );
        // u32::MAX is the dedup sentinel: allocating it would corrupt
        // the probe table, so the last usable id is u32::MAX - 1.
        for len in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            assert_eq!(
                checked_next_id(len, "R", "tuple ids"),
                Err(AdpError::RelationFull {
                    relation: "R".to_owned(),
                    what: "tuple ids",
                })
            );
        }
    }

    #[test]
    fn indices_matches_len() {
        let r = rel();
        let ids: Vec<u32> = r.indices().collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(
            RelationInstance::new(rel().schema().clone())
                .indices()
                .count(),
            0
        );
    }

    #[test]
    fn project_orders_by_request() {
        let r = rel();
        assert_eq!(r.project(1, &attrs(&["B", "A"])), vec![20, 2]);
    }

    #[test]
    fn filter_by_index_keeps_backmap() {
        let r = rel();
        let (f, back) = r.filter_by_index(|i| i != 1);
        assert_eq!(f.len(), 2);
        assert_eq!(back, vec![0, 2]);
        assert_eq!(f.tuple(1), &[2, 30]);
    }

    #[test]
    fn project_away_merges() {
        let r = rel();
        let (p, fwd) = r.project_away(&attrs(&["B"]));
        assert_eq!(p.schema().attrs(), &attrs(&["A"])[..]);
        assert_eq!(p.len(), 2); // values 1 and 2
        assert_eq!(fwd, vec![0, 1, 1]);
    }

    #[test]
    fn vacuum_relation_roundtrip() {
        let mut v = RelationInstance::new(RelationSchema::new("V", vec![]));
        assert!(v.is_empty());
        v.insert(&[]);
        assert_eq!(v.len(), 1);
        v.insert(&[]);
        assert_eq!(v.len(), 1, "vacuum instance is {{()}} at most");
        assert!(v.contains(&[]));
        assert_eq!(v.index_of(&[]), Some(0));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        rel().insert(&[1]);
    }

    #[test]
    fn tuple_view_reads_like_a_slice() {
        let r = rel();
        let t = r.tuple(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], 2);
        assert_eq!(t[1], 30);
        assert_eq!(t.to_vec(), vec![2, 30]);
        assert_eq!(t, [2u64, 30]);
        assert_eq!(t, &[2u64, 30]);
        assert_eq!(format!("{t:?}"), "[2, 30]");
        assert_eq!(r.tuple(1), r.tuple(1));
        assert_ne!(r.tuple(1), r.tuple(2));
    }

    #[test]
    fn index_of_and_contains_probe_columns() {
        let r = rel();
        assert_eq!(r.index_of(&[2, 20]), Some(1));
        assert_eq!(r.index_of(&[2, 99]), None, "unseen value short-circuits");
        assert_eq!(r.index_of(&[20, 2]), None, "position matters");
        assert!(r.contains(&[1, 10]));
        assert!(!r.contains(&[1, 10, 0]), "arity mismatch is just absent");
    }

    #[test]
    fn interner_is_shared_across_columns() {
        let mut r = RelationInstance::new(RelationSchema::new("R", attrs(&["A", "B"])));
        r.insert(&[7, 7]);
        r.insert(&[7, 8]);
        // 7 and 8: two distinct values, regardless of column.
        assert_eq!(r.symbol_count(), 2);
        assert_eq!(r.symbol_at(0, 0), r.symbol_at(0, 1));
        assert_eq!(r.symbol_at(0, 0), r.symbol_at(1, 0));
    }

    /// Regression (tuple-memory double-store): the old row store kept a
    /// `Box<[Value]>` in its tuple vector *and* a clone of it as the
    /// dedup `HashMap` key — ≥ 2 heap copies (≥ 64 bytes) per arity-2
    /// tuple before map overhead. The columnar store keeps one `u32`
    /// symbol per attribute plus a keyless id-only dedup slot: the size
    /// accounting must stay near 8 bytes of column data per arity-2
    /// tuple, bounded well under one boxed copy.
    #[test]
    fn one_stored_copy_per_tuple() {
        let mut r = RelationInstance::new(RelationSchema::new("R", attrs(&["A", "B"])));
        let n = 10_000u64;
        for i in 0..n {
            r.insert(&[i % 64, i]); // column A: 64 symbols; column B: n symbols
        }
        assert_eq!(r.len(), n as usize);
        let per_tuple = r.approx_bytes() as f64 / n as f64;
        // columns: 8 B; dedup: ≤ 32768 slots × 4 B / 10k ≈ 13 B;
        // interner: ~10k distinct values ≈ 24 B of map + 8 B of table.
        // A second stored copy (the old design) would add ≥ 32 B on top.
        assert!(
            per_tuple < 64.0,
            "expected ~one stored copy per tuple, measured {per_tuple:.1} B/tuple"
        );
        // The dominant term must be the columns, not tuple copies: with
        // capacity slack the columns alone are ≤ 16 B/tuple.
        let columns_only = 2.0 * 4.0;
        assert!(
            per_tuple < columns_only * 8.0,
            "storage is not column-dominated: {per_tuple:.1} B/tuple"
        );
    }

    /// The dedup table keeps probing correctly across growth rehashes.
    #[test]
    fn dedup_survives_growth() {
        let mut r = RelationInstance::new(RelationSchema::new("R", attrs(&["A"])));
        for i in 0..1000u64 {
            assert_eq!(r.insert(&[i]), i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(r.insert(&[i]), i as u32, "duplicate must find original");
        }
        assert_eq!(r.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(r.index_of(&[i]), Some(i as u32));
        }
    }

    #[test]
    fn reserve_preserves_contents() {
        let mut r = rel();
        r.reserve(100_000);
        assert_eq!(r.len(), 3);
        assert_eq!(r.insert(&[2, 20]), 1, "dedup intact after reserve");
        assert_eq!(r.insert(&[5, 50]), 3);
    }

    #[test]
    fn iter_and_to_rows_are_index_ordered() {
        let r = rel();
        let rows: Vec<Vec<Value>> = r.iter().map(|t| t.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 10], vec![2, 20], vec![2, 30]]);
        assert_eq!(r.to_rows(), rows);
    }

    // ------------------------------------------------------------------
    // Segment / overlay / seal mechanics.
    // ------------------------------------------------------------------

    #[test]
    fn select_alive_ranks_around_tombstones() {
        assert_eq!(select_alive(&[], 5), 5);
        assert_eq!(select_alive(&[0], 0), 1);
        assert_eq!(select_alive(&[2], 2), 3);
        assert_eq!(select_alive(&[0, 1, 2], 0), 3);
        // alive locals of rows 0..6 with tombs {1, 4}: 0, 2, 3, 5.
        for (rank, local) in [(0u32, 0u32), (1, 2), (2, 3), (3, 5)] {
            assert_eq!(select_alive(&[1, 4], rank), local);
        }
    }

    #[test]
    fn seal_preserves_the_dense_view() {
        let mut r = rel();
        let rows = r.to_rows();
        r.seal(2);
        assert!(r.is_segmented());
        assert_eq!(r.segment_count(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_rows(), rows);
        assert_eq!(r.index_of(&[2, 20]), Some(1));
        // Dedup reaches into segments: a duplicate is found, a fresh
        // tuple lands in the tail with the next dense (and stable) id.
        assert_eq!(r.insert(&[1, 10]), 0);
        assert_eq!(r.insert(&[5, 50]), 3);
        assert_eq!(r.tail_dense_range(), 3..4);
        assert_eq!(r.stable_id_at(3), 3);
    }

    #[test]
    fn delete_and_restore_by_stable_id() {
        let mut r = rel();
        r.seal(2);
        assert!(r.delete_stable(1));
        assert!(!r.delete_stable(1), "already tombstoned");
        assert_eq!(r.len(), 2);
        assert_eq!(r.to_rows(), vec![vec![1, 10], vec![2, 30]]);
        // Dense/stable translation skips the tombstone.
        assert_eq!(r.stable_id_at(1), 2);
        assert_eq!(r.dense_of_stable(2), Some(1));
        assert_eq!(r.dense_of_stable(1), None);
        assert!(!r.contains(&[2, 20]));
        assert!(r.restore_stable(1, &[2, 20]));
        assert!(!r.restore_stable(1, &[2, 20]), "already alive");
        assert_eq!(r.to_rows(), rel().to_rows());
    }

    #[test]
    fn inserting_a_tombstoned_tuple_revives_it() {
        let mut r = rel();
        r.seal(10);
        assert!(r.delete_stable(1));
        assert_eq!(r.len(), 2);
        // Set semantics: insert == un-delete, same dense position.
        assert_eq!(r.insert(&[2, 20]), 1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_rows(), rel().to_rows());
        // Same for tail rows.
        r.insert(&[9, 90]);
        assert!(r.delete_stable(3));
        assert_eq!(r.len(), 3);
        assert_eq!(r.insert(&[9, 90]), 3);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn compaction_preserves_view_and_frees_old_segments() {
        let mut r = rel();
        r.seal(2);
        let old = r.clone(); // a reader pinning the pre-compaction epoch
        assert!(r.delete_stable(0));
        let handles = r.segment_handles();
        assert_eq!(r.compact_all(), 1);
        assert_eq!(r.to_rows(), vec![vec![2, 20], vec![2, 30]]);
        assert_eq!(r.tombstone_count(), 0);
        // The pinned clone still sees the original data via the old Arc.
        assert_eq!(old.to_rows(), rel().to_rows());
        assert!(handles[0].upgrade().is_some(), "old epoch pins segment 0");
        drop(old);
        assert!(
            handles[0].upgrade().is_none(),
            "last reader gone ⇒ segment memory released"
        );
        assert!(handles[1].upgrade().is_some(), "untouched segment shared");
    }

    #[test]
    fn restore_after_compaction_rematerializes_in_stable_order() {
        let mut r = rel();
        r.insert(&[4, 40]);
        r.seal(4);
        assert!(r.delete_stable(1));
        assert!(r.delete_stable(2));
        assert_eq!(r.compact_all(), 1);
        assert_eq!(r.dense_of_stable(1), None);
        // Physically gone — restore must rebuild the row mid-segment.
        assert!(r.restore_stable(1, &[2, 20]));
        assert_eq!(r.to_rows(), vec![vec![1, 10], vec![2, 20], vec![4, 40]]);
        assert!(r.restore_stable(2, &[2, 30]));
        assert_eq!(
            r.to_rows(),
            vec![vec![1, 10], vec![2, 20], vec![2, 30], vec![4, 40]]
        );
        assert_eq!(r.stable_id_at(2), 2);
        assert_eq!(r.index_of(&[2, 30]), Some(2));
    }

    #[test]
    fn clone_shares_segments_and_diverges_overlays() {
        let mut a = rel();
        a.seal(10);
        let mut b = a.clone();
        assert!(b.delete_stable(0));
        assert_eq!(a.len(), 3, "sibling epoch untouched");
        assert_eq!(b.len(), 2);
        assert!(a.delete_stable(2));
        assert_eq!(a.to_rows(), vec![vec![1, 10], vec![2, 20]]);
        assert_eq!(b.to_rows(), vec![vec![2, 20], vec![2, 30]]);
        // One shared physical segment underneath both.
        assert_eq!(
            a.segment_handles()[0].as_ptr(),
            b.segment_handles()[0].as_ptr()
        );
    }

    #[test]
    fn segment_probes_apply_overlays_and_rank_shifts() {
        let mut r = rel();
        r.seal(2);
        let probes = r.segment_probes(&[0], None);
        assert_eq!(probes.len(), 2);
        let mut out = Vec::new();
        for p in &probes {
            p.extend_matches(&[2], &mut out);
        }
        assert_eq!(out, vec![1, 2], "dense ids, ascending across segments");
        assert!(probes[0].entry_count() > 0);
        // Tombstone the first [2, _] row: the probe must skip it and
        // rank-shift the second one down.
        assert!(r.delete_stable(1));
        let probes = r.segment_probes(&[0], None);
        out.clear();
        for p in &probes {
            p.extend_matches(&[2], &mut out);
        }
        assert_eq!(out, vec![1]);
        // The underlying segment index was reused, not rebuilt: the two
        // epochs' probes share the same Arc.
        let again = r.segment_probes(&[0], None);
        assert!(Arc::ptr_eq(&probes[0].index, &again[0].index));
    }

    #[test]
    fn sealed_view_matches_rebuilt_oracle_after_mutation_storm() {
        // Interleave seals, deletes, restores, compactions, and inserts;
        // after every step the dense view must equal a from-scratch
        // store holding the live tuples in insertion order.
        let schema = RelationSchema::new("R", attrs(&["A", "B"]));
        let mut r = RelationInstance::new(schema.clone());
        let mut oracle: Vec<Option<Vec<Value>>> = Vec::new(); // stable → live tuple
        for i in 0..40u64 {
            r.insert(&[i % 7, i]);
            oracle.push(Some(vec![i % 7, i]));
        }
        let check = |r: &RelationInstance, oracle: &[Option<Vec<Value>>]| {
            let want: Vec<Vec<Value>> = oracle.iter().flatten().cloned().collect();
            assert_eq!(r.to_rows(), want);
            let mut rebuilt = RelationInstance::new(schema.clone());
            for t in &want {
                rebuilt.insert(t);
            }
            for i in rebuilt.indices() {
                assert_eq!(r.tuple(i), rebuilt.tuple(i));
            }
        };
        r.seal(8);
        check(&r, &oracle);
        for s in [3u32, 9, 17, 23, 31, 38] {
            assert!(r.delete_stable(s));
            oracle[s as usize] = None;
        }
        check(&r, &oracle);
        r.maybe_compact(10);
        check(&r, &oracle);
        for s in [9u32, 31] {
            let vals = vec![u64::from(s) % 7, u64::from(s)];
            assert!(r.restore_stable(s, &vals));
            oracle[s as usize] = Some(vals);
        }
        check(&r, &oracle);
        for i in 40..50u64 {
            r.insert(&[i % 7, i]);
            oracle.push(Some(vec![i % 7, i]));
        }
        check(&r, &oracle);
        r.seal(8);
        check(&r, &oracle);
        for s in [0u32, 44, 49] {
            assert!(r.delete_stable(s));
            oracle[s as usize] = None;
        }
        r.compact_all();
        check(&r, &oracle);
    }
}
