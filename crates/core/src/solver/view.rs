//! Views: a (sub)query plus a transformed database, with bookkeeping that
//! maps every tuple back to the **original** database.
//!
//! The `ComputeADP` recursion transforms its input — dropping universal
//! attributes, filtering partitions, selecting connected components,
//! applying selection predicates — and solutions must nevertheless be
//! reported against the caller's database. A [`View`] carries:
//!
//! * `atom_map[i]`  — the original atom index behind view atom `i`,
//! * `tuple_map[i]` — per view atom, new-tuple-index → original-tuple-index
//!   (`None` = identity).
//!
//! All transformations used by the solver are tuple-injective (partition
//! groups share a universal-attribute value before projection; selections
//! fix the selected attributes), so the maps stay simple vectors.

use super::prepared::{build_delta_provenance, GreedyLease, PlannedEval};
use crate::analysis::roles::endogenous_atoms;
use crate::error::SolveError;
use crate::query::Query;
use adp_engine::database::Database;
use adp_engine::join::{evaluate, EvalResult};
use adp_engine::provenance::TupleRef;
use std::sync::Arc;

/// A query over a transformed database with provenance back to the
/// original database.
#[derive(Clone)]
pub struct View {
    /// The (sub)query evaluated by this view.
    pub query: Query,
    /// The database the view's query runs against.
    pub db: Arc<Database>,
    /// View atom index → original atom index.
    pub atom_map: Vec<usize>,
    /// Per view atom: new tuple index → original tuple index (`None` =
    /// identity).
    pub tuple_map: Vec<Option<Vec<u32>>>,
    /// Shared plan/index/eval cache for exactly this (query, db) pair.
    /// Carried only by root views built from a
    /// [`PreparedQuery`](super::prepared::PreparedQuery); derived views
    /// run over transformed databases, so they drop it.
    planned: Option<Arc<PlannedEval>>,
}

impl View {
    /// The root view: the user's query over the user's database.
    pub fn root(query: Query, db: Arc<Database>) -> Self {
        let n = query.atom_count();
        View {
            query,
            db,
            atom_map: (0..n).collect(),
            tuple_map: vec![None; n],
            planned: None,
        }
    }

    /// A root view carrying a shared evaluation cache (plan-once /
    /// execute-many). `planned` must have been compiled for exactly
    /// `(query, db)`.
    pub(crate) fn root_planned(query: Query, db: Arc<Database>, planned: Arc<PlannedEval>) -> Self {
        let n = query.atom_count();
        View {
            query,
            db,
            atom_map: (0..n).collect(),
            tuple_map: vec![None; n],
            planned: Some(planned),
        }
    }

    /// Evaluates the view's query over its database. Root views built
    /// from a `PreparedQuery` return the cached evaluation (computing it
    /// at most once); derived views compile-and-run a fresh plan.
    pub fn eval(&self) -> EvalResult {
        match &self.planned {
            Some(p) => p.eval(),
            None => evaluate(&self.db, self.query.atoms(), self.query.head()),
        }
    }

    /// A pristine scored
    /// [`DeltaProvenance`](adp_engine::delta::DeltaProvenance) over
    /// `eval` (this view's already-computed evaluation) with selection
    /// enabled on `selectable`, for one greedy solve. Root views built
    /// from a [`PreparedQuery`](super::prepared::PreparedQuery) check a
    /// state out of the plan (postings and scores are derived at
    /// most once per prepared query); derived views build one from the
    /// passed evaluation — never re-joining — fanning the scoring pass
    /// over the pool when `parallel` allows.
    pub(crate) fn greedy_state(
        &self,
        eval: &EvalResult,
        selectable: &[bool],
        parallel: bool,
    ) -> Result<GreedyLease<'_>, SolveError> {
        match &self.planned {
            Some(p) => Ok(p.checkout(selectable, None, parallel)?),
            None => {
                let mut delta = build_delta_provenance(eval, parallel)?;
                delta.enable_selection(selectable.to_vec());
                Ok(GreedyLease::private(delta))
            }
        }
    }

    /// True for the root view of an
    /// [anchored](super::prepared::PreparedQuery::anchored) plan.
    pub(crate) fn is_anchored(&self) -> bool {
        self.planned.as_ref().is_some_and(|p| p.is_anchored())
    }

    /// The greedy state of an anchored root view
    /// ([`PreparedQuery::anchored`](super::prepared::PreparedQuery::anchored)):
    /// a base state advanced to this epoch, without evaluating the
    /// epoch. `None` when the view has no anchor, or when the base state
    /// cannot be built (e.g. the base has too many witnesses to index) —
    /// the caller then evaluates the epoch itself.
    pub(crate) fn anchored_state(
        &self,
        selectable: &[bool],
        parallel: bool,
    ) -> Option<GreedyLease<'_>> {
        self.planned
            .as_ref()?
            .anchored_checkout(selectable, parallel)
    }

    /// `|Q(D − S)|` of an anchored root view, read from the base state
    /// (see [`anchored_state`](Self::anchored_state)); `None` when the
    /// caller must evaluate the epoch.
    pub(crate) fn anchored_output_count(&self) -> Option<u64> {
        self.planned
            .as_ref()?
            .anchored_output_count(&endogenous_atoms(&self.query))
    }

    /// Translates a view-local tuple reference into original coordinates.
    pub fn to_original(&self, atom: usize, index: u32) -> TupleRef {
        let orig_atom = self.atom_map[atom];
        let orig_index = match &self.tuple_map[atom] {
            None => index,
            Some(map) => map[index as usize],
        };
        TupleRef::new(orig_atom, orig_index)
    }

    /// Derives a view over a subset of atoms (connected components). The
    /// database is shared; tuple maps are inherited.
    pub fn subview(&self, atom_indices: &[usize]) -> View {
        View {
            query: self.query.subquery(atom_indices),
            db: Arc::clone(&self.db),
            atom_map: atom_indices.iter().map(|&i| self.atom_map[i]).collect(),
            tuple_map: atom_indices
                .iter()
                .map(|&i| self.tuple_map[i].clone())
                .collect(),
            planned: None,
        }
    }

    /// Derives a view with a new database and fresh per-atom tuple maps
    /// (new index → index in *this* view's db); composes them with this
    /// view's maps so the result again points at the original database.
    pub fn rebased(&self, query: Query, db: Database, new_maps: Vec<Option<Vec<u32>>>) -> View {
        assert_eq!(new_maps.len(), self.tuple_map.len());
        let tuple_map = new_maps
            .into_iter()
            .zip(&self.tuple_map)
            .map(|(new, old)| match (new, old) {
                (None, old) => old.clone(),
                (Some(n), None) => Some(n),
                (Some(n), Some(o)) => Some(n.iter().map(|&i| o[i as usize]).collect()),
            })
            .collect();
        View {
            query,
            db: Arc::new(db),
            atom_map: self.atom_map.clone(),
            tuple_map,
            planned: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use adp_engine::schema::attrs;

    fn setup() -> View {
        let q = parse_query("Q(A,B) :- R(A), S(A,B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1], &[2], &[3]]);
        db.add_relation("S", attrs(&["A", "B"]), &[&[1, 5], &[2, 6]]);
        View::root(q, Arc::new(db))
    }

    #[test]
    fn root_is_identity() {
        let v = setup();
        assert_eq!(v.to_original(1, 1), TupleRef::new(1, 1));
    }

    #[test]
    fn subview_remaps_atoms() {
        let v = setup();
        let s = v.subview(&[1]);
        assert_eq!(s.query.atoms()[0].name(), "S");
        assert_eq!(s.to_original(0, 0), TupleRef::new(1, 0));
    }

    #[test]
    fn rebased_composes_tuple_maps() {
        let v = setup();
        // filter R to indices [1,2] of the original
        let mut db2 = Database::new();
        db2.add_relation("R", attrs(&["A"]), &[&[2], &[3]]);
        db2.add_relation("S", attrs(&["A", "B"]), &[&[1, 5], &[2, 6]]);
        let q = v.query.clone();
        let v2 = v.rebased(q, db2, vec![Some(vec![1, 2]), None]);
        assert_eq!(v2.to_original(0, 0), TupleRef::new(0, 1));
        assert_eq!(v2.to_original(0, 1), TupleRef::new(0, 2));
        // compose once more: filter again
        let mut db3 = Database::new();
        db3.add_relation("R", attrs(&["A"]), &[&[3]]);
        db3.add_relation("S", attrs(&["A", "B"]), &[&[2, 6]]);
        let q = v2.query.clone();
        let v3 = v2.rebased(q, db3, vec![Some(vec![1]), Some(vec![1])]);
        assert_eq!(v3.to_original(0, 0), TupleRef::new(0, 2));
        assert_eq!(v3.to_original(1, 0), TupleRef::new(1, 1));
    }
}
