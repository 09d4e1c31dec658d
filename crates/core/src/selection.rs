//! Conjunctive queries with selection predicates (paper §7.5).
//!
//! A selection predicate fixes an attribute to a constant (`A = a`). By
//! Lemma 12, `ADP(σ_θ Q, D, k)` equals `ADP(Q^{-A_θ}, D', k)` where `D'`
//! keeps only the tuples satisfying the predicates and drops the selected
//! attributes. [`solve_selection`] applies exactly that reduction and
//! maps the solution back to the caller's coordinates.

use crate::error::SolveError;
use crate::query::Query;
use crate::solver::{self, AdpOptions, AdpOutcome, View};
use adp_engine::database::Database;
use adp_engine::relation::RelationInstance;
use adp_engine::schema::Attr;
use adp_engine::value::Value;
use std::sync::Arc;

/// A query with equality selection predicates on some attributes.
#[derive(Clone, Debug)]
pub struct SelectionQuery {
    /// The underlying conjunctive query.
    pub query: Query,
    /// `(attribute, constant)` predicates. An attribute may appear once.
    pub predicates: Vec<(Attr, Value)>,
}

impl SelectionQuery {
    /// Builds a selection query, checking the predicates reference body
    /// attributes and do not repeat.
    pub fn new(query: Query, predicates: Vec<(Attr, Value)>) -> Result<Self, SolveError> {
        let attrs = query.attrs();
        for (i, (a, _)) in predicates.iter().enumerate() {
            assert!(
                attrs.contains(a),
                "selection predicate on unknown attribute {a}"
            );
            assert!(
                !predicates[..i].iter().any(|(b, _)| b == a),
                "duplicate selection predicate on {a}"
            );
        }
        Ok(SelectionQuery { query, predicates })
    }

    /// The residual query `Q^{-A_θ}` (selected attributes dropped).
    pub fn residual(&self) -> Query {
        let selected: Vec<Attr> = self.predicates.iter().map(|(a, _)| a.clone()).collect();
        self.query.without_attrs(&selected)
    }

    /// Is the ADP problem for this selection query poly-time solvable?
    /// By Lemma 12 this is decided on the residual query.
    pub fn is_ptime(&self) -> bool {
        crate::analysis::is_ptime(&self.residual())
    }
}

/// Solves `ADP(σ_θ Q, D, k)` per Lemma 12. The returned solution uses
/// the caller's (original) atom and tuple coordinates.
pub fn solve_selection(
    sq: &SelectionQuery,
    db: &Database,
    k: u64,
    opts: &AdpOptions,
) -> Result<AdpOutcome, SolveError> {
    solver::outcome(k, opts.mode, || {
        solver::solve(&residual_view(sq, db), k, opts)
    })
}

/// The view of `Q^{-A_θ}` over the filtered, projected database, with
/// tuple maps back to the caller's coordinates.
fn residual_view(sq: &SelectionQuery, db: &Database) -> View {
    let selected: Vec<Attr> = sq.predicates.iter().map(|(a, _)| a.clone()).collect();
    let residual = sq.residual();

    // Filter each relation by the applicable predicates and project away
    // the selected attributes (injective after filtering).
    let mut new_db = Database::new();
    let mut maps: Vec<Option<Vec<u32>>> = Vec::new();
    for (ai, atom) in sq.query.atoms().iter().enumerate() {
        // adp-lint: allow(panic-path) -- documented panicking lookup;
        // the selection rewrite runs on a query already validated
        // against the database.
        let rel = db.expect(atom.name());
        let local_preds: Vec<(usize, Value)> = sq
            .predicates
            .iter()
            .filter_map(|(a, v)| rel.schema().position(a).map(|p| (p, *v)))
            .collect();
        let kept_attrs: Vec<Attr> = atom
            .attrs()
            .iter()
            .filter(|a| !selected.contains(a))
            .cloned()
            .collect();
        let mut inst = RelationInstance::new(residual.atoms()[ai].clone());
        let mut back = Vec::new();
        for idx in rel.indices() {
            let t = rel.tuple(idx);
            if local_preds.iter().all(|&(p, v)| t[p] == v) {
                let projected = rel.project(idx, &kept_attrs);
                let new_idx = inst.insert(&projected);
                debug_assert_eq!(
                    new_idx as usize,
                    back.len(),
                    "projection injective after selection"
                );
                back.push(idx);
            }
        }
        new_db.add(inst);
        maps.push(Some(back));
    }

    // Solutions come back in original coordinates through the maps.
    let mut view = View::root(residual, Arc::new(new_db));
    view.tuple_map = maps;
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use adp_engine::schema::{attr, attrs};

    /// TPC-H-shaped Q1 with a selection on PK (paper §8.1).
    fn setup() -> (SelectionQuery, Database) {
        let q = parse_query("Q1(NK,SK,PK,OK) :- S(NK,SK), PS(SK,PK), L(OK,PK)").unwrap();
        let sq = SelectionQuery::new(q, vec![(attr("PK"), 7)]).unwrap();
        let mut db = Database::new();
        db.add_relation("S", attrs(&["NK", "SK"]), &[&[1, 1], &[1, 2], &[2, 3]]);
        db.add_relation(
            "PS",
            attrs(&["SK", "PK"]),
            &[&[1, 7], &[2, 7], &[3, 8], &[3, 7]],
        );
        db.add_relation("L", attrs(&["OK", "PK"]), &[&[10, 7], &[11, 7], &[12, 8]]);
        (sq, db)
    }

    #[test]
    fn selection_makes_q1_ptime() {
        let (sq, _) = setup();
        assert!(sq.is_ptime(), "σθQ1 is poly-time (paper §8.1)");
        // without the selection Q1 is NP-hard
        assert!(!crate::analysis::is_ptime(&sq.query));
    }

    #[test]
    fn selection_filters_and_solves_exactly() {
        let (sq, db) = setup();
        // After σ PK=7: S×PS pairs (3 suppliers each matching), L has 2
        // orders. |Q| = 3·2 = 6.
        let out = solve_selection(&sq, &db, 6, &AdpOptions::default()).unwrap();
        assert_eq!(out.output_count, 6);
        assert!(out.exact);
        // removing everything: cheapest is deleting both L tuples w/ PK=7
        assert_eq!(out.cost, 2);
        let sol = out.solution.unwrap();
        let removed = crate::solver::removed_outputs(&sq.query, &db, &sol);
        // measured against the *selected* outputs they all had PK=7
        assert!(removed >= 6);
    }

    #[test]
    fn solution_indices_are_original() {
        let (sq, db) = setup();
        let out = solve_selection(&sq, &db, 1, &AdpOptions::default()).unwrap();
        let sol = out.solution.unwrap();
        // any reported L-tuple index must be one of the PK=7 rows (0, 1)
        for t in &sol {
            if t.atom == 2 {
                assert!(t.index <= 1, "index in original coordinates");
            }
        }
    }

    #[test]
    fn k_larger_than_selected_outputs_fails() {
        let (sq, db) = setup();
        assert!(matches!(
            solve_selection(&sq, &db, 7, &AdpOptions::default()),
            Err(SolveError::KTooLarge { available: 6, .. })
        ));
    }
}
