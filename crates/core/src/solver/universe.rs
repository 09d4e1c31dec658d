//! The Universe case (paper §7.3, Algorithm 4): universal attributes.
//!
//! A universal attribute `A` (output attribute in every atom) partitions
//! both the input and the output by its value: deleting a tuple only
//! affects the sub-instance sharing its `A` value. `ADP(Q, D, k)` becomes
//! a knapsack-style DP over the per-group `ADP(Q^{-A}, D_a, ·)` profiles.
//!
//! Following the paper's optimization (Figure 28), all universal
//! attributes are removed as one combined attribute by default; the
//! one-at-a-time ablation is available through
//! [`UniverseStrategy::OneByOne`](super::UniverseStrategy).

use super::solved::{Combine, DpNode, Extractor, Solved};
use super::view::View;
use super::{profile::CostProfile, AdpOptions, Mode, UniverseStrategy};
use crate::error::SolveError;
use adp_engine::database::Database;
use adp_engine::relation::RelationInstance;
use adp_engine::schema::Attr;
use adp_engine::value::Value;
use std::collections::HashMap;

pub(crate) fn solve_universe(
    view: &View,
    cap: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let q = &view.query;
    let universal = q.universal_attrs();
    debug_assert!(!universal.is_empty());
    let used: Vec<Attr> = match opts.universe {
        UniverseStrategy::Combined => universal,
        UniverseStrategy::OneByOne => vec![universal[0].clone()],
    };
    let residual = q.without_attrs(&used);

    // Partition every relation by its projection onto the combined
    // universal attribute; only keys present in *every* relation can
    // produce outputs.
    let atoms = q.atoms();
    let mut partitions: Vec<HashMap<Vec<Value>, Vec<u32>>> = Vec::with_capacity(atoms.len());
    for atom in atoms {
        // adp-lint: allow(panic-path) -- documented panicking lookup;
        // the view's atoms were validated at construction.
        let rel = view.db.expect(atom.name());
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for idx in rel.indices() {
            map.entry(rel.project(idx, &used)).or_default().push(idx);
        }
        partitions.push(map);
    }
    // adp-lint: allow(unordered-iter) -- keys are collected, filtered
    // and sorted just below; hash order never escapes.
    let mut keys: Vec<Vec<Value>> = partitions[0]
        .keys()
        .filter(|k| partitions.iter().all(|p| p.contains_key(*k)))
        .cloned()
        .collect();
    keys.sort();

    // Solve each group recursively on the projected sub-instance.
    let mut children: Vec<Solved> = Vec::with_capacity(keys.len());
    for key in &keys {
        let mut db = Database::new();
        let mut maps: Vec<Option<Vec<u32>>> = Vec::with_capacity(atoms.len());
        for (ai, atom) in atoms.iter().enumerate() {
            // adp-lint: allow(panic-path) -- same validated-atoms
            // contract as above.
            let rel = view.db.expect(atom.name());
            let kept_attrs: Vec<Attr> = atom
                .attrs()
                .iter()
                .filter(|a| !used.contains(a))
                .cloned()
                .collect();
            let mut inst = RelationInstance::new(residual.atoms()[ai].clone());
            let mut back = Vec::new();
            for &idx in &partitions[ai][key] {
                let t = rel.project(idx, &kept_attrs);
                let new_idx = inst.insert(&t);
                debug_assert_eq!(
                    new_idx as usize,
                    back.len(),
                    "projection is injective within a group"
                );
                back.push(idx);
            }
            db.add(inst);
            maps.push(Some(back));
        }
        let gview = view.rebased(residual.clone(), db, maps);
        let child = super::solve(&gview, cap, opts)?;
        if child.total_outputs > 0 {
            children.push(child);
        }
    }

    combine_disjoint(children, cap, opts)
}

/// Combines children whose outputs are **disjoint unions** (universal
/// partition): removing `m_i` from each child removes `Σ m_i` in total.
/// Dense DP over the budget `0..=cap`.
pub(crate) fn combine_disjoint(
    children: Vec<Solved>,
    cap: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let total: u64 = children
        .iter()
        .map(|c| c.total_outputs)
        .fold(0u64, |a, b| a.saturating_add(b));
    if children.is_empty() || total == 0 {
        return Ok(Solved::empty());
    }
    let exact = children.iter().all(|c| c.exact);
    let cap = cap.min(total);
    let width = cap + 1;
    let track_choices = opts.mode == Mode::Report;
    if width > opts.dense_limit
        || (track_choices && width.saturating_mul(children.len() as u64) > opts.dense_limit)
    {
        return Err(SolveError::BudgetExceeded(format!(
            "universe DP needs {} cells over {} groups",
            width,
            children.len()
        )));
    }

    const UNREACHED: u64 = u64::MAX;
    let mut opt: Vec<u64> = vec![UNREACHED; width as usize];
    opt[0] = 0;
    let mut choices: Vec<Vec<(u64, u64)>> = Vec::new();
    for child in &children {
        let pts = child.points(opts.pair_points_limit)?;
        let mut next: Vec<u64> = vec![UNREACHED; width as usize];
        let mut choice: Vec<(u64, u64)> = if track_choices {
            vec![(UNREACHED, 0); width as usize]
        } else {
            Vec::new()
        };
        for j in 0..width {
            // option: take nothing from this child
            if opt[j as usize] != UNREACHED {
                next[j as usize] = opt[j as usize];
                if track_choices {
                    choice[j as usize] = (0, j);
                }
            }
        }
        for &(c, r) in &pts {
            for j in 0..width {
                let prev = j.saturating_sub(r);
                if opt[prev as usize] == UNREACHED {
                    continue;
                }
                let cand = opt[prev as usize] + c;
                if cand < next[j as usize] {
                    next[j as usize] = cand;
                    if track_choices {
                        choice[j as usize] = (r.min(j), prev);
                    }
                }
            }
        }
        opt = next;
        if track_choices {
            choices.push(choice);
        }
    }

    let profile = CostProfile::from_pairs((1..width).filter_map(|j| {
        let c = opt[j as usize];
        (c != UNREACHED).then_some((c, j))
    }));
    let truncated = children.iter().any(|c| c.truncated);
    Ok(Solved::eager(
        profile,
        Extractor::Dp(DpNode {
            children,
            combine: Combine::Disjoint,
            choice: choices,
        }),
        exact,
        total,
    )
    .with_truncated(truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::solver::{solve_once, AdpOptions};
    use adp_engine::schema::attrs;

    /// Q(A,B) :- R1(A,B), R2(A,B) with A universal: groups are A-values.
    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            "R1",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 2], &[2, 1], &[3, 1]],
        );
        db.add_relation(
            "R2",
            attrs(&["A", "B"]),
            &[&[1, 1], &[1, 2], &[2, 1], &[3, 1]],
        );
        db
    }

    #[test]
    fn universe_partitions_and_recombines() {
        // After removing the universal {A,B} both relations' residuals
        // are vacuum; each (A,B) group is a singleton output of cost 1.
        let q = parse_query("Q(A,B) :- R1(A,B), R2(A,B)").unwrap();
        let out = solve_once(&q, &db(), 2, &AdpOptions::default()).unwrap();
        assert_eq!(out.output_count, 4);
        assert!(out.exact);
        assert_eq!(out.cost, 2, "two groups must be hit");
        assert_eq!(out.solution.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn one_by_one_matches_combined() {
        let q = parse_query("Q(A,B) :- R1(A,B), R2(A,B)").unwrap();
        for k in 1..=4 {
            let combined = solve_once(&q, &db(), k, &AdpOptions::default()).unwrap();
            let one_by_one = solve_once(
                &q,
                &db(),
                k,
                &AdpOptions {
                    universe: UniverseStrategy::OneByOne,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(combined.cost, one_by_one.cost, "k={k}");
        }
    }

    #[test]
    fn uneven_groups_prefer_cheap_high_yield() {
        // A=1 has 3 outputs removable at cost 1 via R1's B-side? Build a
        // clearer case: Q(A) :- R1(A,B), R2(A):
        //   A universal; residual R1(B), R2() per group.
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R2", attrs(&["A"]), &[&[1], &[2]]);
        let q = parse_query("Q(A) :- R1(A,B), R2(A)").unwrap();
        // |Q(D)| = 2 (a=1, a=2). k=1: cost 1 (delete R2(2) or R2(1)).
        let out = solve_once(&q, &db, 1, &AdpOptions::default()).unwrap();
        assert_eq!(out.output_count, 2);
        assert_eq!(out.cost, 1);
        assert!(out.exact);
        // k=2: both groups; group a=1 needs 1 (R2(1)), group a=2 needs 1.
        let out = solve_once(&q, &db, 2, &AdpOptions::default()).unwrap();
        assert_eq!(out.cost, 2);
    }
}
