//! Differential test of the boolean min-cut leaf (paper §7.1) against a
//! reference network built over the materialized non-dangling reduction.
//!
//! The leaf builds its flow network straight over the view's database,
//! one edge per tuple its evaluation names as non-dangling. The
//! reference here builds the network the long way: reduce the instance
//! with [`remove_dangling`] into a copied database, add one edge per
//! reduced tuple, intern boundary nodes through a `HashMap`, and map the
//! cut back through the reduction's back-map. Both must report the same
//! `(cost, cut tuples, exact, truncated)` — the tuples in the same
//! order — on random boolean queries:
//!
//! * one or several connected components, with boundaries of one or
//!   more attributes (queries without a linear order take the greedy
//!   path and are skipped here);
//! * with and without a deletion policy freezing random relations;
//! * on plain, sealed, and sealed-then-tombstoned databases.

use adp::core::analysis::linear::find_linear_order;
use adp::core::analysis::roles::endogenous_atoms;
use adp::engine::relation::RelationInstance;
use adp::engine::semijoin::remove_dangling;
use adp::flow::{FlowNetwork, INF};
use adp::{parse_query, Database, DeletionPolicy, Query, Solve, SolveError, TupleRef, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The attribute pool of generated queries.
const ATTRS: [&str; 5] = ["A", "B", "C", "D", "E"];

/// One generated instance.
#[derive(Clone, Debug)]
struct Case {
    query: Query,
    db: Database,
    /// Relations the policy freezes (empty: no policy).
    frozen: Vec<String>,
    /// 0: plain store; 1: sealed into tiny segments; 2: sealed, then
    /// every `step`-th stable id of each relation tombstoned.
    epoch: usize,
}

/// What the reference network says about an instance.
#[derive(Debug, PartialEq)]
enum Reference {
    /// Some relation has no non-dangling tuple: nothing to remove.
    False,
    /// Every component's cut is infinite under the policy.
    NoFiniteCut,
    /// The cheapest component's cut, tuples in edge order.
    Cut(u64, Vec<TupleRef>),
}

/// Strategy: a self-join-free boolean query of 1..=4 atoms of arity
/// 1..=3 over [`ATTRS`], a database of up to 12 rows per relation over a
/// 3-value domain (so joins match and some tuples dangle), a random
/// frozen set and a random epoch shape.
fn arb_case() -> impl Strategy<Value = Case> {
    proptest::collection::vec(
        proptest::collection::btree_set(0usize..ATTRS.len(), 1..=3),
        1..=4,
    )
    .prop_flat_map(|atom_sets| {
        let n = atom_sets.len();
        (
            Just(atom_sets),
            proptest::collection::vec(proptest::collection::vec(0u64..3, 0..=36), n..=n),
            proptest::collection::vec(0usize..4, n..=n),
            0usize..3,
            2u32..5,
        )
    })
    .prop_map(|(atom_sets, streams, freeze, epoch, step)| {
        let atoms: Vec<String> = atom_sets
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let names: Vec<&str> = s.iter().map(|&a| ATTRS[a]).collect();
                format!("R{i}({})", names.join(","))
            })
            .collect();
        let query = parse_query(&format!("Q() :- {}", atoms.join(", "))).expect("valid query");
        let mut db = Database::new();
        for (atom, stream) in query.atoms().iter().zip(&streams) {
            let mut inst = RelationInstance::new(atom.clone());
            let arity = atom.arity();
            for row in stream.chunks_exact(arity) {
                inst.insert(row);
            }
            db.add(inst);
        }
        if epoch > 0 {
            db.seal_all(3);
        }
        if epoch == 2 {
            for atom in query.atoms() {
                let id = db.rel_id(atom.name()).expect("relation exists");
                let rel = db.relation_mut_by_id(id);
                let n = u32::try_from(rel.len()).expect("small relation");
                for s in (0..n).step_by(step as usize) {
                    rel.delete_stable(s);
                }
            }
        }
        // A relation is frozen with probability 1/4.
        let frozen = query
            .atoms()
            .iter()
            .zip(&freeze)
            .filter(|&(_, &f)| f == 0)
            .map(|(a, _)| a.name().to_owned())
            .collect();
        Case {
            query,
            db,
            frozen,
            epoch,
        }
    })
}

/// The reference network: reduce, copy, intern through a map.
/// `None` when some component has no linear order.
fn reference(q: &Query, db: &Database, deletable: &[bool]) -> Option<Reference> {
    let comps = q.connected_components();
    let orders: Vec<Vec<usize>> = comps
        .iter()
        .map(|c| find_linear_order(q.subquery(c).atoms()))
        .collect::<Option<_>>()?;
    let reduced = remove_dangling(db, q.atoms());
    if reduced.db.relations().iter().any(|r| r.is_empty()) {
        return Some(Reference::False);
    }
    let mut best: Option<(u64, Vec<TupleRef>)> = None;
    for (comp, order) in comps.iter().zip(&orders) {
        let sub = q.subquery(comp);
        let atoms = sub.atoms();
        let local: Vec<bool> = comp.iter().map(|&i| deletable[i]).collect();
        let policy_active = local.iter().any(|&d| !d);
        let finite: Vec<bool> = endogenous_atoms(&sub)
            .into_iter()
            .zip(&local)
            .map(|(e, &d)| d && (e || policy_active))
            .collect();
        let p = order.len();
        let boundaries: Vec<Vec<_>> = (0..p.saturating_sub(1))
            .map(|i| {
                atoms[order[i]]
                    .attrs()
                    .iter()
                    .filter(|a| atoms[order[i + 1]].contains(a))
                    .cloned()
                    .collect()
            })
            .collect();
        let mut nodes: HashMap<(usize, Vec<Value>), u32> = HashMap::new();
        let mut intern = |key: (usize, Vec<Value>)| {
            let next = u32::try_from(nodes.len() + 2).expect("small network");
            *nodes.entry(key).or_insert(next)
        };
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        let mut tuples: Vec<TupleRef> = Vec::new();
        for (pos, &ai) in order.iter().enumerate() {
            let rel = reduced.db.expect(atoms[ai].name());
            for idx in rel.indices() {
                let u = if pos == 0 {
                    0
                } else {
                    intern((pos - 1, rel.project(idx, &boundaries[pos - 1])))
                };
                let v = if pos == p - 1 {
                    1
                } else {
                    intern((pos, rel.project(idx, &boundaries[pos])))
                };
                let cap = if finite[ai] { 1 } else { INF };
                edges.push((u, v, cap));
                let orig = comp[ai];
                tuples.push(TupleRef::new(orig, reduced.backmap[orig][idx as usize]));
            }
        }
        let mut net = FlowNetwork::new(nodes.len() + 2);
        for (id, &(u, v, cap)) in edges.iter().enumerate() {
            net.add_edge(u, v, cap, u32::try_from(id).expect("small network"));
        }
        // Edmonds–Karp: the residual source side, hence the reported cut,
        // is the same for every maximum flow. A cut through an infinite
        // edge means no finite cut exists.
        let flow = net.max_flow_edmonds_karp(0, 1).value;
        let ids = net.min_cut(0);
        if ids.iter().any(|&id| edges[id as usize].2 == INF) {
            continue;
        }
        assert_eq!(flow, ids.len() as u64, "a finite cut is its unit edges");
        let cut: Vec<TupleRef> = ids.into_iter().map(|id| tuples[id as usize]).collect();
        if best.as_ref().is_none_or(|(c, _)| flow < *c) {
            best = Some((flow, cut));
        }
    }
    Some(match best {
        Some((cost, cut)) => Reference::Cut(cost, cut),
        None => Reference::NoFiniteCut,
    })
}

/// The leaf's answer, through the public front door, as a
/// [`Reference`]; also checks the flags every exact answer carries.
fn solved(case: &Case, db: Arc<Database>) -> Result<Reference, String> {
    let mut solve = Solve::shared(&case.query, db).resilience();
    if !case.frozen.is_empty() {
        let policy = case
            .frozen
            .iter()
            .fold(DeletionPolicy::unrestricted(), |p, r| p.freeze(r));
        solve = solve.policy(policy);
    }
    match solve.run() {
        Ok(report) => {
            let out = report.outcome;
            if out.output_count == 0 {
                if out.cost != 0 {
                    return Err(format!("false query answered at cost {}", out.cost));
                }
                return Ok(Reference::False);
            }
            if !out.exact || out.truncated {
                return Err(format!(
                    "exact {} truncated {} on a linear query",
                    out.exact, out.truncated
                ));
            }
            Ok(Reference::Cut(out.cost, out.solution.unwrap_or_default()))
        }
        Err(SolveError::Infeasible { .. }) => Ok(Reference::NoFiniteCut),
        Err(e) => Err(format!("solve failed: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The leaf's `(cost, cut tuples, exact, truncated)` equal the
    /// reference network's on every linear boolean instance.
    #[test]
    fn min_cut_leaf_matches_the_reduced_reference(case in arb_case()) {
        let deletable: Vec<bool> = case
            .query
            .atoms()
            .iter()
            .map(|a| !case.frozen.iter().any(|f| f == a.name()))
            .collect();
        let Some(want) = reference(&case.query, &case.db, &deletable) else {
            return Ok(()); // no linear order: the greedy path
        };
        let got = solved(&case, Arc::new(case.db.clone()))?;
        prop_assert_eq!(got, want);
    }
}

/// The generator reaches every shape the property claims to cover.
#[test]
fn generated_cases_cover_the_claimed_shapes() {
    let strategy = arb_case();
    let mut rng = proptest::TestRng::seed(0xB001);
    let (mut multi, mut wide, mut policy, mut tombstoned, mut cut, mut linear) = (0, 0, 0, 0, 0, 0);
    for _ in 0..384 {
        let case = strategy.generate(&mut rng);
        let q = &case.query;
        let comps = q.connected_components();
        let Some(orders) = comps
            .iter()
            .map(|c| find_linear_order(q.subquery(c).atoms()))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        linear += 1;
        multi += usize::from(comps.len() > 1);
        let wide_boundary = comps.iter().zip(&orders).any(|(c, order)| {
            let sub = q.subquery(c);
            let atoms = sub.atoms();
            order.windows(2).any(|w| {
                atoms[w[0]]
                    .attrs()
                    .iter()
                    .filter(|a| atoms[w[1]].contains(a))
                    .count()
                    > 1
            })
        });
        wide += usize::from(wide_boundary);
        policy += usize::from(!case.frozen.is_empty());
        tombstoned += usize::from(case.epoch == 2);
        let deletable = vec![true; q.atom_count()];
        cut += usize::from(matches!(
            reference(q, &case.db, &deletable),
            Some(Reference::Cut(c, _)) if c > 1
        ));
    }
    for (what, n) in [
        ("linear", linear),
        ("multi-component", multi),
        ("multi-attribute boundary", wide),
        ("policy", policy),
        ("tombstoned", tombstoned),
        ("cut of cost > 1", cut),
    ] {
        assert!(n >= 20, "only {n} {what} cases");
    }
}
