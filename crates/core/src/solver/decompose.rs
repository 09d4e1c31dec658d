//! The Decompose case (paper §7.3, Algorithm 5): disconnected queries.
//!
//! The results of the connected subqueries join by cross product, so
//! removing `k_i` outputs from component `i` removes
//! `∏ m_i − ∏ (m_i − k_i)` outputs overall. Three combination strategies
//! are implemented, matching the Figure 29 ablation:
//!
//! * [`DecomposeStrategy::NaiveFull`] — enumerate every `(k_1..k_s)`
//!   vector at once ("full partitions");
//! * [`DecomposeStrategy::NaivePairs`] — fold components two at a time
//!   with a dense double loop ("two partitions");
//! * [`DecomposeStrategy::ImprovedDp`] — the paper's improved DP,
//!   iterating only over profile breakpoints;
//! * [`DecomposeStrategy::Auto`] — improved DP when the dense table fits,
//!   otherwise a lazy sparse pair combination whose arithmetic runs in
//!   `O(B₁ log B₂)` per query (this is what lets counting scale to huge
//!   cross products).

use super::solved::{
    cross_removed, product_removed, required_right, Combine, DpNode, Extractor, PairNode, Repr,
    Solved, Step,
};
use super::view::View;
use super::{profile::CostProfile, AdpOptions, DecomposeStrategy, Mode};
use crate::error::SolveError;

pub(crate) fn solve_decompose(
    view: &View,
    cap: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let comps = view.query.connected_components();
    debug_assert!(comps.len() > 1);
    let mut children = Vec::with_capacity(comps.len());
    for comp in &comps {
        let sub = view.subview(comp);
        let child = super::solve(&sub, cap, opts)?;
        if child.total_outputs == 0 {
            return Ok(Solved::empty()); // empty component => empty product
        }
        children.push(child);
    }
    combine_product(children, cap, opts)
}

/// Combines children whose outputs join by **cross product**.
pub(crate) fn combine_product(
    children: Vec<Solved>,
    cap: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    debug_assert!(children.iter().all(|c| c.total_outputs > 0));
    let total = children
        .iter()
        .fold(1u128, |acc, c| acc.saturating_mul(c.total_outputs as u128));
    let total = u64::try_from(total).unwrap_or(u64::MAX);
    let cap = cap.min(total);

    // A deadline-truncated child makes the whole combination best-so-far.
    let truncated = children.iter().any(|c| c.truncated);
    let solved = match opts.decompose {
        DecomposeStrategy::NaiveFull => naive_full(children, cap, total)?,
        DecomposeStrategy::NaivePairs => naive_pairs(children, cap, total, opts)?,
        DecomposeStrategy::ImprovedDp => improved_dp(children, cap, total, opts)?,
        DecomposeStrategy::Auto => {
            // Two components: the lazy pair answers min-cost queries in
            // O(B₁ log B₂) — strictly better than any dense table. More
            // components: dense DP while it fits (nested pairs would
            // materialize cross-product profiles), lazy pairs otherwise.
            if children.len() == 2 {
                lazy_pairs(children)
            } else {
                let width = cap + 1;
                let fits = width <= opts.dense_limit
                    && (opts.mode == Mode::Count
                        || width.saturating_mul(children.len() as u64) <= opts.dense_limit);
                if fits {
                    improved_dp(children, cap, total, opts)?
                } else {
                    lazy_pairs(children)
                }
            }
        }
    };
    Ok(solved.with_truncated(truncated))
}

/// Lazy sparse combination: fold into nested [`PairNode`]s. Queries are
/// answered on demand; nothing dense is materialized.
fn lazy_pairs(children: Vec<Solved>) -> Solved {
    let exact = children.iter().all(|c| c.exact);
    let truncated = children.iter().any(|c| c.truncated);
    let mut iter = children.into_iter();
    // adp-lint: allow(panic-path) -- callers split a decomposable query
    // into ≥ 2 components before folding.
    let mut acc = iter.next().expect("at least two children");
    for right in iter {
        let total =
            u64::try_from((acc.total_outputs as u128).saturating_mul(right.total_outputs as u128))
                .unwrap_or(u64::MAX);
        acc = Solved {
            repr: Repr::Pair(Box::new(PairNode { left: acc, right })),
            exact,
            truncated,
            total_outputs: total,
        };
    }
    acc
}

/// The improved DP (Algorithm 5 with breakpoint transitions): processes
/// components left to right; `Opt[j]` = min deletions to remove ≥ `j`
/// outputs from the prefix product.
fn improved_dp(
    children: Vec<Solved>,
    cap: u64,
    total: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let exact = children.iter().all(|c| c.exact);
    let width = (cap + 1) as usize;
    let track = opts.mode == Mode::Report;
    const UNREACHED: u64 = u64::MAX;

    // Layer 0: the first child's own profile.
    let first_pts = children[0].points(opts.pair_points_limit)?;
    let mut opt: Vec<u64> = vec![UNREACHED; width];
    opt[0] = 0;
    let mut choices: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut first_choice = if track {
        vec![(UNREACHED, 0); width]
    } else {
        Vec::new()
    };
    if track {
        first_choice[0] = (0, 0);
    }
    for &(c, r) in &first_pts {
        for j in 1..=(r.min(cap)) as usize {
            if c < opt[j] {
                opt[j] = c;
                if track {
                    first_choice[j] = (j as u64, 0);
                }
            }
        }
    }
    if track {
        choices.push(first_choice);
    }

    // Subsequent layers.
    let mut prefix_total = children[0].total_outputs;
    for child in children.iter().skip(1) {
        let m_i = child.total_outputs;
        let pts = super::solved::with_origin(child.points(opts.pair_points_limit)?);
        let mut next: Vec<u64> = vec![UNREACHED; width];
        let mut choice = if track {
            vec![(UNREACHED, 0); width]
        } else {
            Vec::new()
        };
        for j in 0..width {
            if j == 0 {
                next[0] = 0;
                if track {
                    choice[0] = (0, 0);
                }
                continue;
            }
            for &(c, r) in &pts {
                // minimal prefix removal x given child removal r
                let Some(x) = required_right(r, j as u64, m_i, prefix_total) else {
                    continue;
                };
                if x as usize >= width || opt[x as usize] == UNREACHED {
                    continue;
                }
                let cand = opt[x as usize].saturating_add(c);
                if cand < next[j] {
                    next[j] = cand;
                    if track {
                        choice[j] = (r, x);
                    }
                }
            }
        }
        opt = next;
        if track {
            choices.push(choice);
        }
        prefix_total =
            u64::try_from((prefix_total as u128).saturating_mul(m_i as u128)).unwrap_or(u64::MAX);
    }

    let profile = CostProfile::from_pairs((1..width).filter_map(|j| {
        let c = opt[j];
        (c != UNREACHED).then_some((c, j as u64))
    }));
    Ok(Solved::eager(
        profile,
        Extractor::Dp(DpNode {
            children,
            combine: Combine::Product,
            choice: choices,
        }),
        exact,
        total,
    ))
}

/// Ablation: enumerate all `(k_1..k_s)` vectors for the single target
/// `cap` ("full partitions" in Figure 29). Exponential in `s`.
fn naive_full(children: Vec<Solved>, cap: u64, total: u64) -> Result<Solved, SolveError> {
    let exact = children.iter().all(|c| c.exact);
    let limits: Vec<u64> = children
        .iter()
        .map(|c| c.max_removable().min(cap))
        .collect();
    let space: u128 = limits.iter().map(|&l| (l + 1) as u128).product();
    if space > 200_000_000 {
        return Err(SolveError::BudgetExceeded(format!(
            "naive-full enumeration over {space} vectors"
        )));
    }
    let totals: Vec<u64> = children.iter().map(|c| c.total_outputs).collect();

    let mut best: Option<(u64, Vec<u64>)> = None;
    let mut ks: Vec<u64> = vec![0; children.len()];
    loop {
        if product_removed(totals.iter().copied().zip(ks.iter().copied())) >= cap {
            let mut cost = 0u64;
            let mut feasible = true;
            for (i, &k) in ks.iter().enumerate() {
                match children[i].min_cost(k)? {
                    Some(c) => cost += c,
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible && best.as_ref().map(|(b, _)| cost < *b).unwrap_or(true) {
                best = Some((cost, ks.clone()));
            }
        }
        // odometer increment
        let mut i = 0;
        loop {
            if i == ks.len() {
                break;
            }
            ks[i] += 1;
            if ks[i] <= limits[i] {
                break;
            }
            ks[i] = 0;
            i += 1;
        }
        if i == ks.len() {
            break;
        }
    }
    // adp-lint: allow(panic-path) -- the enumeration includes taking
    // every component's full budget, which meets any cap ≤ total.
    let (cost, ks) = best.expect("cap ≤ total is always feasible");
    let mut tuples = Vec::new();
    let mut removed = Vec::with_capacity(ks.len());
    for (i, &k) in ks.iter().enumerate() {
        let (set, r) = children[i].extract(k)?;
        tuples.extend(set);
        removed.push(r);
    }
    Ok(Solved::eager(
        CostProfile::single(cost, cap),
        Extractor::steps(vec![Step {
            tuples,
            removed_cum: product_removed(totals.into_iter().zip(removed)),
            cost_cum: cost,
        }]),
        exact,
        total,
    ))
}

/// Ablation: fold two components at a time with a dense double loop over
/// `(k_1, k_2)` ("two partitions" in Figure 29). `O(cap²)` per merge and
/// per budget — matches the unoptimized recurrence the paper compares
/// against.
fn naive_pairs(
    children: Vec<Solved>,
    cap: u64,
    total: u64,
    opts: &AdpOptions,
) -> Result<Solved, SolveError> {
    let exact = children.iter().all(|c| c.exact);
    let width = (cap + 1) as usize;
    if (cap + 1).saturating_mul(cap + 1) > opts.dense_limit.saturating_mul(64) {
        return Err(SolveError::BudgetExceeded(format!(
            "naive-pairs double loop over {width}² states"
        )));
    }
    const UNREACHED: u64 = u64::MAX;

    // dense cost vector of the running prefix
    let mut prefix_cost: Vec<u64> = vec![UNREACHED; width];
    for (j, slot) in prefix_cost.iter_mut().enumerate() {
        if children[0].max_removable() >= j as u64 {
            if let Some(c) = children[0].min_cost(j as u64)? {
                *slot = c;
            }
        }
    }
    let track = opts.mode == Mode::Report;
    let mut choices: Vec<Vec<(u64, u64)>> = Vec::new();
    if track {
        let mut c0 = vec![(UNREACHED, 0); width];
        for (j, item) in c0.iter_mut().enumerate() {
            if prefix_cost[j] != UNREACHED {
                *item = (j as u64, 0);
            }
        }
        choices.push(c0);
    }

    let mut prefix_total = children[0].total_outputs;
    for child in children.iter().skip(1) {
        let m_i = child.total_outputs;
        let mut next: Vec<u64> = vec![UNREACHED; width];
        let mut choice = if track {
            vec![(UNREACHED, 0); width]
        } else {
            Vec::new()
        };
        for j in 0..width {
            for k1 in 0..width as u64 {
                if prefix_cost[k1 as usize] == UNREACHED {
                    continue;
                }
                for k2 in 0..=child.max_removable().min(cap) {
                    if cross_removed(k1, k2, prefix_total, m_i) < j as u64 {
                        continue;
                    }
                    let Some(c2) = child.min_cost(k2)? else {
                        continue;
                    };
                    let cand = prefix_cost[k1 as usize].saturating_add(c2);
                    if cand < next[j] {
                        next[j] = cand;
                        if track {
                            choice[j] = (k2, k1);
                        }
                    }
                }
            }
        }
        prefix_cost = next;
        if track {
            choices.push(choice);
        }
        prefix_total =
            u64::try_from((prefix_total as u128).saturating_mul(m_i as u128)).unwrap_or(u64::MAX);
    }

    let profile = CostProfile::from_pairs((1..width).filter_map(|j| {
        let c = prefix_cost[j];
        (c != UNREACHED).then_some((c, j as u64))
    }));
    Ok(Solved::eager(
        profile,
        Extractor::Dp(DpNode {
            children,
            combine: Combine::Product,
            choice: choices,
        }),
        exact,
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::solver::{solve_once, AdpOptions};
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;

    /// Q(A,B) :- R(A), S(B): pure cross product, |Q| = |R|·|S|.
    fn cross_db(na: u64, nb: u64) -> Database {
        let mut db = Database::new();
        let ra: Vec<Vec<u64>> = (0..na).map(|i| vec![i]).collect();
        let rb: Vec<Vec<u64>> = (0..nb).map(|i| vec![i]).collect();
        let mut r = adp_engine::relation::RelationInstance::new(
            adp_engine::schema::RelationSchema::new("R", attrs(&["A"])),
        );
        r.extend(ra);
        let mut s = adp_engine::relation::RelationInstance::new(
            adp_engine::schema::RelationSchema::new("S", attrs(&["B"])),
        );
        s.extend(rb);
        db.add(r);
        db.add(s);
        db
    }

    fn strategies() -> Vec<DecomposeStrategy> {
        vec![
            DecomposeStrategy::Auto,
            DecomposeStrategy::NaiveFull,
            DecomposeStrategy::NaivePairs,
            DecomposeStrategy::ImprovedDp,
        ]
    }

    #[test]
    fn cross_product_adp_brute_checkable() {
        // |R| = 3, |S| = 4, |Q| = 12. Removing k outputs optimally:
        // deleting a of R and b of S removes 4a + 3b − ab at cost a + b.
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let db = cross_db(3, 4);
        // exhaustive ground truth
        let mut truth = [u64::MAX; 13];
        for a in 0..=3u64 {
            for b in 0..=4u64 {
                let removed = 4 * a + 3 * b - a * b;
                for k in 0..=removed.min(12) {
                    truth[k as usize] = truth[k as usize].min(a + b);
                }
            }
        }
        for strategy in strategies() {
            for k in 1..=12u64 {
                let out = solve_once(
                    &q,
                    &db,
                    k,
                    &AdpOptions {
                        decompose: strategy,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(out.cost, truth[k as usize], "{strategy:?} k={k}");
                assert!(out.exact);
                // verify feasibility of the reported solution
                let sol = out.solution.unwrap();
                assert_eq!(sol.len() as u64, out.cost, "{strategy:?} k={k}");
            }
        }
    }

    #[test]
    fn three_components() {
        let q = parse_query("Q(A,B,C) :- R(A), S(B), T(C)").unwrap();
        let mut db = cross_db(2, 2);
        db.add_relation("T", attrs(&["C"]), &[&[0], &[1]]);
        // |Q| = 8; removing all = delete a whole relation (2 tuples).
        for strategy in strategies() {
            let out = solve_once(
                &q,
                &db,
                8,
                &AdpOptions {
                    decompose: strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(out.cost, 2, "{strategy:?}");
        }
        // k=4: delete one tuple of any relation removes exactly 4.
        for strategy in strategies() {
            let out = solve_once(
                &q,
                &db,
                4,
                &AdpOptions {
                    decompose: strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(out.cost, 1, "{strategy:?}");
        }
    }

    #[test]
    fn sparse_path_matches_dense() {
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let db = cross_db(5, 7);
        for k in [1, 5, 12, 20, 34, 35] {
            let dense = solve_once(&q, &db, k, &AdpOptions::default()).unwrap();
            let sparse = solve_once(
                &q,
                &db,
                k,
                &AdpOptions {
                    dense_limit: 1, // force the lazy pair path
                    mode: super::super::Mode::Report,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(dense.cost, sparse.cost, "k={k}");
            assert_eq!(sparse.solution.unwrap().len() as u64, sparse.cost);
        }
    }

    #[test]
    fn empty_component_empties_product() {
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let mut db = Database::new();
        db.add_relation("R", attrs(&["A"]), &[&[1]]);
        db.add_relation("S", attrs(&["B"]), &[]);
        // An empty component empties the cross product: zero outputs,
        // so the answer is the empty deletion set at cost 0.
        let out = solve_once(&q, &db, 1, &AdpOptions::default()).unwrap();
        assert_eq!(out.output_count, 0);
        assert_eq!(out.cost, 0);
        assert_eq!(out.solution.as_deref(), Some(&[][..]));
    }
}
