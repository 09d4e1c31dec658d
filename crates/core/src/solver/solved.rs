//! The result object exchanged between sub-solvers: a cost profile plus
//! enough structure to extract an actual deletion set for any target.

use super::profile::CostProfile;
use crate::error::SolveError;
use adp_engine::provenance::TupleRef;
use std::sync::OnceLock;

/// Result of solving one (sub)instance.
#[derive(Clone, Debug)]
pub struct Solved {
    pub(crate) repr: Repr,
    /// Is the profile exact (vs. a heuristic upper bound)?
    pub exact: bool,
    /// True if a per-request deadline ([`AdpOptions::deadline`]) expired
    /// before the greedy rounds reached the caller's cap: the profile is
    /// a valid best-so-far prefix, not the full heuristic profile.
    ///
    /// [`AdpOptions::deadline`]: super::AdpOptions::deadline
    pub truncated: bool,
    /// `|Q(D)|` for this subinstance (used by `Decompose`'s cross-product
    /// arithmetic; may be larger than the profile's removable range when
    /// a cap was applied).
    pub total_outputs: u64,
}

#[derive(Clone, Debug)]
pub(crate) enum Repr {
    /// A materialized profile plus an extractor.
    Eager {
        profile: CostProfile,
        extract: Extractor,
    },
    /// A lazy cross-product combination of two children (sparse
    /// `Decompose`, §7.3): removal arithmetic is evaluated on demand.
    Pair(Box<PairNode>),
}

/// Extraction strategies for Eager results.
#[derive(Clone, Debug)]
pub(crate) enum Extractor {
    /// No tuples to delete (empty result).
    Empty,
    /// Prefix extraction: take the shortest prefix of the steps whose
    /// cumulative removal reaches the target.
    Steps(Steps),
    /// Dynamic-program extraction (Universe / dense Decompose): walk the
    /// layered choice table backwards, delegating to child extractors.
    Dp(DpNode),
}

/// One prefix step: deleting `tuples` (in addition to all earlier steps)
/// brings cumulative removal to `removed_cum` at cumulative cost
/// `cost_cum`.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    pub tuples: Vec<TupleRef>,
    pub removed_cum: u64,
    pub cost_cum: u64,
}

/// The steps of a prefix extractor, with an index that answers sorted
/// extractions without sorting.
#[derive(Clone, Debug)]
pub(crate) struct Steps {
    steps: Vec<Step>,
    /// Built on the first sorted extraction, so a memoized result pays
    /// its sort once, not on every hit.
    sorted: OnceLock<SortedPicks>,
}

/// The distinct tuples of a [`Steps`], sorted, each tagged with the
/// first step that picks it.
#[derive(Clone, Debug)]
struct SortedPicks {
    tuples: Vec<TupleRef>,
    /// `first[j]`: the first step that picks `tuples[j]`.
    first: Vec<usize>,
    /// `upto[i]`: how many of `tuples` steps `0..=i` pick.
    upto: Vec<usize>,
}

impl Steps {
    /// The index of the first step whose cumulative removal reaches
    /// `m > 0`, and that removal; `KTooLarge` past the last step.
    fn prefix_end(&self, m: u64) -> Result<(usize, u64), SolveError> {
        let end = self.steps.partition_point(|s| s.removed_cum < m);
        match self.steps.get(end) {
            Some(s) => Ok((end, s.removed_cum)),
            None => Err(SolveError::KTooLarge {
                k: m,
                available: self.steps.last().map_or(0, |s| s.removed_cum),
            }),
        }
    }

    /// The tuples of the shortest prefix removing at least `m > 0`
    /// outputs, in pick order, and the number removed.
    fn extract(&self, m: u64) -> Result<(Vec<TupleRef>, u64), SolveError> {
        let (end, removed) = self.prefix_end(m)?;
        let tuples = self.steps[..=end]
            .iter()
            .flat_map(|s| s.tuples.iter().copied())
            .collect();
        Ok((tuples, removed))
    }

    /// [`extract`](Self::extract), sorted and deduplicated, read off the
    /// index in one scan (one copy when every indexed tuple is in).
    fn extract_sorted(&self, m: u64) -> Result<(Vec<TupleRef>, u64), SolveError> {
        let (end, removed) = self.prefix_end(m)?;
        let index = self.index();
        let n = index.upto[end];
        if n == index.tuples.len() {
            return Ok((index.tuples.clone(), removed));
        }
        let mut tuples = Vec::with_capacity(n);
        tuples.extend(
            index
                .tuples
                .iter()
                .zip(&index.first)
                .filter(|&(_, &first)| first <= end)
                .map(|(&t, _)| t),
        );
        Ok((tuples, removed))
    }

    fn index(&self) -> &SortedPicks {
        self.sorted.get_or_init(|| {
            let mut picks: Vec<(TupleRef, usize)> = self
                .steps
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.tuples.iter().map(move |&t| (t, i)))
                .collect();
            // Sorted by (tuple, step), so deduplication keeps each
            // tuple's first step.
            picks.sort_unstable();
            picks.dedup_by_key(|p| p.0);
            let (tuples, first): (Vec<_>, Vec<_>) = picks.into_iter().unzip();
            let mut upto = vec![0; self.steps.len()];
            for &step in &first {
                upto[step] += 1;
            }
            for i in 1..upto.len() {
                upto[i] += upto[i - 1];
            }
            SortedPicks {
                tuples,
                first,
                upto,
            }
        })
    }
}

/// How a DP's children's outputs combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Combine {
    /// Disjoint union (Universe): removals add up.
    Disjoint,
    /// Cross product (Decompose): see [`cross_removed`].
    Product,
}

/// Choice tables of a layered DP over children.
#[derive(Clone, Debug)]
pub(crate) struct DpNode {
    pub children: Vec<Solved>,
    pub combine: Combine,
    /// `choice[i][j]` = (outputs removed from child `i`, previous budget
    /// index) on the optimal path for `Opt[i][j]`. `u64::MAX` marks
    /// unreachable states. Empty in counting mode.
    pub choice: Vec<Vec<(u64, u64)>>,
}

/// Lazy two-way cross-product combination.
#[derive(Clone, Debug)]
pub(crate) struct PairNode {
    pub left: Solved,
    pub right: Solved,
}

impl Extractor {
    /// A prefix extractor over `steps`, whose cumulative removals must
    /// not decrease.
    pub(crate) fn steps(steps: Vec<Step>) -> Extractor {
        debug_assert!(steps
            .windows(2)
            .all(|w| w[0].removed_cum <= w[1].removed_cum));
        Extractor::Steps(Steps {
            steps,
            sorted: OnceLock::new(),
        })
    }
}

impl Solved {
    pub(crate) fn eager(
        profile: CostProfile,
        extract: Extractor,
        exact: bool,
        total_outputs: u64,
    ) -> Self {
        Solved {
            repr: Repr::Eager { profile, extract },
            exact,
            truncated: false,
            total_outputs,
        }
    }

    /// Marks (ORs in) deadline truncation, e.g. when combining children
    /// of which one was cut short.
    pub(crate) fn with_truncated(mut self, truncated: bool) -> Self {
        self.truncated |= truncated;
        self
    }

    /// An empty result (nothing removable).
    pub(crate) fn empty() -> Self {
        Solved::eager(CostProfile::empty(), Extractor::Empty, true, 0)
    }

    /// Maximum removable outputs.
    pub fn max_removable(&self) -> u64 {
        match &self.repr {
            Repr::Eager { profile, .. } => profile.total_removable(),
            Repr::Pair(p) => {
                // removal is monotone in both children
                let (ml, mr) = (p.left.total_outputs, p.right.total_outputs);
                let (rl, rr) = (p.left.max_removable(), p.right.max_removable());
                cross_removed(rl, rr, ml, mr)
            }
        }
    }

    /// Minimum cost to remove at least `m` outputs.
    pub fn min_cost(&self, m: u64) -> Result<Option<u64>, SolveError> {
        match &self.repr {
            Repr::Eager { profile, .. } => Ok(profile.min_cost(m)),
            Repr::Pair(p) => Ok(p.search(m)?.map(|(c, _, _)| c)),
        }
    }

    /// The Pareto points of this result, materializing lazy pairs (guarded
    /// by `points_limit`).
    pub(crate) fn points(&self, points_limit: u64) -> Result<Vec<(u64, u64)>, SolveError> {
        match &self.repr {
            Repr::Eager { profile, .. } => Ok(profile
                .points()
                .iter()
                .map(|p| (p.cost, p.removed))
                .collect()),
            Repr::Pair(p) => {
                let lp = with_origin(p.left.points(points_limit)?);
                let rp = with_origin(p.right.points(points_limit)?);
                let n = (lp.len() as u64).saturating_mul(rp.len() as u64);
                if n > points_limit {
                    return Err(SolveError::BudgetExceeded(format!(
                        "materializing a cross-product profile needs {n} point pairs \
                         (limit {points_limit})"
                    )));
                }
                let (ml, mr) = (p.left.total_outputs, p.right.total_outputs);
                let mut pairs = Vec::with_capacity(lp.len() * rp.len());
                for &(c1, r1) in &lp {
                    for &(c2, r2) in &rp {
                        pairs.push((c1 + c2, cross_removed(r1, r2, ml, mr)));
                    }
                }
                Ok(CostProfile::from_pairs(pairs)
                    .points()
                    .iter()
                    .map(|p| (p.cost, p.removed))
                    .collect())
            }
        }
    }

    /// Extracts a deletion set removing at least `m` outputs, with the
    /// number of outputs it does remove. DP and cross-product profiles
    /// clamp removals at the cap, so their set can remove more than `m`;
    /// the count comes from the children's own counts. Requires the
    /// result to have been computed in report mode (DP choice tables
    /// present) and `m ≤ max_removable()`.
    pub fn extract(&self, m: u64) -> Result<(Vec<TupleRef>, u64), SolveError> {
        if m == 0 {
            return Ok((Vec::new(), 0));
        }
        match &self.repr {
            Repr::Eager { extract, .. } => match extract {
                Extractor::Empty => Ok((Vec::new(), 0)),
                Extractor::Steps(steps) => steps.extract(m),
                Extractor::Dp(dp) => {
                    if dp.choice.is_empty() {
                        return Err(SolveError::BudgetExceeded(
                            "solution extraction requires report mode".into(),
                        ));
                    }
                    let mut out = Vec::new();
                    let mut removed = vec![0u64; dp.children.len()];
                    let mut j = m;
                    for i in (0..dp.children.len()).rev() {
                        let (mi, jprev) = dp.choice[i][j as usize];
                        assert_ne!(mi, u64::MAX, "extracting an unreachable DP state");
                        let (tuples, r) = dp.children[i].extract(mi)?;
                        out.extend(tuples);
                        removed[i] = r;
                        j = jprev;
                    }
                    assert_eq!(j, 0);
                    let removed = match dp.combine {
                        Combine::Disjoint => removed.iter().sum(),
                        Combine::Product => product_removed(
                            dp.children.iter().map(|c| c.total_outputs).zip(removed),
                        ),
                    };
                    Ok((out, removed))
                }
            },
            Repr::Pair(p) => {
                let (_, r1, r2) = p.search(m)?.ok_or(SolveError::KTooLarge {
                    k: m,
                    available: self.max_removable(),
                })?;
                let (mut out, a1) = p.left.extract(r1)?;
                let (right, a2) = p.right.extract(r2)?;
                out.extend(right);
                let removed = cross_removed(a1, a2, p.left.total_outputs, p.right.total_outputs);
                Ok((out, removed))
            }
        }
    }

    /// [`extract`](Self::extract), with the set sorted and deduplicated:
    /// the report-mode answer. A prefix extractor reads it off its
    /// sorted index, so a memoized result never re-sorts.
    pub(crate) fn extract_sorted(&self, m: u64) -> Result<(Vec<TupleRef>, u64), SolveError> {
        match &self.repr {
            Repr::Eager {
                extract: Extractor::Steps(steps),
                ..
            } if m > 0 => steps.extract_sorted(m),
            _ => {
                let (mut tuples, removed) = self.extract(m)?;
                tuples.sort_unstable();
                tuples.dedup();
                Ok((tuples, removed))
            }
        }
    }
}

impl PairNode {
    /// Finds the optimal split for removing at least `m` outputs from the
    /// cross product: returns `(cost, removed_left, removed_right)`.
    fn search(&self, m: u64) -> Result<Option<(u64, u64, u64)>, SolveError> {
        if m == 0 {
            return Ok(Some((0, 0, 0)));
        }
        let (ml, mr) = (self.left.total_outputs, self.right.total_outputs);
        // Enumerate the left child's Pareto points; for each, the minimal
        // right-side removal follows from the cross-product arithmetic
        // k1·m_r + k2·m_l − k1·k2 ≥ m (Algorithm 5).
        let left_points = with_origin(self.left.points(u64::MAX)?);
        let mut best: Option<(u64, u64, u64)> = None;
        for &(c1, r1) in &left_points {
            let Some(r2) = required_right(r1, m, ml, mr) else {
                continue;
            };
            if r2 > self.right.max_removable() {
                continue;
            }
            let Some(c2) = self.right.min_cost(r2)? else {
                continue;
            };
            let cost = c1 + c2;
            if best.map(|(b, _, _)| cost < b).unwrap_or(true) {
                best = Some((cost, r1, r2));
            }
        }
        Ok(best)
    }
}

/// Outputs removed from a cross product when `r1` of `m1` left outputs and
/// `r2` of `m2` right outputs are removed:
/// `m1·m2 − (m1−r1)(m2−r2) = r1·m2 + r2·m1 − r1·r2` (paper §4.1).
pub(crate) fn cross_removed(r1: u64, r2: u64, m1: u64, m2: u64) -> u64 {
    let total = (m1 as u128) * (m2 as u128);
    let left = (m1 - r1.min(m1)) as u128;
    let right = (m2 - r2.min(m2)) as u128;
    let removed = total - left * right;
    u64::try_from(removed).unwrap_or(u64::MAX)
}

/// Outputs removed from a cross product of components given as
/// `(outputs, removed)` pairs, folded left to right with
/// [`cross_removed`].
pub(crate) fn product_removed(components: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (mut acc, mut prefix_total) = (0u64, 1u64);
    for (total, r) in components {
        acc = cross_removed(acc, r, prefix_total, total);
        prefix_total = prefix_total.saturating_mul(total);
    }
    acc
}

/// Minimal `r2` such that removing (`r1`, `r2`) from an `m1 × m2` cross
/// product removes at least `m` outputs; `None` if no `r2 ≤ m2` works.
pub(crate) fn required_right(r1: u64, m: u64, m1: u64, m2: u64) -> Option<u64> {
    let r1 = r1.min(m1);
    let covered = (r1 as u128) * (m2 as u128);
    if covered >= m as u128 {
        return Some(0);
    }
    let slack = m1 - r1;
    if slack == 0 {
        // r1 = m1 and still short: m exceeds this product's total
        return None;
    }
    let need = m as u128 - covered;
    let r2 = need.div_ceil(slack as u128);
    if r2 <= m2 as u128 {
        Some(r2 as u64)
    } else {
        None
    }
}

pub(crate) fn with_origin(points: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut v = Vec::with_capacity(points.len() + 1);
    v.push((0, 0));
    v.extend(points);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps_solved(pairs: &[(u64, u64)], total: u64) -> Solved {
        // each step deletes one synthetic tuple
        let steps: Vec<Step> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(c, r))| Step {
                tuples: vec![TupleRef::new(0, i as u32)],
                removed_cum: r,
                cost_cum: c,
            })
            .collect();
        let profile = CostProfile::from_pairs(pairs.iter().copied());
        Solved::eager(profile, Extractor::steps(steps), true, total)
    }

    #[test]
    fn cross_removed_arithmetic() {
        assert_eq!(cross_removed(0, 0, 3, 4), 0);
        assert_eq!(cross_removed(3, 0, 3, 4), 12);
        assert_eq!(cross_removed(1, 1, 3, 4), 4 + 3 - 1);
        assert_eq!(cross_removed(3, 4, 3, 4), 12);
    }

    #[test]
    fn required_right_inverts_cross_removed() {
        for m1 in 1..=5u64 {
            for m2 in 1..=5u64 {
                for r1 in 0..=m1 {
                    for m in 1..=m1 * m2 {
                        if let Some(r2) = required_right(r1, m, m1, m2) {
                            assert!(cross_removed(r1, r2, m1, m2) >= m);
                            if r2 > 0 {
                                assert!(cross_removed(r1, r2 - 1, m1, m2) < m);
                            }
                        } else {
                            assert!(cross_removed(r1, m2, m1, m2) < m);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_min_cost_matches_brute_force() {
        // left: 1 tuple removes 1 of 2 outputs, 2 tuples remove both
        let left = steps_solved(&[(1, 1), (2, 2)], 2);
        // right: 1 tuple removes 2 of 3 outputs, 3 tuples remove all 3
        let right = steps_solved(&[(1, 2), (3, 3)], 3);
        let pair = Solved {
            repr: Repr::Pair(Box::new(PairNode {
                left: left.clone(),
                right: right.clone(),
            })),
            exact: true,
            truncated: false,
            total_outputs: 6,
        };
        // brute force over (r1, r2) splits
        for m in 0..=6u64 {
            let mut best: Option<u64> = None;
            for r1 in 0..=2u64 {
                for r2 in 0..=3u64 {
                    if cross_removed(r1, r2, 2, 3) >= m {
                        let c = left.min_cost(r1).unwrap().unwrap()
                            + right.min_cost(r2).unwrap().unwrap();
                        best = Some(best.map(|b: u64| b.min(c)).unwrap_or(c));
                    }
                }
            }
            assert_eq!(pair.min_cost(m).unwrap(), best, "m={m}");
        }
    }

    #[test]
    fn pair_extract_is_feasible() {
        let left = steps_solved(&[(1, 1), (2, 2)], 2);
        let right = steps_solved(&[(1, 2), (3, 3)], 3);
        let pair = Solved {
            repr: Repr::Pair(Box::new(PairNode { left, right })),
            exact: true,
            truncated: false,
            total_outputs: 6,
        };
        let (sol, removed) = pair.extract(4).unwrap();
        let cost = pair.min_cost(4).unwrap().unwrap();
        assert_eq!(sol.len() as u64, cost);
        assert!(removed >= 4);
    }

    #[test]
    fn steps_extract_prefix() {
        let s = steps_solved(&[(1, 2), (2, 5)], 5);
        assert_eq!(s.extract(0).unwrap(), (vec![], 0));
        assert_eq!(s.extract(2).unwrap().0.len(), 1);
        assert_eq!(
            s.extract(3).unwrap(),
            (vec![TupleRef::new(0, 0), TupleRef::new(0, 1)], 5)
        );
        assert!(s.extract(6).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        /// The indexed extraction equals the pick-order extraction,
        /// sorted and deduplicated, at every target; tuples repeat
        /// across steps, and some steps remove nothing new.
        #[test]
        fn sorted_extraction_matches_sort_and_dedup(
            raw in proptest::collection::vec(
                (proptest::collection::vec((0usize..3, 0u32..12), 1..=4), 0u64..=3),
                1..=50,
            )
        ) {
            let (mut removed, mut cost) = (0, 0);
            let steps: Vec<Step> = raw
                .into_iter()
                .map(|(picks, gain)| {
                    removed += gain;
                    cost += picks.len() as u64;
                    Step {
                        tuples: picks.into_iter().map(|(a, i)| TupleRef::new(a, i)).collect(),
                        removed_cum: removed,
                        cost_cum: cost,
                    }
                })
                .collect();
            let pairs: Vec<(u64, u64)> = steps.iter().map(|s| (s.cost_cum, s.removed_cum)).collect();
            let solved = Solved::eager(
                CostProfile::from_pairs(pairs),
                Extractor::steps(steps),
                false,
                removed + 1,
            );
            for m in 1..=removed {
                let (mut want, want_removed) = solved.extract(m).unwrap();
                want.sort_unstable();
                want.dedup();
                proptest::prop_assert_eq!(solved.extract_sorted(m).unwrap(), (want, want_removed));
            }
            proptest::prop_assert!(matches!(
                solved.extract_sorted(removed + 1),
                Err(SolveError::KTooLarge { available, .. }) if available == removed
            ));
            proptest::prop_assert_eq!(solved.extract_sorted(0).unwrap(), (vec![], 0));
        }
    }

    #[test]
    fn pair_points_materialize() {
        let left = steps_solved(&[(1, 1), (2, 2)], 2);
        let right = steps_solved(&[(1, 2), (3, 3)], 3);
        let pair = Solved {
            repr: Repr::Pair(Box::new(PairNode { left, right })),
            exact: true,
            truncated: false,
            total_outputs: 6,
        };
        let pts = pair.points(1000).unwrap();
        // frontier must be consistent with min_cost
        for &(c, r) in &pts {
            assert_eq!(pair.min_cost(r).unwrap(), Some(c));
        }
        assert!(pair.points(2).is_err(), "limit enforced");
    }
}
