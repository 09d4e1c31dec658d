//! Sample summaries: nearest-rank percentiles and the rule that decides
//! which percentiles a sample count can support.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer would make the tail a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The percentile every tail metric reports (`*_p95_*`).
pub const TAIL: f64 = 95.0;

/// Samples strictly beyond percentile `p` in a set of `n` under the
/// nearest-rank rule: the value at rank `ceil(p/100 · n)` is the
/// percentile, and the ranks after it are beyond.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// True when `n` samples leave at least [`MIN_BEYOND`] beyond `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest of the usual reporting percentiles that `n` samples
/// support, or `None` when even the median has too few beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Round away float noise first: 95% of 200 must be rank 190, not 191.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (any order). `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The median, as [`percentile`] at 50.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean. `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The mean of the samples left after dropping the lowest and the
/// highest tenth: robust to a few host stalls, yet it moves with a
/// mixture of fast and slow stretches where a median would flip. `NaN`
/// when empty.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    mean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_each_outer_tenth() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        // One stall among twenty samples: {2..=20, 1000}. Two are
        // dropped at each end, {4..=19} remain.
        v[0] = 1000.0;
        assert_eq!(trimmed_mean(&v), 11.5);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        assert!(trimmed_mean(&[]).is_nan());
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(beyond(200, 95.0), 10);
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert_eq!(beyond(199, 95.0), 9);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
    }

    #[test]
    fn small_sets_support_little_or_nothing() {
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
