//! Order statistics the benchmark reports.

/// Candidate tail percentiles, lowest first.
const TAILS: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up a whole rank through binary representation error.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample (`NaN` when
/// empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest tail percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond its rank, or `None` when even p90 lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// A sorted latency sample with its tail, for the summary lines.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut line = format!(
        "{name}: n={} p50={:.4} {unit}",
        sorted.len(),
        percentile(&sorted, 50.0)
    );
    for p in [90.0, 99.0, 99.9] {
        let beyond = sorted.len().saturating_sub(rank(p, sorted.len().max(1)));
        line += &format!(" p{p}={:.4} ({beyond} beyond)", percentile(&sorted, p));
    }
    match highest_supported(sorted.len()) {
        Some(p) => line += &format!(" | highest supported: p{p}"),
        None => line += " | no tail percentile supported",
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reaches_the_tail() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 90.0), 90.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 99.9), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(99), None); // p90 rank 90: 9 beyond
        assert_eq!(highest_supported(100), Some(90.0)); // 10 beyond p90
        assert_eq!(highest_supported(199), Some(90.0)); // p95 rank 190: 9
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0)); // p99 rank 990: 9
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
