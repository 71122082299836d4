//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles and the quartile spread the regression bounds are
//! derived from.

/// Sorted copy (total order, so a stray NaN cannot panic the sort).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of a sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub((n as f64 * p / 100.0).ceil() as usize)
}

/// The highest of `candidates` (ascending, e.g. `[50, 95, 99]`) that
/// still has at least ten samples beyond it — the rule for which tail
/// percentile a sample count can carry.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile, by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)` (the driver's spread measure).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks; the rank is clamped to
        // the data and the fraction taken against the clamped rank,
        // exactly as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

/// Largest `|x − median| / median` over the samples.
pub fn max_rel_dev(v: &[f64]) -> f64 {
    let m = median(v);
    v.iter().map(|x| ((x - m) / m).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 95.0), 95.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples for ten beyond it; p99 needs 1000.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        let c = [50.0, 95.0, 99.0];
        assert_eq!(highest_supported_percentile(19, &c), None);
        assert_eq!(highest_supported_percentile(20, &c), Some(50.0));
        assert_eq!(highest_supported_percentile(199, &c), Some(50.0));
        assert_eq!(highest_supported_percentile(200, &c), Some(95.0));
        assert_eq!(highest_supported_percentile(999, &c), Some(95.0));
        assert_eq!(highest_supported_percentile(1000, &c), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((rel_iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((max_rel_dev(&[9.0, 10.0, 12.0]) - 0.2).abs() < 1e-12);
    }
}
