//! Order statistics used by every metric: medians over repetitions,
//! nearest-rank percentiles over pooled latency samples, and the quartile
//! spread the A/A check compares against a metric's bound.

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and it is one outlier's value, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Whether quantile `q` of `n` samples has [`MIN_BEYOND`] samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// [`percentile`] when [`supported`], else 0 (documented as "not enough
/// samples" in the README).
pub fn percentile_if_supported(sorted: &[u64], q: f64) -> u64 {
    if supported(sorted.len(), q) {
        percentile(sorted, q)
    } else {
        0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method). Needs at least two values; 0.0 otherwise.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = values.len();
    if m < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (m + 1);
        let j = (pos / 4).clamp(1, m - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), 500);
        assert_eq!(percentile(&s, 0.99), 990);
        assert_eq!(percentile(&s, 0.999), 999);
        assert_eq!(percentile(&s, 1.0), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(!supported(1000, 0.999));
        assert!(supported(10_000, 0.999));
        // The median of 20 samples has exactly 10 beyond it.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile_if_supported(&s, 0.99), 0);
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_if_supported(&s, 0.99), 990);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(&[10.0, 20.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
