//! Summary statistics for the benchmark's reports.

/// Quartiles `(q1, median, q3)` by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, so spreads quoted
/// by this tool and by external scripts agree. A single value is its own
/// quartiles. `xs` must be non-empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), median_sorted(&s), q(3))
}

/// Median (mean of the middle pair for an even count). `xs` must be
/// non-empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

/// Arithmetic mean; 0 for an empty sample (a layer that never ran).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest rank of the `permille`/1000 percentile in a sample of `n`
/// (integer arithmetic, so p99 of 1000 samples is exactly rank 990).
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`permille`/1000, e.g. 990 for p99) of an
/// ascending-sorted sample; 0 for an empty one (a layer that never ran
/// spent no time).
pub fn percentile_sorted(s: &[f64], permille: usize) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), permille) - 1]
}

/// The tail percentiles the benchmark reports, lowest first.
const TAILS: [(&str, usize); 4] = [("p50", 500), ("p90", 900), ("p99", 990), ("p99.9", 999)];

/// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
/// it in an ascending-sorted sample, as `(label, value)`; `None` below
/// twenty samples, where even the median has fewer than ten above it.
pub fn tail_sorted(s: &[f64]) -> Option<(&'static str, f64)> {
    let n = s.len();
    TAILS
        .iter()
        .rev()
        .find(|&&(_, pm)| n >= 1 && n - rank(n, pm) >= 10)
        .map(|&(label, pm)| (label, percentile_sorted(s, pm)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 500), 50.0);
        assert_eq!(percentile_sorted(&s, 990), 99.0);
        assert_eq!(percentile_sorted(&s, 1000), 100.0);
        assert_eq!(percentile_sorted(&[], 500), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail_sorted(&sample(19)), None);
        assert_eq!(tail_sorted(&sample(20)), Some(("p50", 10.0)));
        assert_eq!(tail_sorted(&sample(99)).map(|t| t.0), Some("p50"));
        assert_eq!(tail_sorted(&sample(100)), Some(("p90", 90.0)));
        assert_eq!(tail_sorted(&sample(999)).map(|t| t.0), Some("p90"));
        assert_eq!(tail_sorted(&sample(1000)), Some(("p99", 990.0)));
        assert_eq!(tail_sorted(&sample(10_000)), Some(("p99.9", 9990.0)));
        assert_eq!(tail_sorted(&sample(200_000)).map(|t| t.0), Some("p99.9"));
    }
}
