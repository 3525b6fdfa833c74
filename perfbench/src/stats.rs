//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spread this crate prints for a
//! set of runs is the spread an external checker computes from the
//! same values.

/// Sorted copy of `xs`; panics on NaN, which no measurement produces.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
/// On an empty slice: a metric with no samples is a benchmark bug.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them.
///
/// # Panics
/// On fewer than two samples (Python raises there too).
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared with.
#[must_use]
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Samples needed beyond a reported percentile before it means
/// anything: fewer, and one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`, refusing to
/// report one with fewer than [`MIN_BEYOND`] samples beyond it — so a
/// p90 needs at least 100 samples.
///
/// # Errors
/// Names the sample count and how many a `p` needs.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let rank = |n: usize| (p * n as f64 / 100.0).ceil() as usize;
    let n = xs.len();
    if n - rank(n) < MIN_BEYOND {
        let need = (MIN_BEYOND..)
            .find(|&m| m - rank(m) >= MIN_BEYOND)
            .expect("some count leaves enough beyond");
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; it needs at least {need} samples",
            n - rank(n)
        ));
    }
    let rank = rank(n);
    Ok(sorted(xs)[rank - 1])
}

/// Operations that failed a correctness check over operations
/// attempted.
#[must_use]
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "no operation attempted");
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // Two samples clamp to the ends: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        let err = percentile(&xs[..99], 90.0).expect_err("99 samples are too few");
        assert!(err.contains("leaves 9 beyond"), "{err}");
        assert!(err.contains("at least 100 samples"), "{err}");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(10.0));
        assert!(percentile(&xs[..19], 50.0).is_err());
    }

    #[test]
    fn failed_share_counts_failures_over_attempts() {
        assert_eq!(failed_share(0, 120), 0.0);
        assert_eq!(failed_share(3, 12), 0.25);
    }

    #[test]
    #[should_panic(expected = "no operation attempted")]
    fn failed_share_without_attempts_panics() {
        let _ = failed_share(0, 0);
    }
}
