//! Order statistics over measured samples.

/// Nearest-rank percentile `pct` (1..=100) of an ascending slice: the
/// value at 1-based rank `ceil(pct · n / 100)`, in integer arithmetic.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

fn nearest_rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: u32) -> usize {
    n - nearest_rank(n, pct)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the sample allows it).
    pub pct: u32,
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The highest percentile `<= wanted` that has at least [`MIN_BEYOND`]
/// samples beyond it: `wanted` itself when the sample is large enough,
/// else the highest percentile that still has ten samples past it.
/// `None` when not even the median has.
pub fn tail(sorted: &[f64], wanted: u32) -> Option<Tail> {
    (50..=wanted)
        .rev()
        .find(|&pct| beyond(sorted.len(), pct) >= MIN_BEYOND)
        .map(|pct| Tail {
            pct,
            value: percentile(sorted, pct),
            beyond: beyond(sorted.len(), pct),
        })
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest value of a sample.
pub fn lowest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "lowest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// [`median`], or 0 for an empty sample (a layer the run never touched).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// `numerator / denominator`, or 0 for an empty base (the base is always
/// reported beside the ratio, so a 0 over 0 reads unambiguously).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 50), 500.0);
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&v, 100), 1000.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond — p99 is reported.
        let t = tail(&ramp(1000), 99).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));
        // 999 samples: rank 990 leaves nine beyond, so it falls back to
        // the highest percentile that has ten (p98: rank 980, 19 beyond).
        let t = tail(&ramp(999), 99).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (98, 980.0, 19));
        // 100 samples: p90 has exactly ten beyond.
        let t = tail(&ramp(100), 99).unwrap();
        assert_eq!((t.pct, t.beyond), (90, 10));
        // Too few samples for even the median to have ten beyond.
        assert_eq!(tail(&ramp(19), 99), None);
        assert_eq!(tail(&ramp(20), 99).unwrap().pct, 50);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lowest(&[4.0, 1.0, 3.0]), 1.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
