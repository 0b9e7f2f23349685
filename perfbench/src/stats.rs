//! Order statistics under the benchmark's reporting rules.

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond it; with fewer, one unlucky sample moves it.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
#[must_use]
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// Geometric-mean speed-up, in percent, of a set of per-program
/// speed-ups given in percent (`10.0` = 1.10x).
#[must_use]
pub fn geomean_speedup_pct(pcts: &[f64]) -> f64 {
    assert!(!pcts.is_empty(), "geometric mean of no speed-ups");
    #[allow(clippy::cast_precision_loss)]
    let mean_log = pcts.iter().map(|p| (1.0 + p / 100.0).ln()).sum::<f64>() / pcts.len() as f64;
    (mean_log.exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn p50_is_nearest_rank_and_small_sets_report_nothing() {
        assert_eq!(tail_percentile(&ramp(100), 0.5), Some(50.0));
        assert_eq!(tail_percentile(&ramp(10), 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_of_equal_speedups_is_that_speedup() {
        assert!((geomean_speedup_pct(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        // 1.21x and 1.0x average to 1.1x geometrically.
        assert!((geomean_speedup_pct(&[21.0, 0.0]) - 10.0).abs() < 1e-9);
    }
}
