//! Sample statistics for timings: the median, and the tail percentile
//! the sample count can support.

/// Median of `samples` (mean of the middle pair for an even count);
/// 0 for an empty sample, which only a workload that timed nothing has.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank `pct`-th percentile, but only when at least ten samples
/// lie beyond it — a tail read off fewer is one outlier, not a
/// percentile. `None` otherwise.
pub fn percentile_with_ten_beyond(samples: &[f64], pct: f64) -> Option<f64> {
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank) < 10 {
        return None;
    }
    hemocloud_sched::percentile(samples, pct)
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has ten
/// samples beyond it, with its label.
pub fn highest_supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|pct| percentile_with_ten_beyond(samples, pct).map(|v| (pct, v)))
}

/// "median M unit, pP T unit, n = N" — how every timing is stated.
pub fn describe(samples_s: &[f64], scale: f64, unit: &str) -> String {
    let mid = median(samples_s) * scale;
    let n = samples_s.len();
    match highest_supported_tail(samples_s) {
        Some((pct, tail)) => format!(
            "median {mid:.4} {unit}, p{pct} {:.4} {unit}, n = {n}",
            tail * scale
        ),
        None => format!("median {mid:.4} {unit}, n = {n} (too few for a tail percentile)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is the 990th, exactly ten beyond it.
        assert_eq!(percentile_with_ten_beyond(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: p99 is the 990th of 999, only nine beyond.
        assert_eq!(percentile_with_ten_beyond(&ramp(999), 99.0), None);
        assert_eq!(highest_supported_tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(highest_supported_tail(&ramp(100)), Some((90.0, 90.0)));
        // 30 samples support p50 at most, which the median already is.
        assert_eq!(highest_supported_tail(&ramp(30)), None);
    }
}
