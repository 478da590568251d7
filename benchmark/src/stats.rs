//! Order statistics the benchmark reports timings with.
//!
//! Two rules from the measurement method live here. A timing is reported as
//! its median plus the highest percentile that still has at least ten
//! samples beyond it ([`tail_percentile`]). A simulator throughput is
//! reported through the *fast decile* ([`fast_decile_rate`]): on a shared
//! host the per-batch rate alternates between fast and slow phases lasting
//! from a tenth of a second to several seconds, so the median batch moves by
//! a quarter between identical runs while the 10th-percentile batch time
//! stays put.

/// The percentile ladder a tail is chosen from, in thousandths so the
/// count beyond each rung is computed exactly.
const LADDER_PERMILLE: [usize; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a reported percentile.
const BEYOND: usize = 10;

/// Sorted copy of `samples` (NaN-free input assumed; NaNs sort last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0–100) with linear interpolation between closest ranks.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let v = sorted(samples);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that has at least
/// ten of `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= BEYOND * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// Work per second through the fast decile: `work_per_sample` divided by
/// the 10th-percentile sample duration.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn fast_decile_rate(work_per_sample: f64, durations_s: &[f64]) -> f64 {
    work_per_sample / percentile(durations_s, 10.0)
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method), so
/// spreads computed here match the ones computed from printed results.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let n = v.len();
    let m = (n + 1) as f64;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(2_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert!((percentile(&v, 10.0) - 1.4).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fast_decile_ignores_a_slow_phase() {
        // 40 k fetches per batch; 70 batches in a fast phase (25 ms) and 30
        // in a slow one (50 ms). The median batch would read 1.6 M/s or
        // 0.8 M/s depending on which phase dominates a run; the fast decile
        // reads the fast phase either way.
        let mostly_fast: Vec<f64> = (0..100)
            .map(|i| if i < 70 { 0.025 } else { 0.050 })
            .collect();
        let mostly_slow: Vec<f64> = (0..100)
            .map(|i| if i < 30 { 0.025 } else { 0.050 })
            .collect();
        for durations in [&mostly_fast, &mostly_slow] {
            assert!((fast_decile_rate(40_000.0, durations) - 1.6e6).abs() < 1e-3);
        }
        assert_ne!(median(&mostly_fast), median(&mostly_slow));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
