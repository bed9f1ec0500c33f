//! Order statistics for measured samples.
//!
//! Timings are reported as nearest-rank percentiles: the `p`-th
//! percentile of `n` sorted samples is the sample at 1-based rank
//! `ceil(p / 100 * n)`, so every reported value is one that was
//! actually measured. A tail percentile is only trusted when at least
//! ten samples lie beyond it ([`beyond`]); [`samples_needed`] gives the
//! run length that guarantees it.

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `NaN` when there are none. The input need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over already-sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        0 => f64::NAN,
        k => sorted[k - 1],
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples
/// (0 when `n == 0`).
pub fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let k = (p / 100.0 * n as f64).ceil() as usize;
    k.clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The smallest sample count that leaves at least ten samples beyond
/// the `p`-th percentile.
pub fn samples_needed(p: f64) -> usize {
    let mut n = 10;
    while beyond(n, p) < 10 {
        n += 1;
    }
    n
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `n`, a few nearest-rank percentiles and the maximum, for the
/// printed report.
pub fn describe(samples: &[f64]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = |q| percentile_sorted(&sorted, q);
    format!(
        "n={} p50={:.4} p75={:.4} p90={:.4} p95={:.4} p99={:.4} max={:.4}",
        sorted.len(),
        p(50.0),
        p(75.0),
        p(90.0),
        p(95.0),
        p(99.0),
        p(100.0)
    )
}

/// The tail line of the printed report: the `p`-th percentile with the
/// number of samples beyond it.
pub fn tail(samples: &[f64], p: f64) -> String {
    format!(
        "op tail p{p} = {:.4} ms, {} of {} samples beyond it",
        percentile(samples, p),
        beyond(samples.len(), p),
        samples.len()
    )
}

/// Whether `a < b`; a NaN on either side is not below.
pub fn below(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)
}

/// Arithmetic mean, or `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_a_measured_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 20.0), 1.0);
        assert_eq!(percentile(&s, 21.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[7.0, 1.0]), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(samples_needed(80.0), 50);
        assert_eq!(beyond(49, 80.0), 9);
        assert_eq!(samples_needed(50.0), 20);
        for p in [50.0, 80.0, 90.0, 95.0, 99.0] {
            let n = samples_needed(p);
            assert!(beyond(n, p) >= 10 && beyond(n - 1, p) < 10, "p{p}");
        }
    }

    #[test]
    fn p99_of_a_thousand_is_the_tenth_largest() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 990.0);
        assert_eq!(s.iter().filter(|&&v| v > 990.0).count(), 10);
    }
}
