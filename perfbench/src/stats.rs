//! The metric arithmetic: medians, tail percentiles and throughput.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are bugs in the caller.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile of `v` that still has at least ten
/// samples above it, as `(percentile, value)`; `None` below 11 samples.
pub fn tail_percentile(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let s = sorted(v);
    let k = n - 11; // samples above index k: n - 1 - k = 10
    Some((100.0 * (k + 1) as f64 / n as f64, s[k]))
}

/// Millions of simulated operations per CPU-second.
pub fn mops_per_cpu_s(ops: u64, cpu_secs: f64) -> f64 {
    assert!(cpu_secs > 0.0, "no CPU time measured");
    ops as f64 / cpu_secs / 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
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
    fn median_rejects_no_samples() {
        median(&[]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // Eleven samples: only the lowest has ten above it.
        assert_eq!(tail_percentile(&v), Some((100.0 / 11.0, 1.0)));
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // A hundred samples: p90 = 90, and 91..=100 lie beyond it.
        let (p, x) = tail_percentile(&v).unwrap();
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }

    #[test]
    fn mops_per_cpu_second() {
        assert!((mops_per_cpu_s(12_000_000, 2.0) - 6.0).abs() < 1e-12);
        assert!((mops_per_cpu_s(1, 1e-6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
