//! Order statistics and span arithmetic.

use std::ops::Range;

/// Median of `values` (mean of the middle pair for an even count).
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

/// The tail of `values`: the highest order statistic that still has at
/// least ten samples above it, with its percentile. With ten samples or
/// fewer no such statistic exists, and the maximum is returned at 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Cut `n` samples into at most `max` consecutive windows of at least
/// `min_len` samples each: as many as fit, of equal length, with the
/// remainder added to the last. Fewer than `min_len` samples make one
/// window of all of them.
pub fn windows(n: usize, max: usize, min_len: usize) -> Vec<Range<usize>> {
    let count = (n / min_len.max(1)).clamp(1, max.max(1));
    let len = n / count;
    (0..count)
        .map(|w| w * len..if w + 1 == count { n } else { (w + 1) * len })
        .collect()
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that the union of its children's intervals covers. Children may
/// overlap each other or stick out of the parent.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(tail(&eleven).0, 1.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (10.0, 50.0));
        assert_eq!(tail(&[5.0, 9.0, 7.0]), (9.0, 100.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let (v, p) = tail(&thousand);
        assert_eq!(v, 989.0);
        assert!((p - 99.0).abs() < 1e-9);
        assert_eq!(thousand.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn windows_never_fall_below_their_minimum() {
        assert_eq!(windows(101, 10, 100), vec![0..101]);
        assert_eq!(windows(150, 10, 100), vec![0..150]);
        assert_eq!(windows(40, 10, 100), vec![0..40]);
        assert_eq!(windows(250, 10, 100), vec![0..125, 125..250]);
        assert_eq!(windows(301, 10, 100), vec![0..100, 100..200, 200..301]);
        let many = windows(2_345, 10, 100);
        assert_eq!(many.len(), 10);
        assert!(many.iter().all(|w| w.len() >= 100));
        assert_eq!(many.last().map(|w| w.end), Some(2_345));
        for pair in many.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60), (35, 45)]), 50);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
    }
}
