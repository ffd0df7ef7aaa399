//! Order statistics over the benchmark's samples.

/// A tail percentile must have at least this many samples beyond it;
/// read off fewer, it measures a handful of events, not the program.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie strictly in (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a small set of repetitions (set-up times), where a tail
/// percentile is not asked for: the middle value, or the mean of the two
/// middle values. Zero for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // The median needs 20 samples for ten beyond it.
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(49.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
