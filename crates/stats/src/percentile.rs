//! Order statistics and running moments.
//!
//! The paper reports 10th/25th/50th/75th/90th/95th percentiles of one-way
//! delay and of throughput averaged over 100 ms windows (Figures 12–14, 16,
//! 18, 20, Table 1).  [`percentile`] implements the linear-interpolation
//! estimator (type 7, the same convention MATLAB/NumPy use by default, which
//! is what the authors' plotting scripts would have produced), and
//! [`OnlineStats`] keeps a Welford running mean (plus count and maximum)
//! for cheap averages.

use serde::{Deserialize, Serialize};

/// Linear-interpolation percentile of a sample set.
///
/// `p` is in `[0, 100]`.  Returns `None` when the slice holds no finite
/// value.  The input does not need to be sorted; to read several
/// percentiles of one set, sort it once with [`sorted_finite`] and read each
/// with [`percentile_of_sorted`].
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted_finite(samples.iter().copied());
    (!sorted.is_empty()).then(|| percentile_of_sorted(&sorted, p))
}

/// The finite values of a sample set in ascending order, ready for
/// [`percentile_of_sorted`].
///
/// The sort is stable, so equal values keep their input order: `-0.0` and
/// `0.0` compare equal, and which of them a percentile reads depends on it.
pub fn sorted_finite(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    sorted
}

/// Percentile of an already-sorted, finite sample set (ascending order).
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of a sample set.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Running count / mean / max, the mean updated by Welford's algorithm.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    max: f64,
}

impl OnlineStats {
    /// New empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_of_small_sets() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=5).map(|x| x as f64).collect();
        // rank = 0.95 * 4 = 3.8 -> 4 + 0.8*(5-4) = 4.8
        let p95 = percentile(&v, 95.0).unwrap();
        assert!((p95 - 4.8).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_non_finite() {
        let v = [1.0, f64::NAN, 3.0, f64::INFINITY];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
    }

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_ignores_nan() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    /// The estimator as it was before [`sorted_finite`]: the reference the
    /// sort-once path must match bit for bit.
    fn reference_percentile(samples: &[f64], p: f64) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(percentile_of_sorted(&sorted, p))
    }

    /// A sample drawn from `(kind, small, x)`: NaN, ±inf, ±0 or a value
    /// from a pool of six (so duplicates are common), or any finite value.
    fn sample(kind: u8, small: u8, x: f64) -> f64 {
        match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5..=7 => f64::from(small) - 2.5,
            _ => x,
        }
    }

    proptest! {
        #[test]
        fn sort_once_is_bit_equal_to_the_reference(
            raw in proptest::collection::vec((0u8..10, 0u8..6, -1e6f64..1e6), 0..40),
            p in -10.0f64..110.0,
        ) {
            let v: Vec<f64> = raw.iter().map(|&(k, s, x)| sample(k, s, x)).collect();
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            prop_assert_eq!(bits(percentile(&v, p)), bits(reference_percentile(&v, p)), "{:?} p{}", v, p);
            // Several percentiles read from one sorted set, as summaries do.
            let sorted = sorted_finite(v.iter().copied());
            for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 100.0, p] {
                let once = (!sorted.is_empty()).then(|| percentile_of_sorted(&sorted, q));
                prop_assert_eq!(bits(once), bits(reference_percentile(&v, q)), "{:?} p{}", v, q);
            }
        }

        #[test]
        fn percentile_is_within_range(mut v in proptest::collection::vec(-1e6f64..1e6, 1..200), p in 0.0f64..100.0) {
            let got = percentile(&v, p).unwrap();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(got >= v[0] - 1e-9);
            prop_assert!(got <= v[v.len() - 1] + 1e-9);
        }

        #[test]
        fn percentile_monotone_in_p(v in proptest::collection::vec(-1e6f64..1e6, 1..100), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&v, lo).unwrap();
            let b = percentile(&v, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
        }

        #[test]
        fn online_mean_matches_naive(v in proptest::collection::vec(-1e3f64..1e3, 1..300)) {
            let mut s = OnlineStats::new();
            for &x in &v {
                s.push(x);
            }
            let naive = v.iter().sum::<f64>() / v.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6);
        }
    }
}
