//! Empirical cumulative distribution functions.
//!
//! Figures 7, 11 and 12 of the paper are CDF plots (active users per window,
//! per-user physical data rate, average throughput and 95th-percentile delay
//! across locations).  [`Cdf`] builds the empirical CDF from raw samples and
//! can evaluate it, invert it, and emit the `(x, F(x))` point series the
//! benchmark harness prints.

use crate::percentile::percentile_of_sorted;
use serde::{Deserialize, Serialize};

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from raw samples (non-finite values are dropped).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Cdf { sorted }
    }

    /// Number of samples in the CDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF contains no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|s| *s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the value at quantile `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(percentile_of_sorted(&self.sorted, q * 100.0))
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_on_known_samples() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(10.0), 1.0);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(std::iter::empty());
        assert!(cdf.is_empty());
        assert_eq!(cdf.eval(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.min(), None);
        assert_eq!(cdf.mean(), 0.0);
    }

    #[test]
    fn quantile_inverts_eval_for_medians() {
        let cdf = Cdf::from_samples((1..=100).map(|x| x as f64));
        let q50 = cdf.quantile(0.5).unwrap();
        assert!((q50 - 50.5).abs() < 1e-9);
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(100.0));
    }

    #[test]
    fn non_finite_samples_dropped() {
        let cdf = Cdf::from_samples([1.0, f64::NAN, 2.0, f64::NEG_INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    proptest! {
        #[test]
        fn eval_is_monotone(v in proptest::collection::vec(-1e6f64..1e6, 1..200), a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let cdf = Cdf::from_samples(v);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(cdf.eval(lo) <= cdf.eval(hi));
        }

        #[test]
        fn eval_bounds(v in proptest::collection::vec(-1e6f64..1e6, 1..200), x in -2e6f64..2e6) {
            let cdf = Cdf::from_samples(v);
            let f = cdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
