//! Windowed max/min filters used by BBR-style estimators.
//!
//! BBR (and PBE-CC's cellular-tailored BBR mode) estimate the bottleneck
//! bandwidth as the maximum delivery rate observed over the last ~10 RTTs and
//! the round-trip propagation delay as the minimum RTT observed over the last
//! 10 seconds.  These filters keep the running extreme over a sliding time
//! window without storing every sample.
//!
//! Both filters are monotonic deques.  Samples are stored oldest first; a new
//! sample first pops every sample at the back that it *dominates* (for the
//! maximum: one no larger than it; for the minimum: one no smaller), and
//! samples older than the window are popped from the front.  The stored
//! values are therefore strictly decreasing (maximum) or strictly increasing
//! (minimum) from front to back, and the front is the windowed extreme.
//! Dropping a dominated sample never changes an answer: the newer sample
//! that dominated it is at least as extreme and stays in the window at least
//! as long.  `update` is O(1) amortised (each sample is pushed and popped at
//! most once), `get` is O(1), and storage is the number of undominated
//! samples in the window.
//!
//! Sample times must be non-decreasing from one `update` to the next: that
//! is what makes the expired samples a prefix of the deque.

use pbe_stats::time::{Duration, Instant};
use std::collections::VecDeque;

/// The monotonic deque shared by [`WindowedMax`] and [`WindowedMin`].
#[derive(Debug, Clone)]
struct MonotoneWindow {
    window: Duration,
    samples: VecDeque<(Instant, f64)>,
}

impl MonotoneWindow {
    fn new(window: Duration) -> Self {
        MonotoneWindow {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Pop samples older than the window, as seen at `now`.
    fn expire(&mut self, now: Instant) {
        while let Some(&(t, _)) = self.samples.front() {
            if now.saturating_since(t) <= self.window {
                break;
            }
            self.samples.pop_front();
        }
    }

    /// Expire, pop the back samples that do not `outrank` the new value,
    /// then append it.
    fn push(&mut self, now: Instant, value: f64, outranks: impl Fn(f64) -> bool) {
        debug_assert!(
            self.samples.back().is_none_or(|&(t, _)| t <= now),
            "windowed filter updated out of time order"
        );
        self.expire(now);
        while self.samples.back().is_some_and(|&(_, v)| !outranks(v)) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, value));
    }

    fn front(&self) -> Option<f64> {
        self.samples.front().map(|&(_, v)| v)
    }
}

/// Running maximum over a sliding time window.
///
/// Precondition: `update` times are non-decreasing.
#[derive(Debug, Clone)]
pub struct WindowedMax(MonotoneWindow);

impl WindowedMax {
    /// Create a filter with the given window length.
    pub fn new(window: Duration) -> Self {
        WindowedMax(MonotoneWindow::new(window))
    }

    /// Change the window length (takes effect at the next `update` or
    /// `expire`).
    pub fn set_window(&mut self, window: Duration) {
        self.0.window = window;
    }

    /// Insert a sample and return the current windowed maximum.
    pub fn update(&mut self, now: Instant, value: f64) -> f64 {
        self.0.push(now, value, |older| older > value);
        self.get()
    }

    /// Current windowed maximum, floored at 0 (0 if empty).
    pub fn get(&self) -> f64 {
        self.0.front().map_or(0.0, |v| 0.0f64.max(v))
    }

    /// Expire old samples without adding a new one.
    pub fn expire(&mut self, now: Instant) {
        self.0.expire(now);
    }
}

/// Running minimum over a sliding time window.
///
/// Precondition: `update` times are non-decreasing.
#[derive(Debug, Clone)]
pub struct WindowedMin(MonotoneWindow);

impl WindowedMin {
    /// Create a filter with the given window length.
    pub fn new(window: Duration) -> Self {
        WindowedMin(MonotoneWindow::new(window))
    }

    /// Change the window length (takes effect at the next `update` or
    /// `expire`).
    pub fn set_window(&mut self, window: Duration) {
        self.0.window = window;
    }

    /// Insert a sample and return the current windowed minimum.
    pub fn update(&mut self, now: Instant, value: f64) -> f64 {
        self.0.push(now, value, |older| older < value);
        self.get()
    }

    /// Current windowed minimum (`f64::INFINITY` if empty).
    pub fn get(&self) -> f64 {
        self.0
            .front()
            .map_or(f64::INFINITY, |v| f64::INFINITY.min(v))
    }

    /// Expire old samples without adding a new one.
    pub fn expire(&mut self, now: Instant) {
        self.0.expire(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(v: u64) -> Instant {
        Instant::from_secs(v)
    }

    #[test]
    fn windowed_max_tracks_peak_and_expires() {
        let mut f = WindowedMax::new(Duration::from_secs(10));
        assert_eq!(f.update(s(0), 5.0), 5.0);
        assert_eq!(f.update(s(1), 3.0), 5.0);
        assert_eq!(f.update(s(2), 8.0), 8.0);
        // At t=13 the 8.0 sample (t=2) has aged out; only recent ones remain.
        assert_eq!(f.update(s(13), 4.0), 4.0);
    }

    #[test]
    fn windowed_min_tracks_floor_and_expires() {
        let mut f = WindowedMin::new(Duration::from_secs(10));
        assert_eq!(f.update(s(0), 50.0), 50.0);
        assert_eq!(f.update(s(1), 40.0), 40.0);
        assert_eq!(f.update(s(5), 60.0), 40.0);
        assert_eq!(f.update(s(12), 55.0), 55.0);
    }

    #[test]
    fn empty_filters_have_sentinel_values() {
        let max = WindowedMax::new(Duration::from_secs(1));
        let min = WindowedMin::new(Duration::from_secs(1));
        assert_eq!(max.get(), 0.0);
        assert!(min.get().is_infinite());
    }

    #[test]
    fn expire_without_update() {
        let mut f = WindowedMax::new(Duration::from_secs(2));
        f.update(s(0), 9.0);
        f.expire(s(10));
        assert_eq!(f.get(), 0.0);
        let mut m = WindowedMin::new(Duration::from_secs(2));
        m.update(s(0), 9.0);
        m.expire(s(10));
        assert!(m.get().is_infinite());
    }

    #[test]
    fn dominated_samples_are_pruned() {
        let mut f = WindowedMax::new(Duration::from_secs(100));
        for i in 0..1000u64 {
            f.update(s(i / 10), (i % 7) as f64);
        }
        // Internal storage stays small because dominated samples are dropped.
        assert!(f.0.samples.len() <= 8, "len = {}", f.0.samples.len());
    }

    #[test]
    fn windowed_min_storage_is_bounded() {
        let mut f = WindowedMin::new(Duration::from_secs(100));
        for i in 0..1000u64 {
            f.update(s(i / 10), (i % 7) as f64);
        }
        assert!(f.0.samples.len() <= 8, "len = {}", f.0.samples.len());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of time order")]
    fn update_back_in_time_is_a_bug() {
        let mut f = WindowedMin::new(Duration::from_secs(1));
        f.update(s(5), 1.0);
        f.update(s(4), 1.0);
    }

    /// The filters as they were before the deque: every undominated sample
    /// in a `Vec`, pruned by `retain`, the extreme found by a fold.
    struct Reference {
        window: Duration,
        samples: Vec<(Instant, f64)>,
        is_max: bool,
    }

    impl Reference {
        fn update(&mut self, now: Instant, value: f64) -> f64 {
            let (window, is_max) = (self.window, self.is_max);
            self.samples.retain(|(t, v)| {
                now.saturating_since(*t) <= window && if is_max { *v > value } else { *v < value }
            });
            self.samples.push((now, value));
            self.get()
        }

        fn get(&self) -> f64 {
            let values = self.samples.iter().map(|(_, v)| *v);
            if self.is_max {
                values.fold(0.0, f64::max)
            } else {
                values.fold(f64::INFINITY, f64::min)
            }
        }

        fn expire(&mut self, now: Instant) {
            let window = self.window;
            self.samples
                .retain(|(t, _)| now.saturating_since(*t) <= window);
        }
    }

    /// Values with ties, negatives (below the maximum's 0.0 floor), signed
    /// zeros and both infinities.
    const VALUES: [f64; 10] = [
        -3.5,
        -1.0,
        -0.0,
        0.0,
        1.0,
        2.5,
        2.5,
        7.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    proptest! {
        /// After every call, both deque filters read bit-for-bit what the
        /// `Vec` + `retain` filters read, over non-decreasing times (with
        /// repeats), windows that shrink and grow, and extreme values.
        #[test]
        fn deque_filters_match_the_retain_reference(
            ops in proptest::collection::vec((0u8..8, 0u64..4, 0usize..10, 0u64..6), 1..300),
        ) {
            let window = Duration::from_millis(3);
            let mut max = WindowedMax::new(window);
            let mut min = WindowedMin::new(window);
            let mut ref_max = Reference { window, samples: Vec::new(), is_max: true };
            let mut ref_min = Reference { window, samples: Vec::new(), is_max: false };
            let mut now = Instant::ZERO;
            for (kind, step_ms, value, window_ms) in ops {
                now = Instant(now.0 + step_ms * 1_000);
                match kind {
                    // Mostly updates; sometimes a bare expiry or a resize.
                    0..=5 => {
                        let v = VALUES[value];
                        prop_assert_eq!(max.update(now, v).to_bits(), ref_max.update(now, v).to_bits());
                        prop_assert_eq!(min.update(now, v).to_bits(), ref_min.update(now, v).to_bits());
                    }
                    6 => {
                        max.expire(now);
                        min.expire(now);
                        ref_max.expire(now);
                        ref_min.expire(now);
                    }
                    _ => {
                        let w = Duration::from_millis(window_ms);
                        max.set_window(w);
                        min.set_window(w);
                        ref_max.window = w;
                        ref_min.window = w;
                    }
                }
                prop_assert_eq!(max.get().to_bits(), ref_max.get().to_bits());
                prop_assert_eq!(min.get().to_bits(), ref_min.get().to_bits());
                prop_assert_eq!(max.0.samples.len(), ref_max.samples.len());
                prop_assert_eq!(min.0.samples.len(), ref_min.samples.len());
            }
        }
    }
}
