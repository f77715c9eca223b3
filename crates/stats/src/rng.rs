//! Deterministic, splittable random-number generation.
//!
//! Every stochastic component of the reproduction (channel fading, background
//! user arrivals, decode errors, …) draws from a [`DetRng`] derived from a
//! single experiment seed.  Splitting by a stream label gives each component
//! an independent stream whose output does not change when unrelated
//! components are added or reordered — the property the experiment harness
//! relies on for run-to-run comparability across congestion-control schemes.

/// Mix a replica index into a base experiment seed.
///
/// Sweeps that repeat a scenario across a seed axis derive each replica's
/// experiment seed from the scenario's base seed and the replica index, so a
/// scenario's identity — not which worker thread ran it — determines its
/// randomness.  Index 0 leaves the base seed unchanged (a one-replica sweep
/// reproduces the standalone run bit-for-bit), and distinct indices yield
/// distinct seeds because the multiplier is odd (hence injective on `u64`).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A deterministic random number generator with named sub-streams.
///
/// The core generator is xoshiro256++ seeded through SplitMix64 — the same
/// construction `rand`'s small RNGs use — implemented locally so the
/// workspace has no external RNG dependency.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            seed,
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The seed this generator (stream) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent sub-stream identified by a label.
    ///
    /// The derivation hashes the label into the seed (FNV-1a) so the stream
    /// depends only on `(seed, label)`, not on how many values the parent has
    /// produced.
    pub fn split(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        DetRng::new(h)
    }

    /// Derive an independent sub-stream identified by a label and an index
    /// (e.g. one stream per background user).
    pub fn split_indexed(&self, label: &str, index: u64) -> DetRng {
        self.split(label).indexed(index)
    }

    /// Derive the independent sub-stream `index` of this stream:
    /// `split_indexed(label, i)` is `split(label).indexed(i)`, so a caller
    /// deriving many indexed streams of one label splits the label once.
    pub fn indexed(&self, index: u64) -> DetRng {
        let mut h = self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        DetRng::new(h)
    }

    /// Uniform float in `[0, 1)` (53 random mantissa bits).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)` (empty range returns `lo`).
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        let span = (hi - lo) as u64;
        // Multiply-shift range reduction (Lemire); the bias for the spans the
        // simulator uses (≪ 2^32) is far below statistical relevance.
        let r = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        lo + r as usize
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// Standard normal sample (Box–Muller).
    fn standard_normal(&mut self) -> f64 {
        // Avoid log(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given mean (mean = 1/λ).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Poisson sample with the given mean (Knuth's method; mean expected to be
    /// modest, which holds for per-subframe arrival counts).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        self.poisson_below((-mean).exp())
    }

    /// [`Self::poisson`] of a positive mean, given its limit `l = exp(−mean)`,
    /// for a caller that draws many samples of one mean.
    pub fn poisson_below(&mut self, l: f64) -> u64 {
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            k += 1;
            p *= self.uniform();
            if p <= l {
                return k - 1;
            }
            // Guard against pathological means.
            if k > 10_000 {
                return k;
            }
        }
    }

    /// Raw 64-bit value (for hashing / shuffling needs of callers).
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_keeps_base_at_index_zero_and_separates_replicas() {
        assert_eq!(derive_seed(0xC0FFEE, 0), 0xC0FFEE);
        let mut derived: Vec<u64> = (0..64).map(|i| derive_seed(0xC0FFEE, i)).collect();
        derived.sort_unstable();
        derived.dedup();
        assert_eq!(derived.len(), 64);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_is_independent_of_parent_consumption() {
        let parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        // Consume some values from parent2 before splitting.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut c1 = parent1.split("channel");
        let mut c2 = parent2.split("channel");
        for _ in 0..50 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn split_labels_produce_distinct_streams() {
        let root = DetRng::new(99);
        let mut a = root.split("alpha");
        let mut b = root.split("beta");
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(matches < 4);
    }

    #[test]
    fn split_indexed_distinct() {
        let root = DetRng::new(3);
        let mut u0 = root.split_indexed("user", 0);
        let mut u1 = root.split_indexed("user", 1);
        assert_ne!(u0.next_u64(), u1.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            let v = r.uniform();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        let hits = (0..2000).filter(|_| r.bernoulli(0.25)).count();
        let frac = hits as f64 / 2000.0;
        assert!((0.18..0.32).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.3, "var = {var}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean = {mean}");
    }

    #[test]
    fn poisson_mean_is_plausible() {
        let mut r = DetRng::new(17);
        let n = 20_000;
        let mean = (0..n).map(|_| r.poisson(4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean = {mean}");
        assert_eq!(r.poisson(0.0), 0);
    }
}
