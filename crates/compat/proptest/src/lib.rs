//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset the workspace's property tests use: the `proptest!`
//! macro over functions whose arguments are drawn from range strategies
//! (`0u16..100`, `1u8..=15`, `0.0f64..1e6`), tuple strategies,
//! `proptest::collection::vec`, and `any::<bool>()`, plus `prop_assert!`,
//! `prop_assert_eq!` and `prop_assume!`.  Each property runs a fixed number
//! of deterministically seeded cases (seeded from the test name, so failures
//! reproduce); there is no shrinking — the failing inputs are printed
//! as-is via the assertion message.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Number of cases sampled per property.
pub const CASES: u32 = 128;

/// Deterministic per-test RNG (splitmix64 over a name-derived seed).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A way of generating one input value.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.uniform()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start() + (self.end() - self.start()) * rng.uniform()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy produced by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = Strategy::sample(&self.len, rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector whose length is drawn from `len` and whose elements are drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest, Strategy};
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Skip the current case when an assumption does not hold (expands to
/// `continue` inside the case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// Declare property tests: each function runs [`CASES`] deterministically
/// seeded cases, drawing every argument from its strategy.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$attr:meta])*
        fn $name:ident($($p:pat_param in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let mut __rng = $crate::TestRng::new(stringify!($name));
            for __case in 0..$crate::CASES {
                let _ = __case;
                $(let $p = $crate::Strategy::sample(&($s), &mut __rng);)+
                $body
            }
        }
        $crate::proptest! { $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(a in 3u16..9, b in 1u8..=4, f in -2.0f64..2.0) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies_compose(
            v in crate::collection::vec((1u32..5, 0.0f64..1.0), 2..6),
            flag in any::<bool>(),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|(n, f)| (1..5).contains(n) && (0.0..1.0).contains(f)));
            let _ = flag;
        }

        #[test]
        fn assume_skips_cases(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }
}
