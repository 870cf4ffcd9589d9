//! A hermetic, dependency-free stand-in for the subset of [proptest] this
//! workspace's tests use.
//!
//! The container building this repo has no registry access, so the real
//! proptest cannot be fetched. This shim keeps the same *source-level* API
//! — the `proptest!` macro, `Strategy`/`BoxedStrategy`, range and tuple
//! strategies, `collection::vec`, `prop_map`, `prop_oneof!`, `Just`,
//! `ProptestConfig::with_cases`, and `prop_assert*`/`prop_assume!` — with
//! deliberately simpler semantics:
//!
//! * cases are generated from a deterministic per-test RNG (seeded from
//!   the test's module path + name), so failures reproduce exactly;
//! * there is **no shrinking** — a failing case panics with its values
//!   via the `prop_assert*` message;
//! * `prop_assume!` silently discards the case (no discard budget).
//!
//! [proptest]: https://docs.rs/proptest

// Vendored stand-in: hash/seed mixing truncates deliberately.
#![allow(clippy::cast_possible_truncation)]

use std::ops::Range;
use std::sync::Arc;

/// Test-runner plumbing: the deterministic RNG behind every strategy.
pub mod test_runner {
    /// A splitmix64 generator — tiny, fast, and deterministic.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from an arbitrary string (the test's full name), so each
        /// test gets a stable, independent stream.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name bytes.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Next 128 random bits.
        pub fn next_u128(&mut self) -> u128 {
            ((self.next_u64() as u128) << 64) | self.next_u64() as u128
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

use test_runner::TestRng;

/// Runner configuration; only the case count is honoured by this shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each `proptest!` test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of type [`Strategy::Value`].
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generate one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { base: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Arc::new(self),
        }
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Arc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        self.inner.gen(rng)
    }
}

/// A strategy producing one fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let width = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let offset = rng.next_u128() % width;
                ((self.start as i128).wrapping_add(offset as i128)) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, i128, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn gen(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Strategy adapters (named after their upstream counterparts).
pub mod strategy {
    use super::*;

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn gen(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.gen(rng))
        }
    }

    /// Uniform choice among boxed alternatives; built by [`prop_oneof!`].
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from a non-empty list of alternatives.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len());
            self.arms[i].gen(rng)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// A length specification for [`vec()`]: either an exact `usize` or a
    /// half-open `Range<usize>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec-length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec`s of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, len)` — a vector whose length is drawn from `len`
    /// (exact `usize` or `Range<usize>`) and whose items come from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.below(span) } else { 0 };
            (0..len).map(|_| self.element.gen(rng)).collect()
        }
    }
}

/// Everything tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert within a property; panics (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Assert inequality within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Discard the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_cases! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_cases! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__config.cases {
                let __values = ( $($crate::Strategy::gen(&($strat), &mut __rng),)+ );
                let __run = move || {
                    let ( $($pat,)+ ) = __values;
                    let _ = &__case;
                    $body
                };
                __run();
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = Strategy::gen(&(-5i64..7), &mut rng);
            assert!((-5..7).contains(&v));
            let f = Strategy::gen(&(-1.0f64..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_follow_the_size_spec() {
        let mut rng = crate::test_runner::TestRng::from_name("vec");
        let exact = crate::collection::vec(0u32..9, 4);
        let ranged = crate::collection::vec(0u32..9, 1..4);
        for _ in 0..200 {
            assert_eq!(Strategy::gen(&exact, &mut rng).len(), 4);
            let len = Strategy::gen(&ranged, &mut rng).len();
            assert!((1..4).contains(&len));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = crate::test_runner::TestRng::from_name("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), (3u8..5).prop_map(|x| x)];
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[Strategy::gen(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && (seen[3] || seen[4]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn the_macro_generates_and_binds(
            a in -10i128..10,
            (x, y) in (0usize..5, 0usize..5),
            v in crate::collection::vec(-1.0f64..1.0, 1..4),
        ) {
            prop_assume!(a != 0);
            prop_assert!(a != 0);
            prop_assert!(x < 5 && y < 5);
            prop_assert_eq!(v.len(), v.capacity().min(v.len()));
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }
    }
}
