//! Offline shim for `proptest`: a deterministic, seeded property-testing
//! mini-framework with the same surface syntax for the subset this
//! workspace uses (`proptest! { fn f(x in strategy) { … } }`, integer
//! range strategies, tuples, `collection::vec`, `any::<T>()`,
//! `prop_assert!`/`prop_assert_eq!`, `ProptestConfig::with_cases`).
//!
//! Differences from real proptest:
//! * **No shrinking.** A failing case reports its case seed; re-run with
//!   `PROPTEST_SEED=<seed>` to replay exactly that input (case 0 of the
//!   run then regenerates it).
//! * Generation is a pure function of the seed — runs are reproducible by
//!   default (base seed is fixed unless `PROPTEST_SEED` is set).

use std::ops::Range;

/// Run configuration: number of generated cases per property.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Base seed for a property run: `PROPTEST_SEED` env var if set (decimal
/// or 0x-hex), else a fixed constant for reproducible CI.
pub fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("unparseable PROPTEST_SEED: {s:?}"))
        }
        Err(_) => 0xA11C_E5EE_D000_0001,
    }
}

/// Deterministic splitmix64 stream used for generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A value generator. Unlike real proptest there is no value tree or
/// shrinking: `generate` draws a single value.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(hi > lo, "empty range strategy");
                let span = (hi - lo) as u128;
                (lo + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy producing any value of `T` (see [`Arbitrary`]).
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy yielding a fixed value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length spec for [`vec()`]: a `usize` (exact) or `Range<usize>`.
    pub trait SizeRange {
        fn into_range(self) -> Range<usize>;
    }

    impl SizeRange for Range<usize> {
        fn into_range(self) -> Range<usize> {
            self
        }
    }

    impl SizeRange for usize {
        fn into_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// `proptest::collection::vec`: a Vec of `elem`-generated values with
    /// length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl SizeRange) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into_range(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Any, Arbitrary, Just, ProptestConfig, Strategy,
    };
}

/// Asserts inside a `proptest!` body; on failure the property fails with
/// the case's reproduction seed attached (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($a),
                stringify!($b),
                va,
                vb
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return ::std::result::Result::Err(format!(
                "{} (left: {:?}, right: {:?})",
                format!($($fmt)+),
                va,
                vb
            ));
        }
    }};
}

/// The `proptest!` block macro: wraps each `fn name(pat in strategy, …)`
/// into a `#[test]` that runs `cases` deterministic generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let base = $crate::base_seed();
            for case in 0..config.cases {
                // Case 0 uses the base seed VERBATIM: replaying with
                // PROPTEST_SEED set to a printed case seed regenerates
                // that failing input as case 0 of the replay run.
                let seed = if case == 0 {
                    base
                } else {
                    base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(case))
                };
                let mut __rng = $crate::TestRng::new(seed);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| {
                        let run = || -> ::std::result::Result<(), ::std::string::String> {
                            $body
                            ::std::result::Result::Ok(())
                        };
                        run()
                    }),
                );
                match outcome {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(msg)) => panic!(
                        "property {} failed: {}\n  reproduce: PROPTEST_SEED={:#018x} (case {})",
                        stringify!($name), msg, seed, case
                    ),
                    ::std::result::Result::Err(payload) => {
                        eprintln!(
                            "property {} panicked; reproduce: PROPTEST_SEED={:#018x} (case {})",
                            stringify!($name), seed, case
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_deterministic() {
        use crate::{Strategy, TestRng};
        let strat = (0u8..5, 0u64..50, any::<bool>());
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..32 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    #[test]
    fn vec_respects_bounds() {
        use crate::{Strategy, TestRng};
        let strat = crate::collection::vec(0u64..10, 2..7);
        let mut rng = TestRng::new(7);
        for _ in 0..64 {
            let v = strat.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    /// The replay contract: a failing case's printed seed, used as the
    /// base of a new run, regenerates that exact input as case 0 (case 0
    /// uses the base verbatim).
    #[test]
    fn printed_case_seed_replays_as_case_zero() {
        use crate::{Strategy, TestRng};
        let strat = (0u8..200, crate::collection::vec(0u64..1000, 1..9));
        let base = crate::base_seed();
        for case in 1u32..8 {
            let case_seed = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(case));
            let original = strat.generate(&mut TestRng::new(case_seed));
            // Replay run with PROPTEST_SEED=case_seed: case 0 uses it verbatim.
            let replayed = strat.generate(&mut TestRng::new(case_seed));
            assert_eq!(original, replayed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_smoke(x in 0u32..100, flips in crate::collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x < 100);
            prop_assert!(flips.len() < 4, "len was {}", flips.len());
            prop_assert_eq!(x as u64 + 1, u64::from(x) + 1);
        }
    }
}
