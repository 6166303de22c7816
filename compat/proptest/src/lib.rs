//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro with `#![proptest_config(..)]`, [`prop_oneof!`],
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`, [`Just`],
//! [`any`], range strategies, tuple strategies, regex-subset string
//! strategies (`"[a-z]{1,6}"` and friends), `prop_map`, and
//! `proptest::collection::vec`.
//!
//! Differences from upstream: cases are generated from a seed derived
//! from the test's name (deterministic across runs), and failures are
//! reported without shrinking — the failing inputs are printed as-is.

use std::fmt;

pub mod collection;
pub mod strategy;
pub mod string;

pub use strategy::{Any, BoxedStrategy, Just, Map, Strategy, Union, VecStrategy};

/// Deterministic RNG feeding all strategies; seeded per test and case.
///
/// The same xoshiro256**-over-splitmix64 stream as `gloss_sim::SimRng`,
/// written out here because `gloss_sim` dev-depends on this crate.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Derives a generator from a test identifier and case number, so
    /// each test gets a reproducible but distinct stream.
    pub fn for_case(test_id: &str, case: u64) -> Self {
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_id.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x100_0000_01b3);
        }
        seed ^= case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // One splitmix64 step per state word.
        TestRng {
            s: [(); 4].map(|()| {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, below)`.
    pub fn below(&mut self, below: u64) -> u64 {
        assert!(below > 0, "below(0)");
        ((self.next_u64() as u128 * below as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A failed property, produced by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::strategy::{Any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestCaseError, TestRng};
}

/// Strategy producing any value of `T` over its full domain.
pub fn any<T: strategy::Arbitrary>() -> Any<T> {
    strategy::Any::new()
}

/// Declares property tests. Each `arg in strategy` binding is generated
/// afresh for every case; the body runs once per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $(
            #[test]
            fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for __case in 0..config.cases as u64 {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(
                        let $arg = $crate::Strategy::generate(&($strategy), &mut __rng);
                    )*
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),*),
                        $(&$arg),*
                    );
                    let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(err) = __outcome {
                        panic!(
                            "property '{}' failed at case {}:\n  {}\n  inputs: {}",
                            stringify!($name),
                            __case,
                            err,
                            __inputs,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Picks uniformly between the given strategies (all with the same
/// `Value` type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n  right: `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: `{:?}`",
                left
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::TestRng;

    /// The first draws of one case: every property test's inputs are
    /// drawn from this stream, so a change to it fails here first.
    #[test]
    fn case_stream_is_pinned() {
        let mut rng = TestRng::for_case("pin", 3);
        assert_eq!(rng.next_u64(), 0x9732_d506_3eb0_7c34);
        assert_eq!(rng.below(1000), 892);
        assert_eq!(rng.unit().to_bits(), 0x3fe0_5af6_dd6d_bc1e);
    }
}
