//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment for this repository is fully offline, so the real
//! `proptest` cannot be fetched from crates.io. This shim reimplements just
//! the API surface the workspace's property tests use, so the test sources
//! stay idiomatic proptest and can switch back to the real crate by editing
//! one line in the workspace manifest:
//!
//! * the `proptest! { ... }` macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`,
//! * numeric range strategies (`0.2f64..=1.0`, `1usize..500`, `0u64..50`),
//! * `proptest::collection::vec(strategy, len_or_range)`.
//!
//! Unlike the real crate there is no shrinking and no persisted failure
//! seeds: cases are generated from a deterministic per-test RNG (seeded from
//! the test name), so every failure reproduces exactly on re-run.
//!
//! `PROPTEST_CASES` also differs from upstream. Upstream reads it into
//! the *default* configuration only, so a block that sets
//! `with_cases(N)` ignores it. Here it is a floor on every block's case
//! count (see [`ProptestConfig::cases_to_run`]), so one variable deepens
//! every property suite at once; it never lowers a count.

use std::ops::{Range, RangeInclusive};

/// Run configuration — only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The number of cases a block runs: the configured count, raised to
    /// `PROPTEST_CASES` when that variable holds a larger number.
    pub fn cases_to_run(&self) -> u32 {
        cases_with_floor(self.cases, std::env::var("PROPTEST_CASES").ok().as_deref())
    }
}

/// `configured`, raised to the case count in `floor` if it parses and is
/// larger.
fn cases_with_floor(configured: u32, floor: Option<&str>) -> u32 {
    let floor = floor.and_then(|v| v.trim().parse::<u32>().ok());
    configured.max(floor.unwrap_or(0))
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Failure payload carried out of a test case body by `prop_assert!`.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic xorshift64* generator; one instance per test function,
/// seeded from the test name, so runs are reproducible without any state
/// files.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name gives a stable non-zero seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(h | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. The shim samples independently per case (no
/// shrinking), which is all the workspace's tests rely on.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard against FP rounding landing exactly on the excluded end.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        (lo + rng.next_f64() * (hi - lo)).clamp(lo.min(hi), hi.max(lo))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty integer range strategy");
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() - *self.start()) as u64 + 1;
                *self.start() + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8);

impl<S: Strategy> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (*self).sample(rng)
    }
}

/// Boolean strategy (`proptest::bool::ANY`), mirroring the real crate's
/// module of the same name.
pub mod bool {
    /// Uniform true/false.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl crate::Strategy for Any {
        type Value = core::primitive::bool;
        fn sample(&self, rng: &mut crate::TestRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Accepted as the length argument of [`vec()`](fn@vec): a fixed `usize` or a
    /// `usize` range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        let size = size.into();
        assert!(size.max_exclusive > size.min, "empty vec size range");
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Everything the test files import with `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        let ok: bool = $cond;
        if !ok {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        let ok: bool = $cond;
        if !ok {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// The `proptest!` block: expands each `fn name(arg in strategy, ...)` item
/// into a plain `#[test]` that samples its arguments `cases` times from a
/// deterministic RNG and runs the body as a `Result`-returning closure (so
/// `prop_assert!` can early-return a failure).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { config = (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    ( config = ($cfg:expr); ) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = config.cases_to_run();
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let result: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "proptest `{}` failed on case {}/{}: {}",
                        stringify!($name), case + 1, cases, e
                    );
                }
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        let mut c = crate::TestRng::from_name("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn proptest_cases_is_a_floor() {
        assert_eq!(crate::cases_with_floor(24, None), 24);
        assert_eq!(crate::cases_with_floor(24, Some("64")), 64);
        assert_eq!(crate::cases_with_floor(256, Some("64")), 256);
        assert_eq!(crate::cases_with_floor(24, Some("many")), 24);
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..10_000 {
            let f = Strategy::sample(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
            let g = Strategy::sample(&(0.0f64..=1.0), &mut rng);
            assert!((0.0..=1.0).contains(&g));
            let n = Strategy::sample(&(3usize..7), &mut rng);
            assert!((3..7).contains(&n));
            let v = crate::collection::vec(0.0f64..1.0, 2..5).sample(&mut rng);
            assert!(v.len() >= 2 && v.len() < 5);
            let w = crate::collection::vec(0u64..9, 4).sample(&mut rng);
            assert_eq!(w.len(), 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: multiline args, trailing comma, doc comments.
        #[test]
        fn macro_roundtrip(
            x in 0.0f64..10.0,
            ys in crate::collection::vec(1usize..5, 1..4),
        ) {
            prop_assert!(x < 10.0, "x={x}");
            prop_assert!(!ys.is_empty());
            prop_assert_eq!(ys.len(), ys.len());
            prop_assert_ne!(ys[0], 0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest `always_fails` failed")]
    fn failures_panic_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(dead_code)]
            fn always_fails(x in 0.0f64..1.0) {
                prop_assert!(x > 2.0);
            }
        }
        always_fails();
    }
}
