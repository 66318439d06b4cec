//! # nn-proptest — a minimal stand-in for the `proptest` crate
//!
//! The workspace builds offline, so the subset of proptest's API used by
//! the repository's property tests is reimplemented here: the
//! [`proptest!`] macro, [`any`], [`collection::vec`], integer-range and
//! `"[a-z]{1,8}"`-style string strategies, `prop_assert*` and
//! [`prop_assume!`]. There is **no shrinking** and no persistence of
//! failing cases; a failure panics with the case number so it can be
//! reproduced (case generation is deterministic per test name).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::{Range, RangeFrom};

/// Why a test case did not complete normally.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream proptest defaults to 256; 64 keeps the from-scratch
        // bignum/AES property tests fast in debug builds.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic case generation.
pub mod test_runner {
    /// The RNG driving case generation: SplitMix64 seeded from the test
    /// name, so failures reproduce across runs and machines.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name (FNV-1a over the bytes).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
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

        /// Uniform draw below `bound` (which must be positive).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

use test_runner::TestRng;

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Something that can generate values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
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

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let mut out = [0u8; N];
            for chunk in out.chunks_mut(8) {
                let w = rng.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&w[..n]);
            }
            out
        }
    }

    /// The strategy returned by [`super::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

use strategy::{Arbitrary, Strategy};

/// The canonical strategy for a type: uniform over its value space.
pub fn any<T: Arbitrary>() -> strategy::Any<T> {
    strategy::Any(core::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + ((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                // i128 keeps the span positive for signed starts (a `as
                // u128` cast would sign-extend and underflow the
                // subtraction).
                let span = (<$t>::MAX as i128) - (self.start as i128) + 1;
                let draw = (((rng.next_u64() as u128) << 64 | rng.next_u64() as u128)
                    % span as u128) as i128;
                (self.start as i128 + draw) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i32);

// Tuple strategies: generate each component in order, so
// `(0u64..100, any::<bool>())` works inside `collection::vec`.
impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

impl Strategy for Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        assert!(self.start < self.end, "empty strategy range");
        let span = self.end - self.start;
        let draw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        self.start + draw % span
    }
}

impl Strategy for RangeFrom<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        let draw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        match (u128::MAX - self.start).checked_add(1) {
            Some(span) => self.start + draw % span,
            None => draw, // start == 0: the whole domain
        }
    }
}

/// Regex-lite string strategy: supports exactly the `[chars]{m,n}` shape
/// used by this repository's tests (character classes of literals and
/// `a-z` ranges with a bounded repeat count).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, min, max) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[a-z0-9]{1,10}` into (expanded charset, min, max).
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class_src = &rest[..close];
    let counts = rest[close + 1..]
        .strip_prefix('{')?
        .strip_suffix('}')?
        .split_once(',')?;
    let (min, max) = (counts.0.parse().ok()?, counts.1.parse().ok()?);
    if min > max || max == 0 {
        return None;
    }
    let mut class = Vec::new();
    let chars: Vec<char> = class_src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i], chars[i + 2]);
            if lo > hi {
                return None;
            }
            for c in lo..=hi {
                class.push(c);
            }
            i += 3;
        } else {
            class.push(chars[i]);
            i += 1;
        }
    }
    if class.is_empty() {
        None
    } else {
        Some((class, min, max))
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use core::ops::Range;

    /// Element-count bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Strategy generating `Vec`s of another strategy's values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, 0..64)` — a vector with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::TestRng;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        TestCaseError,
    };
}

/// Fails the current case with a message if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "{}", concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` for property tests.
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
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} (left: {:?}, right: {:?})",
            format!($($fmt)*),
            a,
            b
        );
    }};
}

/// `assert_ne!` for property tests.
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

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ( $cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..cfg.cases {
                    $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng); )+
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    match outcome {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err($crate::TestCaseError::Reject) => continue,
                        ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("{} (case {} of {})", msg, case, cfg.cases)
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_pattern_parser() {
        let (class, min, max) = super::parse_class_pattern("[a-z0-9]{1,10}").unwrap();
        assert_eq!(class.len(), 36);
        assert_eq!((min, max), (1, 10));
        assert!(super::parse_class_pattern("plain").is_none());
        assert!(super::parse_class_pattern("[z-a]{1,2}").is_none());
    }

    #[test]
    fn string_strategy_respects_pattern() {
        let mut rng = TestRng::deterministic("string_strategy");
        for _ in 0..100 {
            let s = Strategy::generate(&"[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::deterministic("vec_strategy");
        for _ in 0..100 {
            let v = Strategy::generate(&collection::vec(any::<u8>(), 3..7), &mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn signed_range_strategies_stay_in_bounds() {
        let mut rng = TestRng::deterministic("signed_ranges");
        for _ in 0..200 {
            let v = Strategy::generate(&(-5i32..), &mut rng);
            assert!(v >= -5);
            let w = Strategy::generate(&(-10i32..10), &mut rng);
            assert!((-10..10).contains(&w));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("same-name");
        let mut b = TestRng::deterministic("same-name");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #[test]
        fn macro_generates_cases(x in any::<u64>(), v in collection::vec(any::<u8>(), 0..16)) {
            prop_assert!(v.len() < 16);
            prop_assert_eq!(x, x);
            prop_assert_ne!(v.len(), 99);
        }

        #[test]
        fn assume_skips(x in any::<u8>()) {
            prop_assume!(x != 0);
            prop_assert!(x > 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn config_applies(range_val in 3u64.., small in 0u8..4) {
            prop_assert!(range_val >= 3);
            prop_assert!(small < 4);
        }
    }
}
