//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this
//! in-repo crate provides the subset of proptest's API the workspace
//! tests use: the [`Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `prop_recursive`, range and tuple strategies, [`collection::vec`],
//! [`sample::select`], [`Just`], [`any`], weighted [`prop_oneof!`], and
//! the [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Semantics differ from upstream in one deliberate way: failing cases
//! are **not shrunk** — the panic reports the failing case's seed and
//! message only. Generation is fully deterministic: case `i` of test
//! `t` always sees the same RNG stream, so failures reproduce exactly.

use std::rc::Rc;

pub use rand::rngs::StdRng as TestRng;
use rand::{Rng, SeedableRng};

/// Error type carried out of a failing property body (a message).
pub type TestCaseError = String;

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
///
/// Unlike upstream proptest there is no value tree / shrinking: a
/// strategy simply draws a value from a deterministic RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Builds a recursive strategy: `self` generates leaves, and
    /// `recurse` wraps a strategy for depth `d` into one for depth
    /// `d + 1`. `depth` bounds nesting; the size hints are accepted for
    /// API compatibility but unused (no shrinking here).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut strat = self.boxed();
        for _ in 0..depth {
            let deeper = recurse(strat.clone()).boxed();
            // At each level, lean toward the shallower alternative so
            // generated sizes stay tame.
            strat = Union::new(vec![(2, strat), (1, deeper)]).boxed();
        }
        strat
    }

    /// Erases the strategy's concrete type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (integers and bool).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen()
    }
}

/// The `any::<T>()` strategy over every value of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy over all values of `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

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

/// A weighted choice between boxed alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(
            options.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs at least one positive weight"
        );
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.options.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.gen_range(0..total);
        for (weight, strat) in &self.options {
            let weight = *weight as u64;
            if pick < weight {
                return strat.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("weighted pick exceeded total weight")
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Inclusive length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Strategy for `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// See [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Strategy drawing uniformly from a non-empty list of options.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Drives one property: runs `body` for each case with a per-case
/// deterministic RNG, panicking with the case's seed on failure.
///
/// Called by the [`proptest!`] expansion — not part of upstream's
/// public API, but harmless to expose.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut body: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    for case in 0..config.cases {
        let seed = fnv1a(name) ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1);
        let mut rng = TestRng::seed_from_u64(seed);
        if let Err(message) = body(&mut rng) {
            panic!(
                "property `{name}` failed at case {case}/{} (seed {seed:#x}): {message}",
                config.cases
            );
        }
    }
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`ProptestConfig::cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                $crate::run_cases(&__config, stringify!($name), |__rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )*
        }
    };
}

/// Weighted (`3 => strategy`) or uniform choice between strategies of a
/// common value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($weight:expr => $strat:expr),+ $(,)? ) => {
        $crate::Union::new(vec![
            $(($weight, $crate::Strategy::boxed($strat))),+
        ])
    };
    ( $($strat:expr),+ $(,)? ) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts inside a property body; failure fails the current case with
/// the formatted message rather than unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a property body (requires `Debug`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err(format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                __l, __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err(format!(
                "{}\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)+),
                __l,
                __r
            ));
        }
    }};
}

/// The usual `use proptest::prelude::*;` imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn ranges_stay_in_bounds(x in 3u64..10, y in -1.5f64..=1.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.5..=1.5).contains(&y), "y out of range: {y}");
        }

        fn tuples_and_vecs(
            (a, b) in (0u8..4, 0u8..4),
            items in crate::collection::vec(0u32..100, 1..20),
        ) {
            prop_assert!(a < 4 && b < 4);
            prop_assert!((1..20).contains(&items.len()));
            prop_assert!(items.iter().all(|&v| v < 100));
        }

        fn oneof_and_select(
            tag in prop_oneof![3 => Just(0u8), 1 => Just(1u8)],
            pick in crate::sample::select(vec!["a", "b", "c"]),
        ) {
            prop_assert!(tag <= 1);
            prop_assert!(["a", "b", "c"].contains(&pick));
        }
    }

    proptest! {
        fn default_config_runs(x in any::<u16>()) {
            prop_assert_eq!(u32::from(x), x as u32);
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }

        let strat = (0u8..8)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 64, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });

        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }

        let mut rng = crate::TestRng::seed_from_u64(42);
        for _ in 0..200 {
            let tree = strat.generate(&mut rng);
            assert!(depth(&tree) <= 3 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed at case 0")]
    fn failing_property_panics_with_case_info() {
        crate::run_cases(
            &crate::ProptestConfig::with_cases(4),
            "always_fails",
            |_rng| Err("nope".to_string()),
        );
    }
}
