//! Offline drop-in shim for the `proptest` API surface this workspace
//! uses. The build environment has no crates-registry access, so the real
//! crate cannot be fetched; this is a small, self-contained property-test
//! engine that keeps the existing test files source-compatible:
//!
//! - [`Strategy`] with `prop_map` / `prop_filter`, implemented for integer
//!   and float ranges, tuples, [`Just`], boxed strategies, and `&str`
//!   treated as a mini regex pattern (`[a-z]{3,8}`, `.{0,200}`, …);
//! - [`any`] for the primitive types the tests draw;
//! - `prop::collection::vec` and `prop::option::of`;
//! - the [`proptest!`], [`prop_oneof!`], and `prop_assert*` macros;
//! - [`ProptestConfig`] / [`TestCaseError`].
//!
//! Differences from the real crate: no shrinking (failures print the full
//! generated inputs instead), and cases are generated from a seed derived
//! deterministically from the test's module path, so runs are reproducible
//! without `proptest-regressions` files (which are ignored).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------------

/// The random source handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds deterministically from an arbitrary tag (e.g. the test name).
    pub fn from_tag(tag: &str) -> Self {
        // FNV-1a over the tag.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (unbiased; `bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T: fmt::Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Rejects values failing `pred`, regenerating (bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: fmt::Debug> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// `prop_map` adapter.
#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: fmt::Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_filter` adapter.
#[derive(Debug)]
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.reason
        );
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Integer and float ranges ---------------------------------------------------

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// Tuples ---------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case, reason = "the bindings reuse the strategy type names")]
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A / a);
impl_tuple_strategy!(A / a, B / b);
impl_tuple_strategy!(A / a, B / b, C / c);
impl_tuple_strategy!(A / a, B / b, C / c, D / d);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);

// Pattern strings ------------------------------------------------------------

/// One element of a parsed mini-regex: a set of candidate chars plus a
/// repetition count range.
#[derive(Debug)]
struct PatternPart {
    choices: Vec<char>,
    min: usize,
    max: usize,
}

/// Alphabet used for `.`: mostly printable ASCII with a sprinkling of
/// multibyte characters so encoders meet non-ASCII input.
fn dot_alphabet() -> Vec<char> {
    let mut set: Vec<char> = (' '..='~').collect();
    set.extend(['\t', 'é', 'ß', 'Ж', '中', '🦀', 'λ', 'ñ', 'Ü']);
    set
}

fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Vec<char> {
    let mut out = Vec::new();
    loop {
        let c = chars.next().expect("unterminated [class] in pattern");
        if c == ']' {
            break;
        }
        if chars.peek() == Some(&'-') {
            // Either a range `x-y` or a literal '-' right before ']'.
            let mut ahead = chars.clone();
            ahead.next();
            match ahead.peek() {
                Some(&end) if end != ']' => {
                    chars.next();
                    chars.next();
                    out.extend(c..=end);
                    continue;
                }
                _ => {}
            }
        }
        out.push(c);
    }
    assert!(!out.is_empty(), "empty [class] in pattern");
    out
}

fn parse_pattern(pattern: &str) -> Vec<PatternPart> {
    let mut parts = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let choices = match c {
            '.' => dot_alphabet(),
            '[' => parse_class(&mut chars),
            '\\' => vec![chars.next().expect("dangling escape in pattern")],
            other => vec![other],
        };
        let (min, max) = if chars.peek() == Some(&'{') {
            chars.next();
            let spec: String = chars.by_ref().take_while(|&c| c != '}').collect();
            match spec.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("bad {m,n} in pattern"),
                    hi.trim().parse().expect("bad {m,n} in pattern"),
                ),
                None => {
                    let n = spec.trim().parse().expect("bad {n} in pattern");
                    (n, n)
                }
            }
        } else if chars.peek() == Some(&'*') {
            chars.next();
            (0, 8)
        } else if chars.peek() == Some(&'+') {
            chars.next();
            (1, 8)
        } else {
            (1, 1)
        };
        assert!(min <= max, "inverted {{m,n}} in pattern");
        parts.push(PatternPart { choices, min, max });
    }
    parts
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for part in parse_pattern(self) {
            let span = (part.max - part.min) as u64;
            let count = part.min
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            for _ in 0..count {
                out.push(part.choices[rng.below(part.choices.len() as u64) as usize]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// A strategy over the full domain of `T` (biased toward boundary values
/// for integers, and including NaN/infinities for floats, like the real
/// crate's `any`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u8>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
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
                // 1-in-8 boundary bias.
                if rng.below(8) == 0 {
                    match rng.below(4) {
                        0 => 0 as $t,
                        1 => 1 as $t,
                        2 => <$t>::MAX,
                        _ => <$t>::MIN,
                    }
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Raw-bit reinterpretation covers NaN, infinities, subnormals.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        let set = dot_alphabet();
        set[rng.below(set.len() as u64) as usize]
    }
}

// ---------------------------------------------------------------------------
// Collections / option
// ---------------------------------------------------------------------------

/// `prop::collection` — strategies over containers.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt;
    use std::ops::{Range, RangeInclusive};

    /// Anything convertible to a `(min, max)` element-count range.
    pub trait SizeRange {
        /// Lower and upper (inclusive) bounds on the length.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl SizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy producing `Vec`s with lengths drawn from `size`.
    #[derive(Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange + fmt::Debug> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let (lo, hi) = self.size.bounds();
            let span = (hi - lo) as u64;
            let len = lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, sizes)`.
    pub fn vec<S: Strategy, R: SizeRange + fmt::Debug>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// `prop::option` — strategies over `Option`.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Option`s (roughly 1-in-5 `None`).
    #[derive(Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(5) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `prop::option::of(strategy)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Character strategies (the `proptest::char` module shape).
pub mod char {
    use super::{Strategy, TestRng};

    /// Strategy producing arbitrary valid `char`s, biased toward ASCII.
    #[derive(Debug)]
    pub struct AnyChar;

    impl Strategy for AnyChar {
        type Value = char;
        fn generate(&self, rng: &mut TestRng) -> char {
            // Mostly printable ASCII, sometimes any scalar value (skipping
            // the surrogate gap by rejection).
            if rng.below(4) != 0 {
                return (0x20 + rng.below(0x5f) as u32) as u8 as char;
            }
            loop {
                if let Some(c) = std::char::from_u32(rng.below(0x11_0000) as u32) {
                    return c;
                }
            }
        }
    }

    /// `proptest::char::any()`.
    pub fn any() -> AnyChar {
        AnyChar
    }
}

/// Weighted union used by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T: fmt::Debug> fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<T: fmt::Debug> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    ///
    /// # Panics
    ///
    /// Panics when `arms` is empty or all weights are zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted arm");
        Union { arms }
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.below(total);
        for (weight, strat) in &self.arms {
            let w = u64::from(*weight);
            if pick < w {
                return strat.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights summed above")
    }
}

// ---------------------------------------------------------------------------
// Runner / config / errors
// ---------------------------------------------------------------------------

/// Test-runner configuration (the subset the workspace touches).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property was falsified.
    Fail(String),
    /// The inputs were rejected (filter exhaustion etc.).
    Reject(String),
}

impl TestCaseError {
    /// A falsification with the given message.
    pub fn fail(msg: impl fmt::Display) -> Self {
        TestCaseError::Fail(msg.to_string())
    }

    /// A rejection with the given message.
    pub fn reject(msg: impl fmt::Display) -> Self {
        TestCaseError::Reject(msg.to_string())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Runs `case` for every generated input set; used by [`proptest!`].
///
/// `generate_and_run` draws inputs from the rng, returning the inputs'
/// debug rendering alongside the case outcome.
pub fn run_cases(
    config: &ProptestConfig,
    tag: &str,
    mut generate_and_run: impl FnMut(
        &mut TestRng,
    ) -> (String, std::thread::Result<Result<(), TestCaseError>>),
) {
    let mut rng = TestRng::from_tag(tag);
    for case in 0..config.cases {
        let (inputs, outcome) = generate_and_run(&mut rng);
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(TestCaseError::Reject(reason))) => {
                panic!("proptest {tag}: case {case} rejected: {reason}\ninputs: {inputs}")
            }
            Ok(Err(TestCaseError::Fail(reason))) => {
                panic!("proptest {tag}: case {case} FAILED: {reason}\ninputs: {inputs}")
            }
            Err(payload) => {
                eprintln!("proptest {tag}: case {case} panicked\ninputs: {inputs}");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: `fn name(x in strategy, …) { body }`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: the config expression is hoisted
/// to repetition depth 0, and each test function is handed to the
/// parameter normalizer.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $crate::__proptest_fn! { ($config) ($(#[$meta])*) $name () ($($params)*) $body }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: normalizes each parameter —
/// `pat in strategy` stays as-is, `ident: Type` becomes
/// `ident in any::<Type>()` — then emits the test function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fn {
    // Normalize `pat in strategy`.
    ($cfg:tt $meta:tt $name:ident ($($acc:tt)*) ($pat:pat_param in $strat:expr, $($rest:tt)*) $body:block) => {
        $crate::__proptest_fn! { $cfg $meta $name ($($acc)* [$pat][$strat]) ($($rest)*) $body }
    };
    ($cfg:tt $meta:tt $name:ident ($($acc:tt)*) ($pat:pat_param in $strat:expr) $body:block) => {
        $crate::__proptest_fn! { $cfg $meta $name ($($acc)* [$pat][$strat]) () $body }
    };
    // Normalize `ident: Type` (sugar for `ident in any::<Type>()`).
    ($cfg:tt $meta:tt $name:ident ($($acc:tt)*) ($arg:ident : $ty:ty, $($rest:tt)*) $body:block) => {
        $crate::__proptest_fn! { $cfg $meta $name ($($acc)* [$arg][$crate::any::<$ty>()]) ($($rest)*) $body }
    };
    ($cfg:tt $meta:tt $name:ident ($($acc:tt)*) ($arg:ident : $ty:ty) $body:block) => {
        $crate::__proptest_fn! { $cfg $meta $name ($($acc)* [$arg][$crate::any::<$ty>()]) () $body }
    };
    // All parameters normalized: emit the test.
    (($config:expr) ($(#[$meta:meta])*) $name:ident ($([$pat:pat_param][$strat:expr])+) () $body:block) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            $crate::run_cases(
                &config,
                concat!(module_path!(), "::", stringify!($name)),
                |__rng| {
                    let __vals = ($($crate::Strategy::generate(&($strat), __rng),)+);
                    let __inputs = format!("{:#?}", __vals);
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || -> ::std::result::Result<(), $crate::TestCaseError> {
                            let ($($pat,)+) = __vals;
                            $body
                            #[allow(unreachable_code, reason = "a body that returns or diverges leaves this unreachable")]
                            Ok(())
                        }),
                    );
                    (__inputs, __outcome)
                },
            );
        }
    };
}

/// Picks among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r,
            )));
        }
    }};
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left), stringify!($right), l,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), l,
            )));
        }
    }};
}

/// Rejects the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Namespace alias matching `proptest::prelude::prop::…`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::from_tag("ranges");
        for _ in 0..500 {
            let v = crate::Strategy::generate(&(3u8..9), &mut rng);
            assert!((3..9).contains(&v));
            let w = crate::Strategy::generate(&(-4i64..=4), &mut rng);
            assert!((-4..=4).contains(&w));
        }
    }

    #[test]
    fn pattern_strings_match_shape() {
        let mut rng = crate::TestRng::from_tag("patterns");
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[a-z]{3,8}", &mut rng);
            assert!((3..=8).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");
            let t = crate::Strategy::generate(&"[a-z0-9:/._-]{1,30}", &mut rng);
            assert!((1..=30).contains(&t.chars().count()));
            assert!(
                t.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || ":/._-".contains(c)),
                "{t:?}"
            );
            let d = crate::Strategy::generate(&".{0,20}", &mut rng);
            assert!(d.chars().count() <= 20);
        }
    }

    #[test]
    fn oneof_weights_zero_weight_never_picked() {
        let mut rng = crate::TestRng::from_tag("oneof");
        let strat = prop_oneof![
            3 => Just(1u8),
            0 => Just(2u8),
            1 => Just(3u8),
        ];
        let mut seen = [0u32; 4];
        for _ in 0..400 {
            seen[crate::Strategy::generate(&strat, &mut rng) as usize] += 1;
        }
        assert_eq!(seen[2], 0);
        assert!(seen[1] > seen[3]);
    }

    #[test]
    fn vec_and_option_strategies() {
        let mut rng = crate::TestRng::from_tag("vec");
        for _ in 0..200 {
            let v = crate::Strategy::generate(&prop::collection::vec(0u8..5, 1..4), &mut rng);
            assert!((1..=3).contains(&v.len()));
            let o = crate::Strategy::generate(&prop::option::of(Just(7u8)), &mut rng);
            assert!(o.is_none() || o == Some(7));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro itself: tuple inputs, map/filter combinators, asserts.
        #[test]
        fn macro_end_to_end(
            xs in prop::collection::vec((0u32..10).prop_map(|x| x * 2), 0..6),
            flag in any::<bool>(),
            f in any::<f64>().prop_filter("no NaN", |f| !f.is_nan()),
        ) {
            prop_assert!(xs.iter().all(|x| x % 2 == 0));
            prop_assert!(u8::from(flag) <= 1);
            prop_assert_ne!(f.to_bits(), f64::NAN.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "FAILED")]
    fn failing_property_reports_inputs() {
        proptest! {
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
