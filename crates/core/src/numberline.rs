//! The number line `La` of Definition 4: a discretized ring partitioned
//! into `v` intervals of `k` units of length `a`.

#[cfg(target_arch = "x86_64")]
use crate::index::store::kernels::avx512;
use crate::SketchError;
use rand::RngCore;
use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The number line `La` with parameters `(a, k, v)`.
///
/// Points are the integers in the canonical range `(-kav/2, kav/2]`; the
/// line wraps around (Sec. IV-B, special case 2: "`La` can be considered
/// as a ring"). Interval boundaries sit at multiples of `ka`; each
/// interval's *identifier* is its midpoint, at `ka/2` past the boundary.
///
/// Residues on the ring come from reciprocals of `ka` and of the period
/// computed once in [`NumberLine::new`], not from hardware divides
/// (DESIGN.md "Ring arithmetic"). Equality, hashing and `Debug` see only
/// `(a, k, v)`: the reciprocals are a function of them.
///
/// ```rust
/// use fe_core::NumberLine;
///
/// # fn main() -> Result<(), fe_core::SketchError> {
/// let line = NumberLine::new(100, 4, 500)?; // the paper's Table II line
/// assert_eq!(line.interval_len(), 400);
/// assert_eq!(line.period(), 200_000);
/// assert_eq!(line.half_range(), 100_000);
/// assert_eq!(line.identifier_of(250), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
pub struct NumberLine {
    a: u64,
    k: u64,
    v: u64,
    /// `⌈2⁶⁴/ka⌉`: a residue mod `ka` of a 32-bit operand is one
    /// multiply-high away.
    ka_inv: u64,
    /// [`NumberLine::interval_offset`]'s operands below this take the
    /// reciprocal: `2³²` when `ka < 2³²`, else 0 and every one divides.
    fast_end: u64,
    /// `⌈2¹²⁸/kav⌉`: a residue mod the period of any `u64`.
    period_inv: u128,
}

thread_local! {
    static DIVIDES: Cell<u64> = const { Cell::new(0) };
}

/// Hardware divides the calling thread's ring arithmetic has fallen back
/// to so far. On a line whose period is below `2³¹`, in-range input costs
/// none; a value more than a period outside the canonical range costs
/// one, and so do residues past the 32-bit reciprocal's reach on longer
/// lines (DESIGN.md "Ring arithmetic"). Subtract two readings to count
/// one call:
///
/// ```rust
/// use fe_core::{ring_divides, NumberLine};
///
/// let line = NumberLine::new(100, 4, 500).unwrap();
/// let before = ring_divides();
/// assert_eq!(line.wrap(250_000), 50_000); // one period out: a subtract
/// assert_eq!(line.wrap(i64::MAX), -24_193); // far out: a divide
/// assert_eq!(ring_divides() - before, 1);
/// ```
pub fn ring_divides() -> u64 {
    DIVIDES.with(Cell::get)
}

/// `x.rem_euclid(m)` by a hardware divide: the cold path, counted.
#[cold]
#[inline(never)]
fn divide(x: i64, m: i64) -> i64 {
    DIVIDES.with(|d| d.set(d.get() + 1));
    x.rem_euclid(m)
}

/// `n mod d` from `m = ⌈2⁶⁴/d⌉`: exact for every 32-bit `n` and
/// `2 ≤ d < 2³²` (Lemire, Kaser and Kurz, "Faster Remainder by Direct
/// Computation", Theorem 1).
fn fastmod_u32(n: u32, m: u64, d: u64) -> u64 {
    let low = m.wrapping_mul(u64::from(n));
    ((u128::from(low) * u128::from(d)) >> 64) as u64
}

/// `n mod d` from `m = ⌈2¹²⁸/d⌉`: exact for every 64-bit `n` and
/// `2 ≤ d < 2⁶⁴` (the same theorem, one width up). The multiply-high of
/// the 128-bit fraction by `d` is taken a 64-bit half at a time.
fn fastmod_u64(n: u64, m: u128, d: u64) -> u64 {
    let low = m.wrapping_mul(u128::from(n));
    let d = u128::from(d);
    let high = (low >> 64) * d + (((low & u128::from(u64::MAX)) * d) >> 64);
    (high >> 64) as u64
}

impl NumberLine {
    /// Creates a number line.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] unless `a >= 1`, `k` is even and
    /// `>= 2`, `v >= 2`, and the period `k·a·v` fits comfortably in `i64`
    /// (below `2^62`, leaving headroom for wrap arithmetic).
    pub fn new(a: u64, k: u64, v: u64) -> Result<NumberLine, SketchError> {
        if a == 0 || k < 2 || !k.is_multiple_of(2) || v < 2 {
            return Err(SketchError::BadParameters);
        }
        let period = a
            .checked_mul(k)
            .and_then(|ka| ka.checked_mul(v))
            .ok_or(SketchError::BadParameters)?;
        if period >= (1u64 << 62) {
            return Err(SketchError::BadParameters);
        }
        let ka = k * a;
        Ok(NumberLine {
            a,
            k,
            v,
            ka_inv: u64::MAX / ka + 1,
            fast_end: if ka < 1 << 32 { 1 << 32 } else { 0 },
            period_inv: u128::MAX / u128::from(period) + 1,
        })
    }

    /// The unit length `a`.
    pub fn a(&self) -> u64 {
        self.a
    }

    /// Units per interval `k` (even, `>= 2`).
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Number of intervals `v`.
    pub fn v(&self) -> u64 {
        self.v
    }

    /// Interval length `ka`.
    pub fn interval_len(&self) -> u64 {
        self.k * self.a
    }

    /// Ring circumference `kav` (the number of points on the line).
    pub fn period(&self) -> u64 {
        self.k * self.a * self.v
    }

    /// Half the range, `kav/2`: points live in `(-kav/2, kav/2]`.
    pub fn half_range(&self) -> u64 {
        self.period() / 2
    }

    /// Maximum legal sketch threshold: `t` must satisfy `t < ka/2`.
    pub fn max_threshold(&self) -> u64 {
        self.interval_len() / 2 - 1
    }

    /// The offset of `x` within its interval, `x.rem_euclid(ka)` for
    /// every `i64`. `ka` divides the period, so `x + kav` has the same
    /// residue; while that is a 32-bit number, the reciprocal gives it.
    pub(crate) fn interval_offset(&self, x: i64) -> i64 {
        // Below -kav, or within kav of i64::MAX where it wraps, the sum
        // is negative: as a u64 it is past any bound.
        let u = x.wrapping_add(self.period() as i64) as u64;
        if u < self.fast_end {
            fastmod_u32(u as u32, self.ka_inv, self.interval_len()) as i64
        } else {
            divide(x, self.interval_len() as i64)
        }
    }

    /// `ka/2 − interval_offset(x)` for every coordinate of `input` —
    /// `SS`'s movement but for a boundary point's coin flip — eight
    /// coordinates a step on AVX-512, and whether any of them is a
    /// boundary. `None` off AVX-512, on a line with no fast path, and
    /// when some `x + kav` is past `2³²`: then no residue was taken, and
    /// the caller's scalar loop divides exactly where it always did.
    pub(crate) fn half_minus_offsets(&self, input: &[i64]) -> Option<(Vec<i64>, bool)> {
        #[cfg(target_arch = "x86_64")]
        if self.fast_end != 0 && avx512::available() {
            let (period, ka) = (self.period(), self.interval_len());
            return avx512::sketch_offsets(input, period, ka, self.ka_inv);
        }
        let _ = input;
        None
    }

    /// Wraps any integer onto the canonical range `(-kav/2, kav/2]`.
    ///
    /// Within one period of that range this is an add or a subtract;
    /// only beyond it does it divide.
    pub fn wrap(&self, x: i64) -> i64 {
        let period = self.period() as i64;
        let half = self.half_range() as i64;
        if x > half + period || x <= -half - period {
            let r = divide(x, period); // [0, period)
            return if r > half { r - period } else { r };
        }
        if x > half {
            x - period
        } else if x <= -half {
            x + period
        } else {
            x
        }
    }

    /// `true` if `x` is already canonical.
    pub fn contains(&self, x: i64) -> bool {
        let half = self.half_range() as i64;
        x > -half && x <= half
    }

    /// `true` if `x` sits on an interval boundary (an "even point" in the
    /// paper's terms — it belongs to no interval and triggers the coin
    /// flip in `SS`).
    pub fn is_boundary(&self, x: i64) -> bool {
        self.interval_offset(x) == 0
    }

    /// The identifier (midpoint) of the interval containing `x`.
    ///
    /// For boundary points, which belong to no interval, this returns the
    /// identifier of the interval to the *right*; callers that need the
    /// paper's coin-flip semantics handle boundaries separately.
    pub fn identifier_of(&self, x: i64) -> i64 {
        let ka = self.interval_len() as i64;
        let r = self.interval_offset(x); // [0, ka)
        self.wrap(x - r + ka / 2)
    }

    /// Distance from `x` to the identifier of its interval (cyclic,
    /// `<= ka/2`).
    pub fn distance_to_identifier(&self, x: i64) -> u64 {
        let ka = self.interval_len() as i64;
        let r = self.interval_offset(x); // [0, ka)
        (r - ka / 2).unsigned_abs()
    }

    /// Draws one uniform point from the canonical range.
    ///
    /// Exactly what `rng.gen_range((1 - kav/2)..=kav/2)` returns, from
    /// the same single draw: its low end plus the draw mod the period.
    pub fn random_point<R: RngCore + ?Sized>(&self, rng: &mut R) -> i64 {
        let half = self.half_range() as i64;
        let offset = fastmod_u64(rng.next_u64(), self.period_inv, self.period());
        1 - half + offset as i64
    }

    /// Draws an `n`-dimensional uniform vector (a synthetic biometric
    /// encoding in the paper's experiments).
    pub fn random_vector<R: RngCore + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<i64> {
        (0..n).map(|_| self.random_point(rng)).collect()
    }
}

impl PartialEq for NumberLine {
    fn eq(&self, other: &NumberLine) -> bool {
        (self.a, self.k, self.v) == (other.a, other.k, other.v)
    }
}

impl Eq for NumberLine {}

impl Hash for NumberLine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.a, self.k, self.v).hash(state);
    }
}

impl fmt::Debug for NumberLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NumberLine")
            .field("a", &self.a)
            .field("k", &self.k)
            .field("v", &self.v)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Lines the reciprocals are held to the divides on: the smallest
    /// legal line, the paper's, a period past `2³²` (canonical points on
    /// both sides of the fast path's end), the largest `ka` below `2³²`,
    /// `ka` at and past `2³²` (no fast path), and two periods close to
    /// `2⁶²`.
    pub(crate) const ORACLE_LINES: [(u64, u64, u64); 8] = [
        (1, 2, 2),
        (100, 4, 500),
        (1_000, 2, 3_000_000),
        (2_147_483_647, 2, 2),
        (1 << 31, 2, 3),
        (3_000_000_000_000, 2, 5),
        (1, 2, (1 << 61) - 1),
        (7, 6, (1 << 62) / 42 - 1),
    ];

    pub(crate) fn oracle_line(i: usize) -> NumberLine {
        let (a, k, v) = ORACLE_LINES[i];
        NumberLine::new(a, k, v).unwrap()
    }

    /// The ring arithmetic as it was before the reciprocals, verbatim:
    /// one hardware divide a residue.
    pub(crate) mod by_division {
        use super::NumberLine;
        use rand::{Rng, RngCore};

        pub fn interval_offset(line: &NumberLine, x: i64) -> i64 {
            x.rem_euclid(line.interval_len() as i64)
        }

        pub fn wrap(line: &NumberLine, x: i64) -> i64 {
            let period = line.period() as i64;
            let half = line.half_range() as i64;
            let mut r = x.rem_euclid(period); // [0, period)
            if r > half {
                r -= period;
            }
            r
        }

        pub fn identifier_of(line: &NumberLine, x: i64) -> i64 {
            let ka = line.interval_len() as i64;
            let r = x.rem_euclid(ka); // [0, ka)
            wrap(line, x - r + ka / 2)
        }

        pub fn random_point<R: RngCore + ?Sized>(line: &NumberLine, rng: &mut R) -> i64 {
            let half = line.half_range() as i64;
            rng.gen_range((-half + 1)..=half)
        }
    }

    /// `MIN`, `MAX`, and each of `0`, `±ka/2`, `±ka`, `±half`, `±period`,
    /// `±(half + period)`, `±2·period`, `±2³²` and `2³² − period` (where
    /// `x + period` leaves the fast path) give or take up to 2.
    fn edge_points(line: &NumberLine) -> Vec<i64> {
        let ka = line.interval_len() as i64;
        let period = line.period() as i64;
        let half = line.half_range() as i64;
        let mut centres = vec![(1 << 32) - period];
        for base in [
            0,
            ka / 2,
            ka,
            half,
            period,
            half + period,
            2 * period,
            1 << 32,
        ] {
            centres.extend([base, -base]);
        }
        let mut xs = vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];
        xs.extend(centres.iter().flat_map(|&x| (-2..=2).map(move |d| x + d)));
        xs
    }

    fn assert_matches_division(line: &NumberLine, x: i64) {
        assert_eq!(
            line.interval_offset(x),
            by_division::interval_offset(line, x),
            "{line:?} x={x}"
        );
        assert_eq!(line.wrap(x), by_division::wrap(line, x), "{line:?} x={x}");
        assert_eq!(
            line.is_boundary(x),
            by_division::interval_offset(line, x) == 0
        );
        // `x - r + ka/2` overflows near `i64::MIN` and `i64::MAX`, in both.
        if x.unsigned_abs() < 1 << 62 {
            assert_eq!(
                line.identifier_of(x),
                by_division::identifier_of(line, x),
                "{line:?} x={x}"
            );
        }
    }

    #[test]
    fn ring_arithmetic_matches_division_at_the_edges() {
        for i in 0..ORACLE_LINES.len() {
            let line = oracle_line(i);
            for x in edge_points(&line) {
                assert_matches_division(&line, x);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any `i64`, anything within `2³⁴` of `0` and of `−period`
        /// (where `x + period` is the fast path's operand), and anything
        /// within two periods: the residue, the wrap, the boundary test
        /// and the identifier equal the divides'.
        #[test]
        fn ring_arithmetic_matches_division(
            i in 0..ORACLE_LINES.len(),
            any_x in any::<i64>(),
            near in -(1i64 << 34)..(1i64 << 34),
            thousandths in -1999i64..=1999,
        ) {
            let line = oracle_line(i);
            let period = line.period() as i64;
            let within = (i128::from(thousandths) * i128::from(period) / 1000) as i64;
            for x in [any_x, near, near - period, within] {
                assert_matches_division(&line, x);
            }
        }

        /// `random_point` returns what `gen_range` returns on a clone of
        /// the rng, one draw a sample.
        #[test]
        fn random_point_matches_gen_range(i in 0..ORACLE_LINES.len(), seed in any::<u64>()) {
            let line = oracle_line(i);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle = rng.clone();
            for _ in 0..16 {
                prop_assert_eq!(
                    line.random_point(&mut rng),
                    by_division::random_point(&line, &mut oracle)
                );
            }
            prop_assert_eq!(rng.next_u64(), oracle.next_u64());
        }
    }

    #[test]
    fn equality_hash_and_debug_see_only_the_parameters() {
        use std::collections::hash_map::DefaultHasher;
        let line = paper_line();
        let hash = |x: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        assert_eq!(line, NumberLine::new(100, 4, 500).unwrap());
        assert_ne!(line, NumberLine::new(100, 4, 502).unwrap());
        assert_eq!(
            hash(&|h| line.hash(h)),
            hash(&|h| (100u64, 4u64, 500u64).hash(h))
        );
        assert_eq!(format!("{line:?}"), "NumberLine { a: 100, k: 4, v: 500 }");
    }

    #[test]
    fn only_far_points_divide() {
        let line = paper_line();
        let (period, half) = (line.period() as i64, line.half_range() as i64);
        let before = ring_divides();
        for x in edge_points(&line) {
            if (-period..=half + period).contains(&x) {
                line.wrap(x);
                line.interval_offset(x);
            }
        }
        assert_eq!(ring_divides(), before, "within a period: no divide");
        line.wrap(1 << 40);
        assert_eq!(ring_divides(), before + 1);
        line.interval_offset(-period - 1);
        assert_eq!(ring_divides(), before + 2);
    }

    fn paper_line() -> NumberLine {
        NumberLine::new(100, 4, 500).unwrap()
    }

    #[test]
    fn paper_parameters() {
        let l = paper_line();
        assert_eq!(l.interval_len(), 400);
        assert_eq!(l.period(), 200_000);
        assert_eq!(l.half_range(), 100_000);
        assert_eq!(l.max_threshold(), 199);
    }

    #[test]
    fn parameter_validation() {
        assert!(NumberLine::new(0, 4, 500).is_err()); // a = 0
        assert!(NumberLine::new(100, 3, 500).is_err()); // k odd
        assert!(NumberLine::new(100, 0, 500).is_err()); // k < 2
        assert!(NumberLine::new(100, 4, 1).is_err()); // v < 2
        assert!(NumberLine::new(u64::MAX / 2, 4, 500).is_err()); // overflow
        assert!(NumberLine::new(1, 2, 2).is_ok()); // minimal legal line
    }

    #[test]
    fn wrap_canonical_range() {
        let l = paper_line();
        assert_eq!(l.wrap(0), 0);
        assert_eq!(l.wrap(100_000), 100_000);
        assert_eq!(l.wrap(-100_000), 100_000); // the two ends are the same point
        assert_eq!(l.wrap(100_001), -99_999);
        assert_eq!(l.wrap(200_000), 0);
        assert_eq!(l.wrap(-200_000), 0);
        assert_eq!(l.wrap(399_999), -1);
    }

    #[test]
    fn wrap_is_idempotent() {
        let l = paper_line();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let x = l.random_point(&mut rng);
            assert!(l.contains(x));
            assert_eq!(l.wrap(x), x);
        }
    }

    #[test]
    fn wrap_preserves_congruence() {
        let l = paper_line();
        for x in [-500_000i64, -123, 0, 7, 99_999, 100_001, 654_321] {
            let w = l.wrap(x);
            assert!(l.contains(w), "{x} wrapped to non-canonical {w}");
            assert_eq!(
                (x - w).rem_euclid(l.period() as i64),
                0,
                "wrap changed the residue of {x}"
            );
        }
    }

    #[test]
    fn boundaries_and_identifiers() {
        let l = paper_line();
        assert!(l.is_boundary(0));
        assert!(l.is_boundary(400));
        assert!(l.is_boundary(-400));
        assert!(!l.is_boundary(200));
        assert_eq!(l.identifier_of(1), 200);
        assert_eq!(l.identifier_of(399), 200);
        assert_eq!(l.identifier_of(401), 600);
        assert_eq!(l.identifier_of(-1), -200);
        assert_eq!(l.identifier_of(-399), -200);
    }

    #[test]
    fn identifier_distance() {
        let l = paper_line();
        assert_eq!(l.distance_to_identifier(200), 0); // at an identifier
        assert_eq!(l.distance_to_identifier(201), 1);
        assert_eq!(l.distance_to_identifier(399), 199);
        assert_eq!(l.distance_to_identifier(0), 200); // boundary: max distance
    }

    #[test]
    fn random_vectors_canonical() {
        let l = paper_line();
        let mut rng = StdRng::seed_from_u64(11);
        let v = l.random_vector(1000, &mut rng);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| l.contains(x)));
        // Should cover a wide range.
        let min = *v.iter().min().unwrap();
        let max = *v.iter().max().unwrap();
        assert!(min < -50_000 && max > 50_000);
    }
}
