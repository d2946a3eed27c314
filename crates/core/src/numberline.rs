//! The number line `La` of Definition 4: a discretized ring partitioned
//! into `v` intervals of `k` units of length `a`.

use crate::SketchError;
use rand::Rng;
use rand::RngCore;

/// The number line `La` with parameters `(a, k, v)`.
///
/// Points are the integers in the canonical range `(-kav/2, kav/2]`; the
/// line wraps around (Sec. IV-B, special case 2: "`La` can be considered
/// as a ring"). Interval boundaries sit at multiples of `ka`; each
/// interval's *identifier* is its midpoint, at `ka/2` past the boundary.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NumberLine {
    a: u64,
    k: u64,
    v: u64,
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
        Ok(NumberLine { a, k, v })
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

    /// Wraps any integer onto the canonical range `(-kav/2, kav/2]`.
    pub fn wrap(&self, x: i64) -> i64 {
        let period = self.period() as i64;
        let half = self.half_range() as i64;
        let mut r = x.rem_euclid(period); // [0, period)
        if r > half {
            r -= period;
        }
        r
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
        x.rem_euclid(self.interval_len() as i64) == 0
    }

    /// The identifier (midpoint) of the interval containing `x`.
    ///
    /// For boundary points, which belong to no interval, this returns the
    /// identifier of the interval to the *right*; callers that need the
    /// paper's coin-flip semantics handle boundaries separately.
    pub fn identifier_of(&self, x: i64) -> i64 {
        let ka = self.interval_len() as i64;
        let r = x.rem_euclid(ka); // [0, ka)
        self.wrap(x - r + ka / 2)
    }

    /// Distance from `x` to the identifier of its interval (cyclic,
    /// `<= ka/2`).
    pub fn distance_to_identifier(&self, x: i64) -> u64 {
        let ka = self.interval_len() as i64;
        let r = x.rem_euclid(ka); // [0, ka)
        (r - ka / 2).unsigned_abs()
    }

    /// Cyclic distance between two points on the ring.
    pub fn cyclic_distance(&self, x: i64, y: i64) -> u64 {
        let period = self.period();
        let diff = x.abs_diff(y) % period;
        diff.min(period - diff)
    }

    /// Chebyshev distance between two vectors *on the ring* (maximum of
    /// per-coordinate cyclic distances).
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn chebyshev_distance(&self, x: &[i64], y: &[i64]) -> u64 {
        assert_eq!(x.len(), y.len(), "dimension mismatch");
        x.iter()
            .zip(y.iter())
            .map(|(&a, &b)| self.cyclic_distance(a, b))
            .max()
            .unwrap_or(0)
    }

    /// Draws one uniform point from the canonical range.
    pub fn random_point<R: RngCore + ?Sized>(&self, rng: &mut R) -> i64 {
        let half = self.half_range() as i64;
        rng.gen_range((-half + 1)..=half)
    }

    /// Draws an `n`-dimensional uniform vector (a synthetic biometric
    /// encoding in the paper's experiments).
    pub fn random_vector<R: RngCore + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<i64> {
        (0..n).map(|_| self.random_point(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn cyclic_distance_examples() {
        let l = paper_line();
        assert_eq!(l.cyclic_distance(99_999, -99_999), 2); // across the seam
        assert_eq!(l.cyclic_distance(0, 100_000), 100_000); // antipodal
        assert_eq!(l.cyclic_distance(-50, 50), 100);
    }

    #[test]
    fn chebyshev_vector_distance() {
        let l = paper_line();
        let d = l.chebyshev_distance(&[99_999, 0], &[-99_999, 30]);
        assert_eq!(d, 30);
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
