//! Chebyshev (L∞ / maximum-norm) distance on the ring `La` — the paper's
//! metric (Def. 3).

use crate::Metric;

/// Chebyshev distance on a ring of circumference `period` (the paper's
/// number line `La` "can be considered as a ring", Sec. IV-B special case 2).
///
/// Coordinates are compared by the shorter way around the circle:
/// `d(x, y) = min(|x - y| mod period, period - |x - y| mod period)`.
///
/// ```rust
/// use fe_metrics::{Metric, RingChebyshev};
///
/// let m = RingChebyshev::new(100);
/// // 98 and 2 are distance 4 apart around the ring, not 96.
/// assert_eq!(m.distance(&[98i64][..], &[2][..]), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingChebyshev {
    period: u64,
}

impl RingChebyshev {
    /// Creates the ring metric with the given circumference.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        RingChebyshev { period }
    }

    /// The ring circumference.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Cyclic distance between two scalars.
    pub fn scalar_distance(&self, x: i64, y: i64) -> u64 {
        let diff = x.abs_diff(y) % self.period;
        diff.min(self.period - diff)
    }
}

impl Metric<[i64]> for RingChebyshev {
    type Distance = u64;

    /// # Panics
    /// Panics if the vectors have different lengths.
    fn distance(&self, a: &[i64], b: &[i64]) -> u64 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.scalar_distance(x, y))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_lengths_panic() {
        RingChebyshev::new(10).distance(&[1i64][..], &[1, 2][..]);
    }

    #[test]
    fn ring_wraps() {
        let m = RingChebyshev::new(10);
        assert_eq!(m.scalar_distance(0, 9), 1);
        assert_eq!(m.scalar_distance(9, 0), 1);
        assert_eq!(m.scalar_distance(2, 7), 5);
        assert_eq!(m.scalar_distance(-1, 1), 2);
        assert_eq!(m.scalar_distance(0, 5), 5); // antipodal
    }

    #[test]
    fn ring_symmetry_and_identity() {
        let m = RingChebyshev::new(400);
        for (x, y) in [(0i64, 399), (-200, 200), (123, -77)] {
            assert_eq!(m.scalar_distance(x, y), m.scalar_distance(y, x));
        }
        assert_eq!(m.scalar_distance(42, 42), 0);
    }

    #[test]
    fn ring_triangle_inequality_smoke() {
        let m = RingChebyshev::new(37);
        for x in -40i64..40 {
            for y in -40i64..40 {
                for z in [-15i64, 0, 22] {
                    let d_xy = m.scalar_distance(x, y);
                    let d_xz = m.scalar_distance(x, z);
                    let d_zy = m.scalar_distance(z, y);
                    assert!(d_xy <= d_xz + d_zy, "triangle failed at {x},{y},{z}");
                }
            }
        }
    }

    #[test]
    fn ring_vector_distance() {
        let m = RingChebyshev::new(100);
        let d = m.distance(&[98i64, 50][..], &[2, 52][..]);
        assert_eq!(d, 4); // max(4, 2)
    }
}
