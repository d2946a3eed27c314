//! Metric spaces for fuzzy extractors (Sec. II-A/II-B of the paper).
//!
//! Secure sketches are defined relative to a metric space `(M, dis)`. The
//! paper's contribution uses the **Chebyshev distance** (maximum norm) on
//! its number line `La`, which is a ring: [`RingChebyshev`], behind the
//! [`Metric`] trait. The classical constructions it compares against use
//! **Hamming distance** (code-offset / fuzzy commitment), which they take
//! directly as [`BitVec::xor_weight`] of the [`BitVec`] bit-vector type.
//!
//! The crate also hosts the workspace's *service* metrics: the
//! lock-free [`telemetry::Histogram`] the request scheduler exports its
//! latency / queue-depth / batch-size distributions through (same crate,
//! different sense of "metric" — both are measurement vocabulary shared
//! across the workspace).
//!
//! ```rust
//! use fe_metrics::{Metric, RingChebyshev};
//!
//! let d = RingChebyshev::new(100).distance(&[0, 10, -5][..], &[3, 7, 91][..]);
//! assert_eq!(d, 4); // max(|0-3|, |10-7|, |-5-91| around the ring of 100)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
mod chebyshev;
pub mod telemetry;

pub use bitvec::BitVec;
pub use chebyshev::RingChebyshev;

use std::fmt::Debug;

/// A distance function over points of type `P`.
///
/// Distances are non-negative and symmetric; implementations in this crate
/// also satisfy the triangle inequality (making them metrics in the
/// mathematical sense).
pub trait Metric<P: ?Sized> {
    /// The distance value type (`u64` for discrete metrics, `f64` for
    /// continuous ones).
    type Distance: PartialOrd + Copy + Debug;

    /// Computes the distance between `a` and `b`.
    fn distance(&self, a: &P, b: &P) -> Self::Distance;

    /// Convenience predicate: `distance(a, b) <= threshold`.
    fn within(&self, a: &P, b: &P, threshold: Self::Distance) -> bool {
        self.distance(a, b) <= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_uses_distance() {
        let m = RingChebyshev::new(100);
        assert!(m.within(&[0i64, 0][..], &[3, -3][..], 3));
        assert!(!m.within(&[0i64, 0][..], &[3, -4][..], 3));
    }
}
