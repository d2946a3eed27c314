//! Hamming distance over bit vectors — the metric of the code-offset
//! sketch and fuzzy commitment baselines.

use crate::{BitVec, Metric};

/// Hamming distance on [`BitVec`]s: the number of differing bit positions.
///
/// ```rust
/// use fe_metrics::{BitVec, Hamming, Metric};
///
/// let a = BitVec::from_bools(&[true, false, true]);
/// let b = BitVec::from_bools(&[true, true, false]);
/// assert_eq!(Hamming.distance(&a, &b), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hamming;

impl Metric<BitVec> for Hamming {
    type Distance = u64;

    /// # Panics
    /// Panics if the vectors have different lengths.
    fn distance(&self, a: &BitVec, b: &BitVec) -> u64 {
        a.xor_weight(b) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_hamming() {
        let a = BitVec::from_fn(128, |i| i % 2 == 0);
        let b = BitVec::from_fn(128, |i| i % 4 == 0);
        assert_eq!(Hamming.distance(&a, &b), 32);
        assert_eq!(Hamming.distance(&a, &a), 0);
    }

    #[test]
    fn symmetry() {
        let a = BitVec::from_fn(50, |i| i % 3 == 0);
        let b = BitVec::from_fn(50, |i| i % 5 == 0);
        assert_eq!(Hamming.distance(&a, &b), Hamming.distance(&b, &a));
    }
}
