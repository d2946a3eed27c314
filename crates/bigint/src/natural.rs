//! The [`Natural`] type: an unsigned arbitrary-precision integer.

use std::cmp::Ordering;

/// An unsigned arbitrary-precision integer.
///
/// Stored as little-endian 64-bit limbs with the invariant that the most
/// significant limb is non-zero (zero is the empty limb vector). All
/// arithmetic is implemented in safe Rust using `u128` intermediate values.
///
/// # Example
///
/// ```rust
/// use fe_bigint::Natural;
///
/// let a = Natural::from(10u64);
/// let b = Natural::from(4u64);
/// assert_eq!(&a + &b, Natural::from(14u64));
/// assert_eq!(&a * &b, Natural::from(40u64));
/// assert_eq!(a.checked_sub(&b), Some(Natural::from(6u64)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    pub(crate) limbs: Vec<u64>,
}

impl Natural {
    /// The value `0`.
    pub const fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// The value `2`.
    pub fn two() -> Self {
        Natural { limbs: vec![2] }
    }

    /// Builds a natural from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Borrows the little-endian limb representation.
    ///
    /// The most significant limb is non-zero unless the value is `0`, in
    /// which case the slice is empty.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of limbs (zero for the value `0`).
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// Returns `true` if the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is `1`.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }
}

impl From<u64> for Natural {
    fn from(v: u64) -> Self {
        if v == 0 {
            Natural::zero()
        } else {
            Natural { limbs: vec![v] }
        }
    }
}

impl From<u32> for Natural {
    fn from(v: u32) -> Self {
        Natural::from(v as u64)
    }
}

impl From<u128> for Natural {
    fn from(v: u128) -> Self {
        Natural::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<u64> for Natural {
    fn eq(&self, other: &u64) -> bool {
        self.to_u64() == Some(*other)
    }
}

impl PartialOrd<u64> for Natural {
    fn partial_cmp(&self, other: &u64) -> Option<Ordering> {
        match self.limbs.len() {
            0 => 0u64.partial_cmp(other),
            1 => self.limbs[0].partial_cmp(other),
            _ => Some(Ordering::Greater),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_even() {
        let z = Natural::zero();
        assert!(z.is_zero());
        assert!(z.is_even());
        assert!(!z.is_odd());
        assert_eq!(z.to_u64(), Some(0));
        assert_eq!(z.limb_len(), 0);
    }

    #[test]
    fn from_limbs_normalizes() {
        let n = Natural::from_limbs(vec![5, 0, 0]);
        assert_eq!(n.limbs(), &[5]);
        assert_eq!(n, Natural::from(5u64));
    }

    #[test]
    fn from_u128_is_two_limbs() {
        let n = Natural::from(0x1234_5678_9abc_def0_1111_2222_3333_4444u128);
        assert_eq!(n.limbs(), &[0x1111_2222_3333_4444, 0x1234_5678_9abc_def0]);
        assert_eq!(n.to_u64(), None);
    }

    #[test]
    fn ordering_by_magnitude() {
        let small = Natural::from(u64::MAX);
        let big = Natural::from(u64::MAX as u128 + 1);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big.clone()), Ordering::Equal);
    }

    #[test]
    fn compare_with_u64() {
        let n = Natural::from(42u64);
        assert!(n == 42u64);
        assert!(n > 41u64);
        assert!(n < 43u64);
        let big = Natural::from(u128::MAX);
        assert!(big > u64::MAX);
    }

    #[test]
    fn parity() {
        assert!(Natural::from(2u64).is_even());
        assert!(Natural::from(3u64).is_odd());
        assert!(Natural::one().is_odd());
    }
}
