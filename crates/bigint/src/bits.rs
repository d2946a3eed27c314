//! Bit-level operations on [`Natural`]: shifts, bit access, bit length.

use crate::Natural;
use std::ops::{Shl, Shr};

impl Natural {
    /// Number of significant bits (`0` has bit length `0`).
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// assert_eq!(Natural::from(0u64).bit_length(), 0);
    /// assert_eq!(Natural::from(1u64).bit_length(), 1);
    /// assert_eq!(Natural::from(255u64).bit_length(), 8);
    /// ```
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit numbering; out-of-range bits are 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            Some(l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Returns a copy with bit `i` set to `value`.
    pub fn with_bit(&self, i: usize, value: bool) -> Natural {
        let limb = i / 64;
        let mut limbs = self.limbs.clone();
        if limbs.len() <= limb {
            limbs.resize(limb + 1, 0);
        }
        if value {
            limbs[limb] |= 1u64 << (i % 64);
        } else {
            limbs[limb] &= !(1u64 << (i % 64));
        }
        Natural::from_limbs(limbs)
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> Natural {
        if self.is_zero() || bits == 0 {
            if bits == 0 {
                return self.clone();
            }
            return Natural::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = crate::arith::zeros(self.limbs.len() + limb_shift + 1);
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= l << bit_shift;
            if bit_shift != 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        Natural::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr_bits(&self, bits: usize) -> Natural {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Natural::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut l = self.limbs[i] >> bit_shift;
            if bit_shift != 0 {
                if let Some(&next) = self.limbs.get(i + 1) {
                    l |= next << (64 - bit_shift);
                }
            }
            out.push(l);
        }
        Natural::from_limbs(out)
    }

    /// Number of trailing zero bits; `None` for the value `0`.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// `2^e`.
    pub fn power_of_two(e: usize) -> Natural {
        Natural::one().shl_bits(e)
    }
}

impl Shl<usize> for &Natural {
    type Output = Natural;
    fn shl(self, rhs: usize) -> Natural {
        self.shl_bits(rhs)
    }
}

impl Shr<usize> for &Natural {
    type Output = Natural;
    fn shr(self, rhs: usize) -> Natural {
        self.shr_bits(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_length_cross_limb() {
        assert_eq!(Natural::from(u64::MAX).bit_length(), 64);
        assert_eq!(Natural::from(u64::MAX as u128 + 1).bit_length(), 65);
        assert_eq!(Natural::power_of_two(200).bit_length(), 201);
    }

    #[test]
    fn shift_roundtrip() {
        let n = Natural::from(0xdead_beefu64);
        for s in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            assert_eq!(n.shl_bits(s).shr_bits(s), n, "shift {s}");
        }
    }

    #[test]
    fn shr_discards_low_bits() {
        let n = Natural::from(0b1011u64);
        assert_eq!(n.shr_bits(1), Natural::from(0b101u64));
        assert_eq!(n.shr_bits(4), Natural::zero());
    }

    #[test]
    fn bit_access() {
        let n = Natural::power_of_two(100);
        assert!(n.bit(100));
        assert!(!n.bit(99));
        assert!(!n.bit(101));
        assert!(!n.bit(100_000));
    }

    #[test]
    fn with_bit_set_and_clear() {
        let n = Natural::zero().with_bit(130, true);
        assert!(n.bit(130));
        assert_eq!(n, Natural::power_of_two(130));
        let n2 = n.with_bit(130, false);
        assert!(n2.is_zero());
    }

    #[test]
    fn trailing_zeros_values() {
        assert_eq!(Natural::zero().trailing_zeros(), None);
        assert_eq!(Natural::one().trailing_zeros(), Some(0));
        assert_eq!(Natural::power_of_two(77).trailing_zeros(), Some(77));
    }

    #[test]
    fn operator_forms() {
        let n = Natural::from(5u64);
        assert_eq!(&n << 3, Natural::from(40u64));
        assert_eq!(&Natural::from(40u64) >> 3, n);
    }
}
