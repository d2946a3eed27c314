//! Division and remainder for [`Natural`] (Knuth TAOCP Vol. 2, Algorithm D).

use crate::Natural;
use std::ops::{Div, Rem};

impl Natural {
    /// Divides by a single 64-bit limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (Natural, u64) {
        assert!(d != 0, "division by zero");
        let mut q = crate::arith::zeros(self.limbs.len());
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Natural::from_limbs(q), rem as u64)
    }

    /// Full division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and `remainder < divisor`.
    ///
    /// Uses schoolbook long division for single-limb divisors and Knuth's
    /// Algorithm D otherwise.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// let a = Natural::from(1_000_000_007u64);
    /// let b = Natural::from(97u64);
    /// let (q, r) = a.div_rem(&b);
    /// assert_eq!(&(&q * &b) + &r, a);
    /// ```
    pub fn div_rem(&self, divisor: &Natural) -> (Natural, Natural) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Natural::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, Natural::from(r));
        }

        // Knuth Algorithm D. Normalize so the top divisor limb has its high
        // bit set, which makes the quotient-digit estimate off by at most 2.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl_bits(shift);
        let v = divisor.shl_bits(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // One extra headroom limb, allocated with the rest: growing the
        // vector by `push` would `realloc`, which bypasses the allocator's
        // per-thread cache.
        let mut un = Vec::with_capacity(u.limbs.len() + 1);
        un.extend_from_slice(&u.limbs);
        un.push(0);
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];

        let mut q = crate::arith::zeros(m + 1);
        for j in (0..=m).rev() {
            // Estimate q̂ from the top two dividend limbs.
            let numerator = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numerator / v_top as u128;
            let mut rhat = numerator % v_top as u128;
            // Correct the estimate down while it is provably too big.
            while qhat >> 64 != 0
                || qhat * v_second as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            if borrow < 0 {
                // q̂ was one too large: add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let quotient = Natural::from_limbs(q);
        let remainder = Natural::from_limbs(un).shr_bits(shift);
        (quotient, remainder)
    }

    /// Euclidean remainder `self mod m`.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn rem_nat(&self, m: &Natural) -> Natural {
        self.div_rem(m).1
    }

    /// Greatest common divisor (binary GCD).
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// let g = Natural::from(48u64).gcd(&Natural::from(36u64));
    /// assert_eq!(g, Natural::from(12u64));
    /// ```
    pub fn gcd(&self, other: &Natural) -> Natural {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let az = a.trailing_zeros().unwrap();
        let bz = b.trailing_zeros().unwrap();
        let common = az.min(bz);
        a = a.shr_bits(az);
        b = b.shr_bits(bz);
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = &b - &a;
            if b.is_zero() {
                return a.shl_bits(common);
            }
            b = b.shr_bits(b.trailing_zeros().unwrap());
        }
    }
}

impl Div<&Natural> for &Natural {
    type Output = Natural;
    fn div(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).0
    }
}

impl Rem<&Natural> for &Natural {
    type Output = Natural;
    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn div_small_divisor() {
        let (q, r) = n(1000).div_rem(&n(7));
        assert_eq!(q, n(142));
        assert_eq!(r, n(6));
    }

    #[test]
    fn div_by_larger_is_zero() {
        let (q, r) = n(5).div_rem(&n(100));
        assert!(q.is_zero());
        assert_eq!(r, n(5));
    }

    #[test]
    fn div_exact() {
        let a = n(1u128 << 100);
        let b = n(1u128 << 50);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, n(1u128 << 50));
        assert!(r.is_zero());
    }

    #[test]
    fn div_rem_identity_multi_limb() {
        // Deterministic pseudo-random multi-limb cases.
        let mut x = 0x243F6A8885A308D3u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let a = Natural::from_limbs(vec![next(), next(), next(), next(), next()]);
            let b = Natural::from_limbs(vec![next(), next(), next()]);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(&(&q * &b) + &r, a);
        }
    }

    #[test]
    fn div_triggers_addback_path() {
        // Classic Algorithm D add-back case: dividend crafted so that the
        // first quotient estimate overshoots.
        let a = Natural::from_limbs(vec![0, u64::MAX - 1, u64::MAX >> 1]);
        let b = Natural::from_limbs(vec![u64::MAX, u64::MAX >> 1]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn rem_nat_is_remainder() {
        assert_eq!(n(29).rem_nat(&n(10)), n(9));
    }

    #[test]
    fn gcd_values() {
        assert_eq!(n(0).gcd(&n(7)), n(7));
        assert_eq!(n(7).gcd(&n(0)), n(7));
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(1_000_003).gcd(&n(998_244_353)), n(1));
        let a = n(2 * 3 * 5 * 7 * 1_000_003);
        let b = n(2 * 5 * 11 * 13);
        assert_eq!(a.gcd(&b), n(10));
    }

    #[test]
    fn operators() {
        assert_eq!(&n(100) / &n(7), n(14));
        assert_eq!(&n(100) % &n(7), n(2));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&Natural::zero());
    }
}
