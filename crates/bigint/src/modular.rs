//! High-level modular arithmetic on [`Natural`]: `mod_add`, `mod_mul`,
//! `mod_pow`, `mod_inv` and the extended Euclidean algorithm.

use crate::montgomery::Montgomery;
use crate::{ExtendedGcd, Integer, Natural};

impl Natural {
    /// `(self + other) mod m`. Operands need not be reduced.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn mod_add(&self, other: &Natural, m: &Natural) -> Natural {
        (self + other).rem_nat(m)
    }

    /// `(self * other) mod m`.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn mod_mul(&self, other: &Natural, m: &Natural) -> Natural {
        (self * other).rem_nat(m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery multiplication (4-bit window) when `m` is odd; falls
    /// back to square-and-multiply with full reductions when `m` is even.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// let p = Natural::from(23u64);
    /// let y = Natural::from(5u64).mod_pow(&Natural::from(6u64), &p);
    /// assert_eq!(y, Natural::from(8u64)); // 5^6 = 15625 ≡ 8 (mod 23)
    /// ```
    pub fn mod_pow(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return Natural::zero();
        }
        if let Some(ctx) = Montgomery::new(m) {
            return ctx.pow(self, exp);
        }
        // Even modulus: plain left-to-right square-and-multiply.
        let mut acc = Natural::one();
        let base = self.rem_nat(m);
        for i in (0..exp.bit_length()).rev() {
            acc = acc.mod_mul(&acc, m);
            if exp.bit(i) {
                acc = acc.mod_mul(&base, m);
            }
        }
        acc
    }

    /// Extended Euclidean algorithm: returns `g = gcd(self, other)` and
    /// Bézout coefficients `x`, `y` with `self·x + other·y = g`.
    pub fn extended_gcd(&self, other: &Natural) -> ExtendedGcd {
        let mut r0 = Integer::from_natural(self.clone());
        let mut r1 = Integer::from_natural(other.clone());
        let mut x0 = Integer::one();
        let mut x1 = Integer::zero();
        let mut y0 = Integer::zero();
        let mut y1 = Integer::one();
        while !r1.is_zero() {
            let (q, _) = r0.magnitude().div_rem(r1.magnitude());
            let q = Integer::from_natural(q);
            let r2 = &r0 - &(&q * &r1);
            let x2 = &x0 - &(&q * &x1);
            let y2 = &y0 - &(&q * &y1);
            r0 = r1;
            r1 = r2;
            x0 = x1;
            x1 = x2;
            y0 = y1;
            y1 = y2;
        }
        ExtendedGcd {
            gcd: r0.magnitude().clone(),
            x: x0,
            y: y0,
        }
    }

    /// Modular inverse: `self^{-1} mod m`, or `None` if
    /// `gcd(self, m) != 1`.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// let inv = Natural::from(3u64).mod_inv(&Natural::from(7u64)).unwrap();
    /// assert_eq!(inv, Natural::from(5u64)); // 3·5 = 15 ≡ 1 (mod 7)
    /// ```
    pub fn mod_inv(&self, m: &Natural) -> Option<Natural> {
        assert!(!m.is_zero(), "modulus must be non-zero");
        let a = self.rem_nat(m);
        if a.is_zero() {
            return None;
        }
        if m.is_odd() {
            return binary_inverse(&a, m);
        }
        let ext = a.extended_gcd(m);
        if !ext.gcd.is_one() {
            return None;
        }
        Some(ext.x.mod_floor(m))
    }
}

/// `a^{-1} mod m` for odd `m` and `0 < a < m`, or `None` if
/// `gcd(a, m) ≠ 1`: the binary extended Euclidean algorithm, with only
/// shifts, additions and subtractions on `m`-wide limbs (no division and
/// no allocation per step, where `extended_gcd` divides and allocates
/// signed values every round).
fn binary_inverse(a: &Natural, m: &Natural) -> Option<Natural> {
    use crate::arith::sub_limbs_in_place;
    let m = m.limbs();
    let len = m.len();
    let widen = |x: &[u64]| {
        let mut v = crate::arith::zeros(len);
        v[..x.len()].copy_from_slice(x);
        v
    };
    // Invariants: x·a ≡ u and y·a ≡ v (mod m), with 0 ≤ x, y < m.
    let (mut u, mut v) = (widen(a.limbs()), m.to_vec());
    let (mut x, mut y) = (widen(&[1]), widen(&[]));
    let is_zero = |w: &[u64]| w.iter().all(|&l| l == 0);
    while !is_zero(&u) {
        while u[0] & 1 == 0 {
            halve(&mut u, 0);
            halve_mod(&mut x, m);
        }
        while v[0] & 1 == 0 {
            halve(&mut v, 0);
            halve_mod(&mut y, m);
        }
        // Both odd: the larger less the smaller is even.
        let (big, small, bx, sx) = if u.iter().rev().ge(v.iter().rev()) {
            (&mut u, &v, &mut x, &y)
        } else {
            (&mut v, &u, &mut y, &x)
        };
        sub_limbs_in_place(big, small);
        if sub_limbs_in_place(bx, sx) {
            crate::arith::add_limbs_in_place(bx, m);
        }
    }
    // u = 0, so v = gcd(a, m).
    (v[0] == 1 && v[1..].iter().all(|&l| l == 0)).then(|| Natural::from_limbs(y))
}

/// `w ← (w + top·2^(64·len)) / 2`.
fn halve(w: &mut [u64], top: u64) {
    let mut carry = top;
    for limb in w.iter_mut().rev() {
        let out = *limb & 1;
        *limb = (*limb >> 1) | (carry << 63);
        carry = out;
    }
}

/// `x ← x / 2 mod m` for odd `m` and `x < m`.
fn halve_mod(x: &mut [u64], m: &[u64]) {
    let top = if x[0] & 1 == 1 {
        crate::arith::add_limbs_in_place(x, m) as u64
    } else {
        0
    };
    halve(x, top);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn mod_add_wraps() {
        let m = n(10);
        assert_eq!(n(7).mod_add(&n(8), &m), n(5));
        assert_eq!(n(123).mod_add(&n(456), &m), n(9));
    }

    #[test]
    fn mod_mul_reduces() {
        let m = n(97);
        assert_eq!(n(96).mod_mul(&n(96), &m), n(1));
    }

    #[test]
    fn mod_pow_odd_and_even_moduli() {
        // Odd modulus goes through Montgomery.
        assert_eq!(n(5).mod_pow(&n(6), &n(23)), n(8));
        // Even modulus goes through the fallback.
        assert_eq!(n(5).mod_pow(&n(6), &n(24)), n(15625 % 24));
        // Modulus one.
        assert_eq!(n(5).mod_pow(&n(6), &n(1)), n(0));
    }

    #[test]
    fn mod_pow_large_prime() {
        // Fermat: a^(p-1) = 1 mod p for 127-bit Mersenne prime 2^127 - 1.
        let p = Natural::power_of_two(127)
            .checked_sub(&Natural::one())
            .unwrap();
        let exp = p.checked_sub(&Natural::one()).unwrap();
        assert_eq!(n(3).mod_pow(&exp, &p), Natural::one());
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        let a = n(240);
        let b = n(46);
        let ext = a.extended_gcd(&b);
        assert_eq!(ext.gcd, n(2));
        let lhs = &(&Integer::from_natural(a) * &ext.x) + &(&Integer::from_natural(b) * &ext.y);
        assert_eq!(lhs, Integer::from_natural(n(2)));
    }

    #[test]
    fn mod_inv_basic() {
        assert_eq!(n(3).mod_inv(&n(7)), Some(n(5)));
        assert_eq!(n(2).mod_inv(&n(4)), None); // not coprime
        assert_eq!(n(0).mod_inv(&n(7)), None);
        assert_eq!(n(1).mod_inv(&n(7)), Some(n(1)));
    }

    #[test]
    fn binary_inverse_matches_extended_gcd() {
        for m in [1u128, 3, 9, 15, 97, 105, 1009] {
            let m = n(m);
            for a in 1..m.to_u64().unwrap() {
                let a = n(a as u128);
                let ext = a.extended_gcd(&m);
                let want = ext.gcd.is_one().then(|| ext.x.mod_floor(&m));
                assert_eq!(binary_inverse(&a, &m), want, "{a:?} mod {m:?}");
            }
        }
    }

    #[test]
    fn mod_inv_roundtrip_large() {
        let p = Natural::power_of_two(127)
            .checked_sub(&Natural::one())
            .unwrap();
        let a = Natural::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let inv = a.mod_inv(&p).expect("p is prime, inverse exists");
        assert_eq!(a.mod_mul(&inv, &p), Natural::one());
    }

    #[test]
    fn mod_inv_unreduced_input() {
        // self larger than modulus.
        let inv = n(10).mod_inv(&n(7)).unwrap();
        assert_eq!(n(10).mod_mul(&inv, &n(7)), Natural::one());
    }
}
