//! Addition, subtraction and multiplication for [`Natural`].

use crate::Natural;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Limb count above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

/// `len` zero limbs. Not `vec![0; len]`: that asks the allocator for
/// zeroed memory (`calloc`), which glibc serves past its per-thread cache,
/// from bins every thread shares. In a long-running process's fragmented
/// heap one such 128-B request measured 25–50 µs (DESIGN.md, "Modular
/// exponentiation").
#[allow(clippy::slow_vector_initialization)] // not `calloc`, on purpose
pub(crate) fn zeros(len: usize) -> Vec<u64> {
    let mut limbs = Vec::with_capacity(len);
    limbs.resize(len, 0);
    limbs
}

pub(crate) fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &lhs) in long.iter().enumerate() {
        let rhs = short.get(i).copied().unwrap_or(0);
        let (s1, c1) = lhs.overflowing_add(rhs);
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Subtracts `b` from `a` in place, returning the final borrow.
/// `a.len() >= b.len()` is required.
pub(crate) fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= b.len());
    let mut borrow = false;
    for (i, limb) in a.iter_mut().enumerate() {
        let rhs = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = limb.overflowing_sub(rhs);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *limb = d2;
        borrow = b1 || b2;
    }
    borrow
}

/// Adds `b` to `a` in place (equal lengths), returning the final carry.
pub(crate) fn add_limbs_in_place(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = false;
    for (limb, &rhs) in a.iter_mut().zip(b) {
        let (s1, c1) = limb.overflowing_add(rhs);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *limb = s2;
        carry = c1 || c2;
    }
    carry
}

/// Schoolbook multiplication: `out = a * b` (out is zeroed and resized).
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = zeros(a.len() + b.len());
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    out
}

/// Karatsuba multiplication for large operands.
fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let split = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(split.min(a.len()));
    let (b0, b1) = b.split_at(split.min(b.len()));

    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);
    let a01 = add_limbs(a0, a1);
    let b01 = add_limbs(b0, b1);
    let mut z1 = mul_karatsuba(&a01, &b01);
    // z1 = (a0+a1)(b0+b1) - z0 - z2
    let borrow0 = sub_limbs_in_place(&mut z1, &z0);
    let borrow2 = sub_limbs_in_place(&mut z1, &z2);
    debug_assert!(!borrow0 && !borrow2, "karatsuba middle term underflow");
    trim(&mut z1);

    let mut out = zeros(a.len() + b.len());
    add_shifted(&mut out, &z0, 0);
    add_shifted(&mut out, &z1, split);
    add_shifted(&mut out, &z2, 2 * split);
    out
}

/// Removes trailing zero limbs (the value is unchanged).
fn trim(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// `acc += val << (shift limbs)`; `acc` must be large enough.
fn add_shifted(acc: &mut [u64], val: &[u64], shift: usize) {
    let mut carry = 0u64;
    for (i, &v) in val.iter().enumerate() {
        let idx = i + shift;
        let (s1, c1) = acc[idx].overflowing_add(v);
        let (s2, c2) = s1.overflowing_add(carry);
        acc[idx] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut k = val.len() + shift;
    while carry != 0 {
        let (s, c) = acc[k].overflowing_add(carry);
        acc[k] = s;
        carry = c as u64;
        k += 1;
    }
}

impl Natural {
    /// Checked subtraction: returns `None` if `other > self`.
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// assert_eq!(Natural::from(3u64).checked_sub(&Natural::from(5u64)), None);
    /// ```
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        let borrow = sub_limbs_in_place(&mut limbs, &other.limbs);
        debug_assert!(!borrow);
        Some(Natural::from_limbs(limbs))
    }

    /// Multiplies by a single 64-bit limb.
    pub fn mul_u64(&self, m: u64) -> Natural {
        if m == 0 || self.is_zero() {
            return Natural::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let cur = (l as u128) * (m as u128) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Natural::from_limbs(out)
    }

    /// Adds a single 64-bit limb.
    pub fn add_u64(&self, v: u64) -> Natural {
        self + &Natural::from(v)
    }

    /// Subtracts a single 64-bit limb, returning `None` on underflow.
    pub fn checked_sub_u64(&self, v: u64) -> Option<Natural> {
        self.checked_sub(&Natural::from(v))
    }

    /// Squares the value. Currently delegates to multiplication.
    pub fn square(&self) -> Natural {
        self * self
    }
}

impl Add<&Natural> for &Natural {
    type Output = Natural;
    fn add(self, rhs: &Natural) -> Natural {
        Natural::from_limbs(add_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Add for Natural {
    type Output = Natural;
    fn add(self, rhs: Natural) -> Natural {
        &self + &rhs
    }
}

impl AddAssign<&Natural> for Natural {
    fn add_assign(&mut self, rhs: &Natural) {
        *self = &*self + rhs;
    }
}

impl Sub<&Natural> for &Natural {
    type Output = Natural;
    /// # Panics
    /// Panics if `rhs > self`; use [`Natural::checked_sub`] to handle
    /// underflow gracefully.
    fn sub(self, rhs: &Natural) -> Natural {
        self.checked_sub(rhs)
            .expect("Natural subtraction underflow")
    }
}

impl Sub for Natural {
    type Output = Natural;
    fn sub(self, rhs: Natural) -> Natural {
        &self - &rhs
    }
}

impl SubAssign<&Natural> for Natural {
    fn sub_assign(&mut self, rhs: &Natural) {
        *self = &*self - rhs;
    }
}

impl Mul<&Natural> for &Natural {
    type Output = Natural;
    fn mul(self, rhs: &Natural) -> Natural {
        Natural::from_limbs(mul_karatsuba(&self.limbs, &rhs.limbs))
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        &self * &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn add_with_carry_propagation() {
        let a = Natural::from(u64::MAX);
        let b = Natural::one();
        assert_eq!(&a + &b, n(1u128 << 64));
    }

    #[test]
    fn add_asymmetric_lengths() {
        let a = n(u128::MAX);
        let b = Natural::one();
        let sum = &a + &b;
        assert_eq!(sum.limbs(), &[0, 0, 1]);
    }

    #[test]
    fn sub_with_borrow() {
        let a = n(1u128 << 64);
        let b = Natural::one();
        assert_eq!(&a - &b, Natural::from(u64::MAX));
    }

    #[test]
    fn sub_underflow_is_none() {
        assert_eq!(n(5).checked_sub(&n(6)), None);
        assert_eq!(n(5).checked_sub(&n(5)), Some(Natural::zero()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_operator_panics_on_underflow() {
        let _ = &n(1) - &n(2);
    }

    #[test]
    fn mul_small() {
        assert_eq!(&n(7) * &n(6), n(42));
        assert_eq!(&n(0) * &n(6), Natural::zero());
    }

    #[test]
    fn mul_cross_limb() {
        let a = Natural::from(u64::MAX);
        let b = Natural::from(u64::MAX);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = n((u64::MAX as u128) * (u64::MAX as u128));
        assert_eq!(&a * &b, expect);
    }

    #[test]
    fn mul_u64_matches_full_mul() {
        let a = n(0xdead_beef_cafe_babe_1234_5678u128);
        assert_eq!(a.mul_u64(1000), &a * &n(1000));
    }

    #[test]
    fn karatsuba_agrees_with_schoolbook() {
        // Build operands big enough to cross the threshold.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..80u64 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i);
            limbs_a.push(x);
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i * 7 + 1);
            limbs_b.push(x);
        }
        let a = &limbs_a;
        let b = &limbs_b;
        assert_eq!(mul_karatsuba(a, b), mul_schoolbook(a, b));
    }

    #[test]
    fn square_matches_mul() {
        let a = n(0xffff_ffff_ffff_ffff_ffffu128);
        assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn distributivity_smoke() {
        let a = n(123_456_789_000);
        let b = n(987_654_321_000);
        let c = n(555_555);
        let left = &a * &(&b + &c);
        let right = &(&a * &b) + &(&a * &c);
        assert_eq!(left, right);
    }
}
