//! The finite field GF(2^m) with log/antilog table arithmetic (2 ≤ m ≤ 16).

use crate::CodeError;

/// Standard primitive polynomials for GF(2^m), index = m.
/// Bit `i` of the entry is the coefficient of `x^i`.
const PRIMITIVE_POLYS: [u32; 17] = [
    0,
    0,
    0b111,               // m=2:  x^2 + x + 1
    0b1011,              // m=3:  x^3 + x + 1
    0b10011,             // m=4:  x^4 + x + 1
    0b100101,            // m=5:  x^5 + x^2 + 1
    0b1000011,           // m=6:  x^6 + x + 1
    0b10001001,          // m=7:  x^7 + x^3 + 1
    0b100011101,         // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0b1000010001,        // m=9:  x^9 + x^4 + 1
    0b10000001001,       // m=10: x^10 + x^3 + 1
    0b100000000101,      // m=11: x^11 + x^2 + 1
    0b1000001010011,     // m=12: x^12 + x^6 + x^4 + x + 1
    0b10000000011011,    // m=13: x^13 + x^4 + x^3 + x + 1
    0b100010001000011,   // m=14: x^14 + x^10 + x^6 + x + 1
    0b1000000000000011,  // m=15: x^15 + x + 1
    0b10001000000001011, // m=16: x^16 + x^12 + x^3 + x + 1
];

/// GF(2^m): elements are `u16` values in `[0, 2^m)`, addition is XOR,
/// multiplication uses log/antilog tables built from a primitive
/// polynomial.
///
/// ```rust
/// use fe_ecc::Gf2m;
///
/// # fn main() -> Result<(), fe_ecc::CodeError> {
/// let f = Gf2m::new(8)?; // GF(256), the AES field size (different poly)
/// let a = 0x57;
/// let inv = f.inv(a).unwrap();
/// assert_eq!(f.mul(a, inv), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gf2m {
    m: u32,
    order: u32, // 2^m - 1, the multiplicative order
    log: Vec<u32>,
    antilog: Vec<u16>,
}

impl Gf2m {
    /// Constructs GF(2^m).
    ///
    /// # Errors
    /// Returns [`CodeError::BadParameters`] if `m` is outside `2..=16`.
    pub fn new(m: u32) -> Result<Gf2m, CodeError> {
        if !(2..=16).contains(&m) {
            return Err(CodeError::BadParameters);
        }
        let poly = PRIMITIVE_POLYS[m as usize];
        let size = 1u32 << m;
        let order = size - 1;
        let mut log = vec![u32::MAX; size as usize];
        let mut antilog = vec![0u16; order as usize];
        let mut x = 1u32;
        for i in 0..order {
            antilog[i as usize] = x as u16;
            debug_assert_eq!(log[x as usize], u32::MAX, "polynomial not primitive");
            log[x as usize] = i;
            x <<= 1;
            if x & size != 0 {
                x ^= poly;
            }
        }
        Ok(Gf2m {
            m,
            order,
            log,
            antilog,
        })
    }

    /// Field size `2^m`.
    pub fn size(&self) -> usize {
        1usize << self.m
    }

    /// Multiplicative group order `2^m - 1`.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Field addition (XOR).
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        let idx = (self.log[a as usize] + self.log[b as usize]) % self.order;
        self.antilog[idx as usize]
    }

    /// Multiplicative inverse; `None` for zero.
    #[inline]
    pub fn inv(&self, a: u16) -> Option<u16> {
        if a == 0 {
            return None;
        }
        let idx = (self.order - self.log[a as usize]) % self.order;
        Some(self.antilog[idx as usize])
    }

    /// Field division `a / b`; `None` when `b == 0`.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> Option<u16> {
        self.inv(b).map(|bi| self.mul(a, bi))
    }

    /// `a^e` with `e` reduced modulo the group order (negative allowed).
    pub fn pow(&self, a: u16, e: i64) -> u16 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let log_a = self.log[a as usize] as i64;
        let exp = (log_a * e).rem_euclid(self.order as i64) as u32;
        self.antilog[exp as usize]
    }

    /// `α^e`, a power of the primitive element.
    #[inline]
    pub fn alpha_pow(&self, e: i64) -> u16 {
        let exp = e.rem_euclid(self.order as i64) as u32;
        self.antilog[exp as usize]
    }

    /// Discrete log base α; `None` for zero.
    #[inline]
    pub fn log(&self, a: u16) -> Option<u32> {
        if a == 0 {
            None
        } else {
            Some(self.log[a as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(Gf2m::new(1).is_err());
        assert!(Gf2m::new(17).is_err());
        for m in 2..=16 {
            assert!(Gf2m::new(m).is_ok(), "m={m}");
        }
    }

    #[test]
    fn all_table_polynomials_are_primitive() {
        // α must generate the full multiplicative group: every non-zero
        // element gets a discrete log during table construction. (This
        // runs in release mode too, unlike the builder's debug_assert —
        // it caught a typo'd m=14 polynomial once.)
        for m in 2..=16 {
            let f = Gf2m::new(m).unwrap();
            for a in 1..f.size() as u32 {
                assert!(
                    f.log(a as u16).is_some_and(|l| l < f.order()),
                    "m={m}: element {a} unreachable from α"
                );
            }
        }
    }

    #[test]
    fn gf16_multiplication_table_spot_checks() {
        // GF(16) with x^4 + x + 1: α^4 = α + 1 = 0b0011 = 3.
        let f = Gf2m::new(4).unwrap();
        assert_eq!(f.alpha_pow(0), 1);
        assert_eq!(f.alpha_pow(1), 2);
        assert_eq!(f.alpha_pow(4), 3);
        assert_eq!(f.mul(2, 2), 4); // α·α = α²
        assert_eq!(f.mul(8, 2), 3); // α³·α = α⁴ = α+1
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for m in [3u32, 4, 8, 10] {
            let f = Gf2m::new(m).unwrap();
            for a in 1..f.size() as u16 {
                let inv = f.inv(a).unwrap();
                assert_eq!(f.mul(a, inv), 1, "m={m} a={a}");
            }
            assert_eq!(f.inv(0), None);
        }
    }

    #[test]
    fn mul_commutative_associative_gf256() {
        let f = Gf2m::new(8).unwrap();
        let elems = [0u16, 1, 2, 3, 0x53, 0xca, 0xff];
        for &a in &elems {
            for &b in &elems {
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for &c in &elems {
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity_gf256() {
        let f = Gf2m::new(8).unwrap();
        for a in [3u16, 0x57, 0xfe] {
            for b in [1u16, 0x13, 0x80] {
                for c in [0u16, 5, 0xaa] {
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_laws() {
        let f = Gf2m::new(6).unwrap();
        let a = 0x2a;
        assert_eq!(f.pow(a, 0), 1);
        assert_eq!(f.pow(a, 1), a);
        assert_eq!(f.pow(a, 2), f.mul(a, a));
        // a^order = 1, a^-1 = inverse.
        assert_eq!(f.pow(a, f.order() as i64), 1);
        assert_eq!(f.pow(a, -1), f.inv(a).unwrap());
        // 0^e
        assert_eq!(f.pow(0, 5), 0);
        assert_eq!(f.pow(0, 0), 1);
    }

    #[test]
    fn alpha_generates_whole_group() {
        let f = Gf2m::new(5).unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in 0..f.order() as i64 {
            seen.insert(f.alpha_pow(e));
        }
        assert_eq!(seen.len(), f.order() as usize);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn log_antilog_roundtrip() {
        let f = Gf2m::new(8).unwrap();
        for a in 1..256u16 {
            assert_eq!(f.alpha_pow(f.log(a).unwrap() as i64), a);
        }
        assert_eq!(f.log(0), None);
    }
}
