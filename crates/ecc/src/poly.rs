//! Polynomials over GF(2^m).

use crate::Gf2m;

/// A polynomial with coefficients in GF(2^m), stored little-endian
/// (`coeffs[i]` is the coefficient of `x^i`), normalized so the leading
/// coefficient is non-zero (the zero polynomial has no coefficients).
///
/// Operations take the field explicitly, keeping the type itself plain
/// data.
///
/// ```rust
/// use fe_ecc::{Gf2m, Poly};
///
/// # fn main() -> Result<(), fe_ecc::CodeError> {
/// let f = Gf2m::new(4)?;
/// let p = Poly::from_coeffs(vec![1, 1]); // x + 1
/// let q = p.mul(&p, &f);                 // (x+1)^2 = x^2 + 1 in char 2
/// assert_eq!(q.coeffs(), &[1, 0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u16>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Poly {
        Poly { coeffs: vec![1] }
    }

    /// Builds from little-endian coefficients, trimming leading zeros.
    pub fn from_coeffs(mut coeffs: Vec<u16>) -> Poly {
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The monomial `c·x^d`.
    pub fn monomial(c: u16, d: usize) -> Poly {
        if c == 0 {
            return Poly::zero();
        }
        let mut coeffs = vec![0u16; d + 1];
        coeffs[d] = c;
        Poly { coeffs }
    }

    /// Little-endian coefficients (no trailing zeros).
    pub fn coeffs(&self) -> &[u16] {
        &self.coeffs
    }

    /// Degree; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of `x^i` (zero beyond the stored degree).
    pub fn coeff(&self, i: usize) -> u16 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    /// Polynomial addition (XOR of coefficients in char 2).
    pub fn add(&self, other: &Poly, _f: &Gf2m) -> Poly {
        let len = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0u16; len];
        for (i, c) in out.iter_mut().enumerate() {
            *c = self.coeff(i) ^ other.coeff(i);
        }
        Poly::from_coeffs(out)
    }

    /// Polynomial multiplication.
    pub fn mul(&self, other: &Poly, f: &Gf2m) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0u16; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] ^= f.mul(a, b);
            }
        }
        Poly::from_coeffs(out)
    }

    /// Multiplies every coefficient by the scalar `c`.
    pub fn scale(&self, c: u16, f: &Gf2m) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&a| f.mul(a, c)).collect())
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: u16, f: &Gf2m) -> u16 {
        let mut acc = 0u16;
        for &c in self.coeffs.iter().rev() {
            acc = f.mul(acc, x) ^ c;
        }
        acc
    }

    /// Division with remainder: `self = q·divisor + r`, `deg r < deg divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Poly, f: &Gf2m) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.degree().unwrap();
        let lead_inv = f.inv(divisor.coeffs[dd]).expect("leading coeff non-zero");
        let mut rem = self.coeffs.clone();
        if rem.len() <= dd {
            return (Poly::zero(), self.clone());
        }
        let mut quot = vec![0u16; rem.len() - dd];
        for i in (dd..rem.len()).rev() {
            let c = rem[i];
            if c == 0 {
                continue;
            }
            let q = f.mul(c, lead_inv);
            quot[i - dd] = q;
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[i - dd + j] ^= f.mul(q, dc);
            }
        }
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }

    /// Lagrange interpolation through distinct points `(x_i, y_i)`.
    ///
    /// Returns the unique polynomial of degree `< points.len()` through all
    /// points, or `None` if two `x` values coincide.
    pub fn interpolate(points: &[(u16, u16)], f: &Gf2m) -> Option<Poly> {
        let mut acc = Poly::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            // Basis polynomial: Π_{j≠i} (x - x_j) / (x_i - x_j)
            let mut basis = Poly::one();
            let mut denom = 1u16;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                if xi == xj {
                    return None;
                }
                basis = basis.mul(&Poly::from_coeffs(vec![xj, 1]), f); // (x + xj) = (x - xj)
                denom = f.mul(denom, xi ^ xj);
            }
            let scale = f.div(yi, denom)?;
            acc = acc.add(&basis.scale(scale, f), f);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Gf2m {
        Gf2m::new(8).unwrap()
    }

    #[test]
    fn construction_trims() {
        let p = Poly::from_coeffs(vec![1, 2, 0, 0]);
        assert_eq!(p.coeffs(), &[1, 2]);
        assert_eq!(p.degree(), Some(1));
        assert!(Poly::from_coeffs(vec![0, 0]).is_zero());
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn add_is_xor() {
        let f = field();
        let p = Poly::from_coeffs(vec![1, 2, 3]);
        let q = Poly::from_coeffs(vec![1, 2, 3]);
        assert!(p.add(&q, &f).is_zero()); // char 2: p + p = 0
    }

    #[test]
    fn mul_by_zero_and_one() {
        let f = field();
        let p = Poly::from_coeffs(vec![5, 7, 9]);
        assert!(p.mul(&Poly::zero(), &f).is_zero());
        assert_eq!(p.mul(&Poly::one(), &f), p);
    }

    #[test]
    fn freshman_dream() {
        // (x + a)^2 = x^2 + a^2 in characteristic 2.
        let f = field();
        let a = 0x35;
        let p = Poly::from_coeffs(vec![a, 1]);
        let sq = p.mul(&p, &f);
        assert_eq!(sq.coeffs(), &[f.mul(a, a), 0, 1]);
    }

    #[test]
    fn eval_horner() {
        let f = field();
        // p(x) = 3 + 2x + x^2 at x=1: 3^2^1 = 3 XOR 2 XOR 1 = 0.
        let p = Poly::from_coeffs(vec![3, 2, 1]);
        assert_eq!(p.eval(1, &f), 0);
        assert_eq!(p.eval(0, &f), 3);
    }

    #[test]
    fn div_rem_reconstructs() {
        let f = field();
        let a = Poly::from_coeffs(vec![7, 0, 3, 1, 9]);
        let b = Poly::from_coeffs(vec![2, 1]);
        let (q, r) = a.div_rem(&b, &f);
        let back = q.mul(&b, &f).add(&r, &f);
        assert_eq!(back, a);
        assert!(r.degree().is_none_or(|d| d < 1));
    }

    #[test]
    fn div_by_higher_degree() {
        let f = field();
        let a = Poly::from_coeffs(vec![1, 1]);
        let b = Poly::from_coeffs(vec![1, 1, 1]);
        let (q, r) = a.div_rem(&b, &f);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn roots_divide() {
        let f = field();
        // Build (x - r1)(x - r2) and check both evaluate to zero.
        let r1 = 0x11;
        let r2 = 0xab;
        let p = Poly::from_coeffs(vec![r1, 1]).mul(&Poly::from_coeffs(vec![r2, 1]), &f);
        assert_eq!(p.eval(r1, &f), 0);
        assert_eq!(p.eval(r2, &f), 0);
        assert_ne!(p.eval(r1 ^ 1, &f), 0);
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let f = field();
        let secret = Poly::from_coeffs(vec![42, 17, 200]);
        let points: Vec<(u16, u16)> = (1..=5u16).map(|x| (x, secret.eval(x, &f))).collect();
        let rec = Poly::interpolate(&points, &f).unwrap();
        assert_eq!(rec, secret);
    }

    #[test]
    fn interpolation_rejects_duplicate_x() {
        let f = field();
        assert_eq!(Poly::interpolate(&[(1, 2), (1, 3)], &f), None);
    }

    #[test]
    fn monomial() {
        let p = Poly::monomial(5, 3);
        assert_eq!(p.coeffs(), &[0, 0, 0, 5]);
        assert!(Poly::monomial(0, 3).is_zero());
    }
}
