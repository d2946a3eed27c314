//! The Juels–Sudan fuzzy vault over the set-difference metric.
//!
//! The secret is a polynomial `p` of degree `< k` over GF(2^m). Locking
//! evaluates `p` on the user's feature set and buries the genuine points
//! among random chaff. Unlocking with an overlapping feature set selects
//! candidate points and reconstructs `p` with Berlekamp–Welch decoding.

use crate::SketchError;
use fe_ecc::{berlekamp_welch, Gf2m, Poly};
use rand::Rng;
use rand::RngCore;
use std::collections::BTreeSet;

/// A locked vault: the public point set (genuine + chaff, sorted by `x`
/// so nothing distinguishes them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vault {
    points: Vec<(u16, u16)>,
}

impl Vault {
    /// The public points.
    pub fn points(&self) -> &[(u16, u16)] {
        &self.points
    }

    /// Total number of points (genuine + chaff).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the vault has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The fuzzy vault scheme.
///
/// ```rust
/// use fe_core::baselines::FuzzyVault;
/// use rand::SeedableRng;
/// use std::collections::BTreeSet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(6);
/// let vault_scheme = FuzzyVault::new(8, 4, 200)?; // GF(256), degree <4, 200 chaff
/// let features: BTreeSet<u16> = (1..=20).collect();
/// let secret = vec![11, 22, 33, 44];
/// let vault = vault_scheme.lock(&features, &secret, &mut rng)?;
///
/// // A reading sharing enough features unlocks the same secret.
/// let reading: BTreeSet<u16> = (3..=22).collect(); // overlap 18 of 20
/// assert_eq!(vault_scheme.unlock(&vault, &reading)?, secret);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyVault {
    field: Gf2m,
    poly_len: usize,
    chaff: usize,
}

impl FuzzyVault {
    /// Creates a vault scheme over GF(2^m) with secrets of `poly_len`
    /// coefficients and `chaff` chaff points.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] if the field is invalid or
    /// `poly_len == 0`.
    pub fn new(m: u32, poly_len: usize, chaff: usize) -> Result<FuzzyVault, SketchError> {
        let field = Gf2m::new(m).map_err(|_| SketchError::BadParameters)?;
        if poly_len == 0 || chaff.saturating_add(poly_len) >= field.size() {
            return Err(SketchError::BadParameters);
        }
        Ok(FuzzyVault {
            field,
            poly_len,
            chaff,
        })
    }

    /// Locks `secret` under the feature set.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] when the secret length is wrong, a
    /// feature/secret symbol exceeds the field, or there is no room for
    /// the requested chaff.
    pub fn lock<R: RngCore + ?Sized>(
        &self,
        features: &BTreeSet<u16>,
        secret: &[u16],
        rng: &mut R,
    ) -> Result<Vault, SketchError> {
        if secret.len() != self.poly_len {
            return Err(SketchError::BadParameters);
        }
        let size = self.field.size() as u16;
        if secret.iter().any(|&c| c >= size) || features.iter().any(|&f| f >= size) {
            return Err(SketchError::BadParameters);
        }
        if features.len() < self.poly_len {
            return Err(SketchError::BadParameters); // can't even interpolate
        }
        if features.len() + self.chaff > self.field.size() {
            return Err(SketchError::BadParameters);
        }

        let p = Poly::from_coeffs(secret.to_vec());
        let mut points: Vec<(u16, u16)> = features
            .iter()
            .map(|&x| (x, p.eval(x, &self.field)))
            .collect();

        // Chaff: x values unused by the features, y values off the
        // polynomial.
        let mut used: BTreeSet<u16> = features.clone();
        while points.len() < features.len() + self.chaff {
            let x = rng.gen_range(0..size);
            if used.contains(&x) {
                continue;
            }
            used.insert(x);
            let honest = p.eval(x, &self.field);
            let y = loop {
                let cand = rng.gen_range(0..size);
                if cand != honest {
                    break cand;
                }
            };
            points.push((x, y));
        }
        points.sort_unstable();
        Ok(Vault { points })
    }

    /// Unlocks the vault with a candidate feature set.
    ///
    /// # Errors
    /// [`SketchError::DecodeFailure`] when the overlap is insufficient to
    /// reconstruct the secret.
    pub fn unlock(&self, vault: &Vault, features: &BTreeSet<u16>) -> Result<Vec<u16>, SketchError> {
        let candidates: Vec<(u16, u16)> = vault
            .points
            .iter()
            .copied()
            .filter(|(x, _)| features.contains(x))
            .collect();
        if candidates.len() < self.poly_len {
            return Err(SketchError::DecodeFailure);
        }
        let p = berlekamp_welch(&self.field, &candidates, self.poly_len)
            .map_err(|_| SketchError::DecodeFailure)?;
        let mut coeffs = p.coeffs().to_vec();
        coeffs.resize(self.poly_len, 0);
        Ok(coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(555)
    }

    fn scheme() -> FuzzyVault {
        FuzzyVault::new(8, 4, 180).unwrap()
    }

    fn features(range: std::ops::RangeInclusive<u16>) -> BTreeSet<u16> {
        range.collect()
    }

    #[test]
    fn lock_unlock_same_features() {
        let mut r = rng();
        let v = scheme();
        let f = features(10..=29);
        let secret = vec![1, 2, 3, 4];
        let vault = v.lock(&f, &secret, &mut r).unwrap();
        assert_eq!(vault.len(), 200); // 20 genuine + 180 chaff
        assert_eq!(v.unlock(&vault, &f).unwrap(), secret);
    }

    #[test]
    fn unlock_with_partial_overlap() {
        let mut r = rng();
        let v = scheme();
        let f = features(10..=29); // 20 features
        let secret = vec![9, 8, 7, 6];
        let vault = v.lock(&f, &secret, &mut r).unwrap();
        // Reading shares 16 of 20 features, brings 4 new ones. The new
        // ones either miss the vault or hit chaff (errors for BW).
        let reading = features(14..=33);
        assert_eq!(v.unlock(&vault, &reading).unwrap(), secret);
    }

    #[test]
    fn impostor_set_fails() {
        let mut r = rng();
        let v = scheme();
        let f = features(10..=29);
        let secret = vec![5, 5, 5, 5];
        let vault = v.lock(&f, &secret, &mut r).unwrap();
        // Disjoint feature set: only chaff can match.
        let impostor = features(100..=119);
        match v.unlock(&vault, &impostor) {
            Err(SketchError::DecodeFailure) => {}
            Ok(got) => assert_ne!(got, secret, "impostor recovered the secret"),
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn secret_roundtrip_with_high_degree() {
        let mut r = rng();
        let v = FuzzyVault::new(8, 8, 100).unwrap();
        let f = features(1..=30);
        let secret: Vec<u16> = (100..108).collect();
        let vault = v.lock(&f, &secret, &mut r).unwrap();
        assert_eq!(v.unlock(&vault, &f).unwrap(), secret);
    }

    #[test]
    fn chaff_points_not_on_polynomial() {
        let mut r = rng();
        let v = scheme();
        let f = features(10..=29);
        let secret = vec![3, 1, 4, 1];
        let vault = v.lock(&f, &secret, &mut r).unwrap();
        let field = Gf2m::new(8).unwrap();
        let p = Poly::from_coeffs(secret.clone());
        let on_poly = vault
            .points()
            .iter()
            .filter(|&&(x, y)| p.eval(x, &field) == y)
            .count();
        // Exactly the genuine points (chaff y explicitly avoids p(x)).
        assert_eq!(on_poly, 20);
    }

    #[test]
    fn parameter_validation() {
        assert!(FuzzyVault::new(1, 4, 10).is_err()); // bad field
        assert!(FuzzyVault::new(8, 0, 10).is_err()); // empty secret
        assert!(FuzzyVault::new(8, 4, 300).is_err()); // chaff exceeds field
        let v = scheme();
        let mut r = rng();
        // Secret length mismatch.
        assert!(v.lock(&features(1..=20), &[1, 2, 3], &mut r).is_err());
        // Too few features to interpolate.
        assert!(v.lock(&features(1..=2), &[1, 2, 3, 4], &mut r).is_err());
        // Symbol out of field range.
        let mut big = features(1..=20);
        big.insert(300);
        assert!(v.lock(&big, &[1, 2, 3, 4], &mut r).is_err());
    }

    #[test]
    fn points_sorted_and_distinct() {
        let mut r = rng();
        let v = scheme();
        let vault = v.lock(&features(50..=69), &[1, 2, 3, 4], &mut r).unwrap();
        let xs: Vec<u16> = vault.points().iter().map(|p| p.0).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(xs, sorted, "points must be sorted with distinct x");
    }
}
