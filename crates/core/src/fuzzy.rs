//! The fuzzy extractor `Gen`/`Rep` (Definition 2 + the generic
//! construction of Sec. II-A/IV-C): secure sketch + strong extractor,
//! instantiated as the paper's Table II stack.

use crate::chebyshev::ChebyshevSketch;
use crate::encode::encode_i64_vector;
use crate::key::ExtractedKey;
use crate::robust::{RobustData, RobustSketch};
use crate::sketch::SecureSketch;
use crate::SketchError;
use fe_crypto::extractor::{HmacExtractor, StrongExtractor};
use rand::RngCore;

/// Public helper data `P = (s, r)`: the robust sketch plus the extractor
/// seed (Sec. IV-C `Gen`).
///
/// Publishing `P` leaks at most the sketch's entropy loss (Theorem 3);
/// the extracted key stays statistically close to uniform given `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct HelperData {
    /// The robust sketch `s`.
    pub sketch: RobustData,
    /// The strong-extractor seed `r`.
    pub seed: Vec<u8>,
}

/// The paper's fuzzy extractor: the robust Chebyshev sketch (SHA-256
/// tag) and the HMAC-SHA-256 extractor.
///
/// `Gen(x)` returns `(R, P)`; `Rep(y, P)` reproduces `R` whenever `y` is
/// within the sketch's acceptance distance of `x`.
#[derive(Debug, Clone)]
pub struct FuzzyExtractor {
    sketcher: RobustSketch,
    extractor: HmacExtractor,
}

impl FuzzyExtractor {
    /// The paper's instantiation over `sketch`, extracting `key_len`
    /// bytes.
    pub fn with_defaults(sketch: ChebyshevSketch, key_len: usize) -> Self {
        FuzzyExtractor {
            sketcher: RobustSketch::new(sketch),
            extractor: HmacExtractor::new(key_len),
        }
    }

    /// Borrows the robust sketch scheme.
    pub fn sketch_scheme(&self) -> &RobustSketch {
        &self.sketcher
    }

    /// The Chebyshev sketcher (for line/threshold introspection).
    pub fn sketcher(&self) -> &ChebyshevSketch {
        self.sketcher.inner()
    }

    /// `Gen(x) → (R, P)`: sketches `x`, draws a fresh extractor seed, and
    /// extracts the key from the canonical `w` that `Rep` will recover —
    /// recovered, tagged and encoded once, inside the robust sketch.
    ///
    /// # Errors
    /// Propagates sketch errors ([`SketchError`]).
    pub fn generate<R: RngCore + ?Sized>(
        &self,
        input: &[i64],
        rng: &mut R,
    ) -> Result<(ExtractedKey, HelperData), SketchError> {
        let (sketch, canonical) = self.sketcher.sketch_encoded(input, rng)?;
        let mut seed = vec![0u8; self.extractor.seed_len(canonical.len())];
        rng.fill_bytes(&mut seed);
        let key = ExtractedKey::new(self.extractor.extract(&canonical, &seed));
        Ok((key, HelperData { sketch, seed }))
    }

    /// `Rep(y, P) → R`: recovers the enrolled value through the sketch and
    /// re-extracts the key.
    ///
    /// # Errors
    /// [`SketchError::OutOfRange`] / [`SketchError::TagMismatch`] when `y`
    /// is too far from the enrolled value or the helper data was tampered
    /// with; [`SketchError::BadParameters`] when the helper's seed is
    /// shorter than the extractor needs (see [`Self::extract_key`]).
    pub fn reproduce(
        &self,
        reading: &[i64],
        helper: &HelperData,
    ) -> Result<ExtractedKey, SketchError> {
        let recovered = self
            .sketcher
            .inner()
            .recover(reading, &helper.sketch.inner)?;
        self.reproduce_recovered(&recovered, helper)
    }

    /// The rest of `Rep` for a value `w` the caller recovered with the
    /// inner sketch itself (the normal approach's exhaustive `Rec`):
    /// checks the helper's tag over `w` and extracts the key from the
    /// same encoding of `w` the tag was checked on.
    ///
    /// # Errors
    /// [`SketchError::TagMismatch`] when the tag does not cover `w`;
    /// [`SketchError::BadParameters`] for a short seed, as
    /// [`Self::extract_key`].
    pub fn reproduce_recovered(
        &self,
        recovered: &[i64],
        helper: &HelperData,
    ) -> Result<ExtractedKey, SketchError> {
        let encoded = self.sketcher.encode_tagged(recovered, &helper.sketch)?;
        self.extract(&encoded, &helper.seed)
    }

    /// `Ext(w; r)`: the key of a recovered value `w` under the helper's
    /// extractor seed `r`.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] when `seed` is shorter than the
    /// extractor's `seed_len`: helper data arrives from storage or the
    /// network, so a short seed is refused rather than left to the
    /// extractor's panic.
    pub fn extract_key(&self, recovered: &[i64], seed: &[u8]) -> Result<ExtractedKey, SketchError> {
        self.extract(&encode_i64_vector(recovered), seed)
    }

    /// [`Self::extract_key`] on `w` already encoded.
    fn extract(&self, encoded: &[u8], seed: &[u8]) -> Result<ExtractedKey, SketchError> {
        if seed.len() < self.extractor.seed_len(encoded.len()) {
            return Err(SketchError::BadParameters);
        }
        Ok(ExtractedKey::new(self.extractor.extract(encoded, seed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn extractor() -> FuzzyExtractor {
        FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(4242)
    }

    #[test]
    fn generate_reproduce_roundtrip() {
        let fe = extractor();
        let mut r = rng();
        let x = fe.sketcher().line().random_vector(128, &mut r);
        let (key, helper) = fe.generate(&x, &mut r).unwrap();
        assert_eq!(key.len(), 32);
        let noisy: Vec<i64> = x.iter().map(|v| v + 100).collect();
        assert_eq!(fe.reproduce(&noisy, &helper).unwrap(), key);
    }

    #[test]
    fn far_reading_fails() {
        let fe = extractor();
        let mut r = rng();
        let x = fe.sketcher().line().random_vector(64, &mut r);
        let (_, helper) = fe.generate(&x, &mut r).unwrap();
        let impostor = fe.sketcher().line().random_vector(64, &mut r);
        assert!(fe.reproduce(&impostor, &helper).is_err());
    }

    #[test]
    fn different_seeds_different_keys() {
        // Gen is randomized: two enrollments of the same biometric give
        // different keys and helper data (reusability hygiene).
        let fe = extractor();
        let mut r = rng();
        let x = fe.sketcher().line().random_vector(32, &mut r);
        let (k1, h1) = fe.generate(&x, &mut r).unwrap();
        let (k2, h2) = fe.generate(&x, &mut r).unwrap();
        assert_ne!(k1, k2);
        assert_ne!(h1.seed, h2.seed);
    }

    #[test]
    fn helper_tampering_detected() {
        let fe = extractor();
        let mut r = rng();
        let x = fe.sketcher().line().random_vector(32, &mut r);
        let (_, mut helper) = fe.generate(&x, &mut r).unwrap();
        helper.sketch.inner[0] += 2;
        assert!(fe.reproduce(&x, &helper).is_err());
    }

    #[test]
    fn seed_tampering_changes_key() {
        // Flipping the extractor seed does not break Rec (the seed is not
        // hash-bound in the paper's P = (s, r)) but must change the key,
        // so signature verification downstream fails.
        let fe = extractor();
        let mut r = rng();
        let x = fe.sketcher().line().random_vector(32, &mut r);
        let (key, mut helper) = fe.generate(&x, &mut r).unwrap();
        helper.seed[0] ^= 1;
        let key2 = fe.reproduce(&x, &helper).unwrap();
        assert_ne!(key, key2);
    }

    #[test]
    fn key_length_configurable() {
        let mut r = rng();
        for len in [16usize, 32, 64] {
            let fe = FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), len);
            let x = fe.sketcher().line().random_vector(8, &mut r);
            let (key, _) = fe.generate(&x, &mut r).unwrap();
            assert_eq!(key.len(), len);
        }
    }

    #[test]
    fn deterministic_given_helper() {
        let fe = extractor();
        let mut r = rng();
        let x = fe.sketcher().line().random_vector(16, &mut r);
        let (key, helper) = fe.generate(&x, &mut r).unwrap();
        for _ in 0..5 {
            assert_eq!(fe.reproduce(&x, &helper).unwrap(), key);
        }
    }
}
