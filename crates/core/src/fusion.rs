//! Multimodal fusion: one key from two biometric modalities.
//!
//! The paper's security discussion (Sec. VI-B) notes that false accepts
//! "can be relieved by using multiple types of biometrics, such as
//! fingerprint and iris". This module implements AND-fusion: a
//! Chebyshev-metric modality (feature vectors, the paper's construction)
//! and a Hamming-metric modality (iris-style bit strings, the code-offset
//! baseline) each run their own fuzzy extractor, and the final key is
//! derived from *both* sub-keys — an attacker must defeat both
//! modalities.

use crate::baselines::{BinaryFuzzyExtractor, BinaryHelperData};
use crate::fuzzy::HelperData;
use crate::key::ExtractedKey;
use crate::{FuzzyExtractor, SketchError};
use fe_crypto::Hkdf;
use fe_metrics::BitVec;
use rand::RngCore;

/// Helper data for a fused enrollment: one blob per modality.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedHelperData {
    /// Helper data of the Chebyshev (feature-vector) modality.
    pub vector: HelperData,
    /// Helper data of the Hamming (bit-string) modality.
    pub binary: BinaryHelperData,
}

/// AND-fusion of the paper's Chebyshev extractor with the code-offset
/// (Hamming) extractor.
///
/// ```rust
/// use fe_core::fusion::FusedExtractor;
/// use fe_core::{ChebyshevSketch, FuzzyExtractor};
/// use fe_core::baselines::BinaryFuzzyExtractor;
/// use fe_ecc::Bch;
/// use fe_metrics::BitVec;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let fused = FusedExtractor::new(
///     FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32),
///     BinaryFuzzyExtractor::new(Bch::new(6, 3)?, 32),
///     32,
/// );
/// let finger = fused.vector_extractor().sketcher().line().random_vector(64, &mut rng);
/// let iris = BitVec::from_fn(63, |i| i % 3 == 0);
/// let (key, helper) = fused.generate(&finger, &iris, &mut rng)?;
///
/// // Both modalities within tolerance → same key.
/// let finger2: Vec<i64> = finger.iter().map(|x| x + 50).collect();
/// let mut iris2 = iris.clone();
/// iris2.flip(7);
/// assert_eq!(fused.reproduce(&finger2, &iris2, &helper)?, key);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FusedExtractor {
    vector: FuzzyExtractor,
    binary: BinaryFuzzyExtractor,
    key_len: usize,
}

impl FusedExtractor {
    /// Combines the two modality extractors; the fused key has
    /// `key_len` bytes.
    pub fn new(vector: FuzzyExtractor, binary: BinaryFuzzyExtractor, key_len: usize) -> Self {
        FusedExtractor {
            vector,
            binary,
            key_len,
        }
    }

    /// The Chebyshev-modality extractor.
    pub fn vector_extractor(&self) -> &FuzzyExtractor {
        &self.vector
    }

    /// The Hamming-modality extractor.
    pub fn binary_extractor(&self) -> &BinaryFuzzyExtractor {
        &self.binary
    }

    fn fuse(&self, k1: &ExtractedKey, k2: &ExtractedKey) -> ExtractedKey {
        let mut ikm = Vec::with_capacity(k1.len() + k2.len());
        ikm.extend_from_slice(k1.as_bytes());
        ikm.extend_from_slice(k2.as_bytes());
        ExtractedKey::new(Hkdf::derive(
            &ikm,
            b"fe-fusion-v1",
            b"and-fusion",
            self.key_len,
        ))
    }

    /// Enrolls both modalities and derives the fused key.
    ///
    /// # Errors
    /// Propagates either modality's sketch errors.
    pub fn generate<R: RngCore + ?Sized>(
        &self,
        features: &[i64],
        code: &BitVec,
        rng: &mut R,
    ) -> Result<(ExtractedKey, FusedHelperData), SketchError> {
        let (k1, vector) = self.vector.generate(features, rng)?;
        let (k2, binary) = self.binary.generate(code, rng)?;
        Ok((self.fuse(&k1, &k2), FusedHelperData { vector, binary }))
    }

    /// Reproduces the fused key: **both** modalities must be within their
    /// tolerance.
    ///
    /// # Errors
    /// Fails if either modality fails to reproduce.
    pub fn reproduce(
        &self,
        features: &[i64],
        code: &BitVec,
        helper: &FusedHelperData,
    ) -> Result<ExtractedKey, SketchError> {
        let k1 = self.vector.reproduce(features, &helper.vector)?;
        let k2 = self.binary.reproduce(code, &helper.binary)?;
        Ok(self.fuse(&k1, &k2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChebyshevSketch, FuzzyExtractor};
    use fe_ecc::Bch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fused() -> FusedExtractor {
        FusedExtractor::new(
            FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32),
            BinaryFuzzyExtractor::new(Bch::new(6, 3).unwrap(), 32),
            32,
        )
    }

    fn enroll(
        f: &FusedExtractor,
        rng: &mut StdRng,
    ) -> (Vec<i64>, BitVec, ExtractedKey, FusedHelperData) {
        let features = f
            .vector_extractor()
            .sketcher()
            .line()
            .random_vector(32, rng);
        let code = BitVec::from_fn(63, |_| rng.gen_bool(0.5));
        let (key, helper) = f.generate(&features, &code, rng).unwrap();
        (features, code, key, helper)
    }

    #[test]
    fn both_modalities_good_reproduces() {
        let f = fused();
        let mut rng = StdRng::seed_from_u64(60);
        let (features, code, key, helper) = enroll(&f, &mut rng);
        let features2: Vec<i64> = features.iter().map(|x| x - 75).collect();
        let mut code2 = code.clone();
        code2.flip(10);
        code2.flip(40);
        assert_eq!(f.reproduce(&features2, &code2, &helper).unwrap(), key);
    }

    #[test]
    fn wrong_vector_modality_fails() {
        let f = fused();
        let mut rng = StdRng::seed_from_u64(61);
        let (_, code, _, helper) = enroll(&f, &mut rng);
        let wrong = f
            .vector_extractor()
            .sketcher()
            .line()
            .random_vector(32, &mut rng);
        assert!(f.reproduce(&wrong, &code, &helper).is_err());
    }

    #[test]
    fn wrong_binary_modality_fails() {
        let f = fused();
        let mut rng = StdRng::seed_from_u64(62);
        let (features, _, _, helper) = enroll(&f, &mut rng);
        let wrong = BitVec::from_fn(63, |_| rng.gen_bool(0.5));
        assert!(f.reproduce(&features, &wrong, &helper).is_err());
    }

    #[test]
    fn fused_key_differs_from_sub_keys() {
        let f = fused();
        let mut rng = StdRng::seed_from_u64(63);
        let (features, code, key, helper) = enroll(&f, &mut rng);
        let k1 = f.vector.reproduce(&features, &helper.vector).unwrap();
        let k2 = f.binary.reproduce(&code, &helper.binary).unwrap();
        assert_ne!(key, k1);
        assert_ne!(key, k2);
    }

    #[test]
    fn key_length_honoured() {
        let mut rng = StdRng::seed_from_u64(64);
        let f = FusedExtractor::new(
            FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32),
            BinaryFuzzyExtractor::new(Bch::new(6, 3).unwrap(), 32),
            48,
        );
        let features = f
            .vector_extractor()
            .sketcher()
            .line()
            .random_vector(8, &mut rng);
        let code = BitVec::from_fn(63, |_| rng.gen_bool(0.5));
        let (key, _) = f.generate(&features, &code, &mut rng).unwrap();
        assert_eq!(key.len(), 48);
    }
}
