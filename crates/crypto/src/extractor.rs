//! Strong randomness extractors.
//!
//! The generic fuzzy-extractor construction (Dodis et al., reviewed in
//! Sec. II of the paper) needs a *strong extractor* `Ext(x; r)`: given a
//! public random seed `r` and a source `x` with enough min-entropy, the
//! output is statistically close to uniform even conditioned on `r`.
//!
//! [`HmacExtractor`] is HMAC-SHA-256 keyed by the seed. This is what the
//! paper's Table II lists ("Random Extractor: SHA256"); it is an extractor
//! under a random-oracle-style assumption on the compression function.

use crate::{Hkdf, Hmac};

/// A strong randomness extractor `Ext(x; r) -> R`.
///
/// Implementations must be deterministic: the same `(input, seed)` pair
/// always produces the same output, which is what makes fuzzy-extractor
/// reproduction possible.
pub trait StrongExtractor {
    /// Output length in bytes.
    fn output_len(&self) -> usize;

    /// Required seed length in bytes for a given input length.
    fn seed_len(&self, input_len: usize) -> usize;

    /// Extracts `output_len()` nearly-uniform bytes from `input` using the
    /// public `seed`.
    ///
    /// # Panics
    /// Implementations may panic if `seed.len() < self.seed_len(input.len())`.
    fn extract(&self, input: &[u8], seed: &[u8]) -> Vec<u8>;
}

/// HMAC-SHA-256-based extractor (the paper's choice).
///
/// `Ext(x; r) = HKDF-Expand(HMAC-SHA256(key = r, msg = x), "fe-ext", ℓ)`.
/// The HKDF expansion step lets callers request more than 32 bytes.
///
/// ```rust
/// use fe_crypto::extractor::{HmacExtractor, StrongExtractor};
///
/// let ext = HmacExtractor::new(32);
/// let seed = [7u8; 32];
/// let r1 = ext.extract(b"biometric encoding", &seed);
/// let r2 = ext.extract(b"biometric encoding", &seed);
/// assert_eq!(r1, r2);
/// assert_eq!(r1.len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmacExtractor {
    output_len: usize,
}

impl HmacExtractor {
    /// Creates an extractor producing `output_len` bytes.
    pub fn new(output_len: usize) -> Self {
        HmacExtractor { output_len }
    }
}

impl StrongExtractor for HmacExtractor {
    fn output_len(&self) -> usize {
        self.output_len
    }

    fn seed_len(&self, _input_len: usize) -> usize {
        32
    }

    fn extract(&self, input: &[u8], seed: &[u8]) -> Vec<u8> {
        assert!(seed.len() >= 32, "HmacExtractor requires a 32-byte seed");
        let prk = Hmac::mac(seed, input);
        Hkdf::expand(&prk, b"fe-ext", self.output_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmac_extractor_deterministic_and_seed_sensitive() {
        let ext = HmacExtractor::new(32);
        let seed1 = [1u8; 32];
        let seed2 = [2u8; 32];
        let a = ext.extract(b"input", &seed1);
        let b = ext.extract(b"input", &seed1);
        let c = ext.extract(b"input", &seed2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hmac_extractor_long_output() {
        let ext = HmacExtractor::new(100);
        let out = ext.extract(b"x", &[0u8; 32]);
        assert_eq!(out.len(), 100);
    }

    #[test]
    #[should_panic(expected = "32-byte seed")]
    fn hmac_extractor_short_seed_panics() {
        HmacExtractor::new(32).extract(b"x", &[0u8; 16]);
    }

    #[test]
    fn seed_len_formula() {
        assert_eq!(HmacExtractor::new(32).seed_len(100), 32);
    }
}
