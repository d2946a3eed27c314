//! HKDF (RFC 5869): extract-and-expand key derivation.

use crate::{Hmac, Sha256};

/// HKDF over HMAC-SHA-256.
///
/// Used by the identification protocol examples to derive application keys
/// from the fuzzy-extractor output, and by [`crate::extractor::HmacExtractor`]
/// to stretch extractor output to arbitrary lengths.
///
/// ```rust
/// use fe_crypto::Hkdf;
///
/// let okm = Hkdf::derive(b"input key material", b"salt", b"ctx", 42);
/// assert_eq!(okm.len(), 42);
/// ```
#[derive(Debug)]
pub struct Hkdf;

impl Hkdf {
    /// HKDF-Extract: computes a pseudorandom key from input key material.
    pub fn extract(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
        Hmac::mac(salt, ikm)
    }

    /// HKDF-Expand: stretches a pseudorandom key to `len` output bytes.
    ///
    /// # Panics
    /// Panics if `len > 255 * Sha256::OUTPUT_LEN` (RFC 5869 limit).
    pub fn expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        assert!(
            len <= 255 * Sha256::OUTPUT_LEN,
            "HKDF output limited to 255 blocks"
        );
        let mut okm = Vec::with_capacity(len);
        let mut t: Vec<u8> = Vec::new();
        let mut counter = 1u8;
        while okm.len() < len {
            let mut h = Hmac::new(prk);
            h.update(&t);
            h.update(info);
            h.update(&[counter]);
            t = h.finalize();
            let take = (len - okm.len()).min(t.len());
            okm.extend_from_slice(&t[..take]);
            counter += 1;
        }
        okm
    }

    /// Extract-then-expand in one call.
    pub fn derive(ikm: &[u8], salt: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        let prk = Self::extract(salt, ikm);
        Self::expand(&prk, info, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_decode, hex_encode};

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt = hex_decode("000102030405060708090a0b0c").unwrap();
        let info = hex_decode("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = Hkdf::extract(&salt, &ikm);
        assert_eq!(
            hex_encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = Hkdf::expand(&prk, &info, 42);
        assert_eq!(
            hex_encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0bu8; 22];
        let okm = Hkdf::derive(&ikm, &[], &[], 42);
        assert_eq!(
            hex_encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_multiple_blocks() {
        let prk = Hkdf::extract(b"salt", b"ikm");
        let okm = Hkdf::expand(&prk, b"info", 100);
        assert_eq!(okm.len(), 100);
        // Prefix property: shorter outputs are prefixes of longer ones.
        let short = Hkdf::expand(&prk, b"info", 32);
        assert_eq!(&okm[..32], &short[..]);
    }

    #[test]
    #[should_panic(expected = "255 blocks")]
    fn expand_too_long_panics() {
        Hkdf::expand(&[0u8; 32], b"", 255 * 32 + 1);
    }
}
