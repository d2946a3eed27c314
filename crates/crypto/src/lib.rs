//! Cryptographic primitives for the `fuzzy-id` workspace, implemented from
//! scratch (no external crypto crates).
//!
//! The ICDCS 2017 paper's implementation (Table II) uses **SHA-256** as the
//! "random extractor" and **DSA** as the signature scheme; the robust secure
//! sketch needs a collision-resistant hash. This crate provides all of that:
//!
//! * [`Sha256`] — the FIPS 180-4 hash function, the one hash every
//!   primitive here and every tag in `fe-core` uses.
//! * [`Hmac`] / [`Hkdf`] — RFC 2104 MAC and RFC 5869 key derivation,
//!   both over SHA-256.
//! * [`HmacDrbg`] — deterministic random bit generator in the style of NIST
//!   SP 800-90A; implements [`rand::RngCore`] so it can drive `fe-bigint`
//!   prime generation and protocol nonces reproducibly.
//! * [`dsa`] — FIPS 186-4-style DSA over from-scratch bignums with
//!   deterministic (RFC-6979-style) per-message nonces.
//! * [`extractor`] — the paper's HMAC-SHA-256 strong randomness extractor.
//!
//! # Example: hash and MAC
//!
//! ```rust
//! use fe_crypto::{Hmac, Sha256};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(fe_crypto::hex_encode(&digest[..4]), "ba7816bf");
//!
//! let tag = Hmac::mac(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
pub mod drbg;
pub mod dsa;
pub mod extractor;
mod hkdf;
mod hmac;
mod sha256;

pub use drbg::HmacDrbg;
pub use hkdf::Hkdf;
pub use hmac::Hmac;
pub use sha256::Sha256;

/// Signature scheme abstraction, so protocols can be generic over the
/// signer ([`dsa::Dsa`] is the one the paper uses).
pub mod sig {
    /// A detached signature scheme: key generation from seed material,
    /// signing and verification over byte messages.
    ///
    /// In the paper's enrollment protocol (Fig. 1), the fuzzy-extractor
    /// output `R` seeds `KeyGen`; reproduction of `R` during identification
    /// must yield the *same* key pair, so key generation is deterministic in
    /// the seed.
    pub trait SignatureScheme {
        /// Private signing key.
        type SigningKey;
        /// Public verification key.
        type VerifyingKey: Clone;
        /// Signature value.
        type Signature: Clone;

        /// Derives a deterministic key pair from secret seed bytes (the
        /// fuzzy-extractor output `R` in the paper's enrollment protocol).
        fn keypair_from_seed(&self, seed: &[u8]) -> (Self::SigningKey, Self::VerifyingKey);

        /// Signs a message.
        fn sign(&self, key: &Self::SigningKey, msg: &[u8]) -> Self::Signature;

        /// Verifies a signature; `true` means valid.
        fn verify(&self, key: &Self::VerifyingKey, msg: &[u8], sig: &Self::Signature) -> bool;
    }
}

/// Encodes bytes as lowercase hex (test/debug helper used across the
/// workspace).
pub fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Decodes a lowercase/uppercase hex string; `None` on bad input.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes = [0x00u8, 0xff, 0x12, 0xab];
        assert_eq!(hex_encode(&bytes), "00ff12ab");
        assert_eq!(hex_decode("00ff12ab"), Some(bytes.to_vec()));
    }

    #[test]
    fn hex_decode_rejects_bad_input() {
        assert_eq!(hex_decode("abc"), None); // odd length
        assert_eq!(hex_decode("zz"), None); // bad digit
    }
}
