//! The [`Digest`] trait abstracting over hash functions.

/// A cryptographic hash function with incremental input.
///
/// Implemented by [`crate::Sha256`]; consumed
/// generically by [`crate::Hmac`], [`crate::Hkdf`] and the robust-sketch
/// construction in `fe-core`.
///
/// ```rust
/// use fe_crypto::{Digest, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
pub trait Digest: Clone {
    /// Digest output length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block length in bytes (needed by HMAC).
    const BLOCK_LEN: usize;

    /// Creates a fresh hasher state.
    fn new() -> Self;

    /// Absorbs input bytes.
    fn update(&mut self, data: &[u8]);

    /// Consumes the state and returns the digest
    /// (`OUTPUT_LEN` bytes).
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience: hash `data` in a single call.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}
