//! HMAC (RFC 2104), generic over any [`Digest`].

use crate::digest::Digest;
use std::marker::PhantomData;

/// Keyed-hash message authentication code.
///
/// ```rust
/// use fe_crypto::{Hmac, Sha256};
///
/// let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     fe_crypto::hex_encode(&tag),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    opad_key: Vec<u8>,
    _marker: PhantomData<D>,
}

impl<D: Digest> Hmac<D> {
    /// Creates a MAC instance for the given key.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = vec![0u8; D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let hashed = D::digest(key);
            key_block[..hashed.len()].copy_from_slice(&hashed);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let ipad_key: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
        let opad_key: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();

        let mut inner = D::new();
        inner.update(&ipad_key);
        Hmac {
            inner,
            opad_key,
            _marker: PhantomData,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the authentication tag
    /// (`D::OUTPUT_LEN` bytes).
    pub fn finalize(self) -> Vec<u8> {
        let inner_hash = self.inner.finalize();
        let mut outer = D::new();
        outer.update(&self.opad_key);
        outer.update(&inner_hash);
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// One-shot MAC over multiple message parts (avoids concatenation
    /// ambiguity at call sites that already frame their data).
    pub fn mac_parts(key: &[u8], parts: &[&[u8]]) -> Vec<u8> {
        let mut h = Self::new(key);
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_encode, Sha256};

    // RFC 4231 test vectors.

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(
                b"Jefe",
                b"what do ya want for nothing?"
            )),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_key_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn key_longer_than_block_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex_encode(&Hmac::<Sha256>::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let data = b"a message split into several pieces";
        let mut h = Hmac::<Sha256>::new(key);
        h.update(&data[..5]);
        h.update(&data[5..20]);
        h.update(&data[20..]);
        assert_eq!(h.finalize(), Hmac::<Sha256>::mac(key, data));
    }

    #[test]
    fn mac_parts_is_concatenation() {
        let key = b"k";
        let parts: [&[u8]; 3] = [b"a", b"bc", b"def"];
        assert_eq!(
            Hmac::<Sha256>::mac_parts(key, &parts),
            Hmac::<Sha256>::mac(key, b"abcdef")
        );
    }

    #[test]
    fn different_keys_different_tags() {
        let t1 = Hmac::<Sha256>::mac(b"key1", b"msg");
        let t2 = Hmac::<Sha256>::mac(b"key2", b"msg");
        assert_ne!(t1, t2);
    }
}
