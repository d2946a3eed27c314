//! HMAC-SHA-256 (RFC 2104).

use crate::Sha256;

/// Keyed-hash message authentication code over [`Sha256`].
///
/// ```rust
/// use fe_crypto::Hmac;
///
/// let tag = Hmac::mac(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     fe_crypto::hex_encode(&tag),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
#[derive(Clone)]
pub struct Hmac {
    inner: Sha256,
    opad_key: [u8; Sha256::BLOCK_LEN],
}

impl Hmac {
    /// Creates a MAC instance for the given key.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; Sha256::BLOCK_LEN];
        if key.len() > Sha256::BLOCK_LEN {
            key_block[..Sha256::OUTPUT_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        Hmac {
            inner,
            opad_key: key_block.map(|b| b ^ 0x5c),
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte authentication tag.
    pub fn finalize(self) -> Vec<u8> {
        let inner_hash = self.inner.finalize();
        let mut outer = Sha256::new();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;

    // RFC 4231 test vectors.

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex_encode(&Hmac::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex_encode(&Hmac::mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_key_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex_encode(&Hmac::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn key_longer_than_block_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex_encode(&Hmac::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let data = b"a message split into several pieces";
        let mut h = Hmac::new(key);
        h.update(&data[..5]);
        h.update(&data[5..20]);
        h.update(&data[20..]);
        assert_eq!(h.finalize(), Hmac::mac(key, data));
    }

    #[test]
    fn different_keys_different_tags() {
        let t1 = Hmac::mac(b"key1", b"msg");
        let t2 = Hmac::mac(b"key2", b"msg");
        assert_ne!(t1, t2);
    }
}
