//! Schnorr signatures over the DSA subgroup.
//!
//! Used by the crypto ablation benchmark: same group, different signing
//! equation — one fewer modular inversion than DSA on the signing path.

use crate::dsa::DsaParams;
use crate::sig::SignatureScheme;
use crate::{Digest, Sha256};
use fe_bigint::Natural;
use std::fmt;

/// Schnorr signature scheme over `(p, q, g)` domain parameters.
///
/// Signing: `k ← H(x, m)`-derived nonce, `r = g^k mod p`,
/// `e = H(r ‖ m) mod q`, `s = k + x·e mod q`; signature is `(e, s)`.
/// Verification recomputes `r' = g^s · y^{-e} mod p` and accepts iff
/// `H(r' ‖ m) mod q == e`.
///
/// ```rust
/// use fe_crypto::dsa::DsaParams;
/// use fe_crypto::schnorr::Schnorr;
/// use fe_crypto::sig::SignatureScheme;
///
/// let scheme = Schnorr::new(DsaParams::insecure_512().clone());
/// let (sk, vk) = scheme.keypair_from_seed(b"R");
/// let sig = scheme.sign(&sk, b"challenge");
/// assert!(scheme.verify(&vk, b"challenge", &sig));
/// ```
#[derive(Debug, Clone)]
pub struct Schnorr {
    params: DsaParams,
}

/// Schnorr signing key (secret scalar `x`).
#[derive(Clone)]
pub struct SchnorrSigningKey {
    x: Natural,
}

impl fmt::Debug for SchnorrSigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrSigningKey").finish_non_exhaustive()
    }
}

/// Schnorr verification key (`y = g^x mod p`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchnorrVerifyingKey {
    y: Natural,
}

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchnorrSignature {
    e: Natural,
    s: Natural,
}

impl SchnorrSignature {
    /// Serializes as `e || s`, each padded to the scalar width.
    pub fn to_bytes(&self, params: &DsaParams) -> Vec<u8> {
        let len = params.scalar_len();
        let mut out = self.e.to_bytes_be_padded(len);
        out.extend(self.s.to_bytes_be_padded(len));
        out
    }

    /// Parses `e || s`; `None` if the length is wrong.
    pub fn from_bytes(bytes: &[u8], params: &DsaParams) -> Option<SchnorrSignature> {
        let len = params.scalar_len();
        if bytes.len() != 2 * len {
            return None;
        }
        Some(SchnorrSignature {
            e: Natural::from_bytes_be(&bytes[..len]),
            s: Natural::from_bytes_be(&bytes[len..]),
        })
    }
}

impl Schnorr {
    /// Creates the scheme from DSA-style domain parameters.
    pub fn new(params: DsaParams) -> Schnorr {
        Schnorr { params }
    }

    /// Borrows the domain parameters.
    pub fn params(&self) -> &DsaParams {
        &self.params
    }

    fn challenge(&self, r: &Natural, msg: &[u8]) -> Natural {
        let mut h = Sha256::new();
        h.update(&r.to_bytes_be_padded(self.params.element_len()));
        h.update(msg);
        Natural::from_bytes_be(&h.finalize()).rem_nat(self.params.q())
    }
}

impl SignatureScheme for Schnorr {
    type SigningKey = SchnorrSigningKey;
    type VerifyingKey = SchnorrVerifyingKey;
    type Signature = SchnorrSignature;

    fn keypair_from_seed(&self, seed: &[u8]) -> (SchnorrSigningKey, SchnorrVerifyingKey) {
        let x = self.params.scalar_from_seed(seed, b"fe-schnorr-keygen");
        let y = self.params.pow_g(&x);
        (SchnorrSigningKey { x }, SchnorrVerifyingKey { y })
    }

    fn sign(&self, key: &SchnorrSigningKey, msg: &[u8]) -> SchnorrSignature {
        let q = self.params.q();
        // Deterministic nonce from (x, H(m)).
        let mut seed = key.x.to_bytes_be_padded(self.params.scalar_len());
        seed.extend(Sha256::digest(msg));
        let k = self.params.scalar_from_seed(&seed, b"fe-schnorr-nonce");
        let r = self.params.pow_g(&k);
        let e = self.challenge(&r, msg);
        let s = k.mod_add(&key.x.mod_mul(&e, q), q);
        SchnorrSignature { e, s }
    }

    fn verify(&self, key: &SchnorrVerifyingKey, msg: &[u8], sig: &SchnorrSignature) -> bool {
        let p = self.params.p();
        let q = self.params.q();
        if &sig.e >= q || &sig.s >= q {
            return false;
        }
        if key.y.is_zero() || key.y.is_one() || &key.y >= p {
            return false;
        }
        // r' = g^s * y^{-e} = g^s * y^(q-e) mod p.
        let neg_e = if sig.e.is_zero() {
            Natural::zero()
        } else {
            q.checked_sub(&sig.e).expect("e < q")
        };
        let r = self.params.pow_g_mul(&sig.s, &key.y, &neg_e);
        self.challenge(&r, msg) == sig.e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> Schnorr {
        Schnorr::new(DsaParams::insecure_512().clone())
    }

    #[test]
    fn sign_verify_roundtrip() {
        let s = scheme();
        let (sk, vk) = s.keypair_from_seed(b"seed");
        let sig = s.sign(&sk, b"msg");
        assert!(s.verify(&vk, b"msg", &sig));
    }

    #[test]
    fn rejects_wrong_message_and_key() {
        let s = scheme();
        let (sk, vk) = s.keypair_from_seed(b"seed");
        let (_, vk2) = s.keypair_from_seed(b"other");
        let sig = s.sign(&sk, b"msg");
        assert!(!s.verify(&vk, b"other msg", &sig));
        assert!(!s.verify(&vk2, b"msg", &sig));
    }

    #[test]
    fn rejects_malleated_signature() {
        let s = scheme();
        let (sk, vk) = s.keypair_from_seed(b"seed");
        let sig = s.sign(&sk, b"msg");
        let tampered = SchnorrSignature {
            e: sig.e.clone(),
            s: sig.s.mod_add(&Natural::one(), s.params().q()),
        };
        assert!(!s.verify(&vk, b"msg", &tampered));
    }

    #[test]
    fn deterministic_in_seed_and_message() {
        let s = scheme();
        let (sk1, vk1) = s.keypair_from_seed(b"seed");
        let (_sk2, vk2) = s.keypair_from_seed(b"seed");
        assert_eq!(vk1, vk2);
        assert_eq!(s.sign(&sk1, b"m"), s.sign(&sk1, b"m"));
    }

    #[test]
    fn bytes_roundtrip() {
        let s = scheme();
        let (sk, vk) = s.keypair_from_seed(b"seed");
        let sig = s.sign(&sk, b"msg");
        let bytes = sig.to_bytes(s.params());
        let back = SchnorrSignature::from_bytes(&bytes, s.params()).unwrap();
        assert!(s.verify(&vk, b"msg", &back));
    }

    #[test]
    fn out_of_range_rejected() {
        let s = scheme();
        let (sk, vk) = s.keypair_from_seed(b"seed");
        let sig = s.sign(&sk, b"msg");
        let bad = SchnorrSignature {
            e: s.params().q().clone(),
            s: sig.s,
        };
        assert!(!s.verify(&vk, b"msg", &bad));
    }
}
