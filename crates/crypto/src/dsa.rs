//! DSA (FIPS 186-4 style) over the `fe-bigint` substrate.
//!
//! This is the signature scheme named in the paper's Table II. Nonces are
//! derived deterministically from the signing key and message digest
//! (RFC-6979 style), which keeps signatures safe against the classic DSA
//! nonce-reuse failure and makes protocol runs reproducible.

use crate::sig::SignatureScheme;
use crate::{Digest, HmacDrbg, Sha256};
use fe_bigint::{gen_prime, random_below, random_bits, FixedBase, Natural};
use rand::RngCore;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// DSA domain parameters `(p, q, g)`: `p` prime, `q` prime dividing `p-1`,
/// `g` a generator of the order-`q` subgroup of `Z_p^*`.
///
/// Every power of `g` goes through one fixed-base comb table
/// ([`FixedBase`]), built on first use and shared by every clone, so a
/// [`Dsa`] made per call from a clone never builds a second one. The
/// table is a cache: equality and `Debug` see only `(p, q, g)`.
#[derive(Clone)]
pub struct DsaParams {
    p: Natural,
    q: Natural,
    g: Natural,
    g_table: Arc<OnceLock<Option<FixedBase>>>,
}

impl PartialEq for DsaParams {
    fn eq(&self, other: &Self) -> bool {
        (&self.p, &self.q, &self.g) == (&other.p, &other.q, &other.g)
    }
}

impl Eq for DsaParams {}

impl fmt::Debug for DsaParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DsaParams")
            .field("p", &self.p)
            .field("q", &self.q)
            .field("g", &self.g)
            .finish()
    }
}

/// Errors from DSA parameter validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// `p` failed the primality test.
    PNotPrime,
    /// `q` failed the primality test.
    QNotPrime,
    /// `q` does not divide `p - 1`.
    QDoesNotDivide,
    /// `g` is not a generator of the order-`q` subgroup.
    BadGenerator,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::PNotPrime => write!(f, "modulus p is not prime"),
            ParamError::QNotPrime => write!(f, "subgroup order q is not prime"),
            ParamError::QDoesNotDivide => write!(f, "q does not divide p - 1"),
            ParamError::BadGenerator => write!(f, "g does not generate the order-q subgroup"),
        }
    }
}

impl std::error::Error for ParamError {}

impl DsaParams {
    /// Generates fresh domain parameters with an `l_bits` modulus and an
    /// `n_bits` subgroup order.
    ///
    /// # Panics
    /// Panics if `n_bits >= l_bits` or `n_bits < 2`.
    pub fn generate<R: RngCore + ?Sized>(l_bits: usize, n_bits: usize, rng: &mut R) -> DsaParams {
        assert!(n_bits >= 2 && n_bits < l_bits, "need 2 <= n_bits < l_bits");
        let q = gen_prime(n_bits, 32, rng);
        let two_q = q.shl_bits(1);
        let p = loop {
            // Random L-bit candidate, forced odd congruent to 1 mod 2q.
            let x = random_bits(l_bits, rng).with_bit(l_bits - 1, true);
            let rem = x.rem_nat(&two_q);
            let cand = match x.checked_sub(&rem) {
                Some(base) => base.add_u64(1),
                None => continue,
            };
            if cand.bit_length() != l_bits {
                continue;
            }
            if cand.is_probable_prime(32, rng) {
                break cand;
            }
        };
        let p_minus_1 = p.checked_sub(&Natural::one()).expect("p >= 2");
        let exp = &p_minus_1 / &q;
        let mut h = Natural::two();
        let g = loop {
            let cand = h.mod_pow(&exp, &p);
            if !cand.is_one() && !cand.is_zero() {
                break cand;
            }
            h = h.add_u64(1);
        };
        DsaParams::from_parts(p, q, g)
    }

    /// Deterministically generates parameters from a seed string
    /// (convenient for reproducible tests and benchmarks).
    pub fn generate_deterministic(l_bits: usize, n_bits: usize, seed: &[u8]) -> DsaParams {
        let mut drbg = HmacDrbg::new(seed, b"fe-dsa-param-gen");
        DsaParams::generate(l_bits, n_bits, &mut drbg)
    }

    /// Builds parameters from raw components without validation.
    /// Prefer [`DsaParams::validate`] afterwards for untrusted inputs.
    pub fn from_parts(p: Natural, q: Natural, g: Natural) -> DsaParams {
        DsaParams {
            p,
            q,
            g,
            g_table: Arc::default(),
        }
    }

    /// Validates primality of `p` and `q`, the divisibility relation and
    /// the generator order.
    ///
    /// # Errors
    /// Returns the first failed check as a [`ParamError`].
    pub fn validate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Result<(), ParamError> {
        if !self.p.is_probable_prime(32, rng) {
            return Err(ParamError::PNotPrime);
        }
        if !self.q.is_probable_prime(32, rng) {
            return Err(ParamError::QNotPrime);
        }
        let p_minus_1 = self.p.checked_sub(&Natural::one()).expect("p >= 2");
        if !p_minus_1.rem_nat(&self.q).is_zero() {
            return Err(ParamError::QDoesNotDivide);
        }
        if self.g.is_zero() || self.g.is_one() || !self.g.mod_pow(&self.q, &self.p).is_one() {
            return Err(ParamError::BadGenerator);
        }
        Ok(())
    }

    /// The prime modulus `p`.
    pub fn p(&self) -> &Natural {
        &self.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> &Natural {
        &self.q
    }

    /// The subgroup generator `g`.
    pub fn g(&self) -> &Natural {
        &self.g
    }

    /// `(L, N)` — bit lengths of `p` and `q`.
    pub fn bits(&self) -> (usize, usize) {
        (self.p.bit_length(), self.q.bit_length())
    }

    /// Byte length of a serialized subgroup scalar.
    pub fn scalar_len(&self) -> usize {
        self.q.bit_length().div_ceil(8)
    }

    /// Byte length of a serialized group element.
    pub fn element_len(&self) -> usize {
        self.p.bit_length().div_ceil(8)
    }

    /// Cached deterministic parameters with a 512-bit modulus.
    ///
    /// **Test/bench strength only** — far below modern security margins,
    /// but fast enough for exhaustive protocol test suites.
    pub fn insecure_512() -> &'static DsaParams {
        static PARAMS: OnceLock<DsaParams> = OnceLock::new();
        PARAMS.get_or_init(|| DsaParams::generate_deterministic(512, 160, b"fe-dsa-512-fixed"))
    }

    /// Cached deterministic parameters with a 1024-bit modulus and 160-bit
    /// subgroup (the classic DSA size; matches the paper's era and DSA
    /// default in the Python standard library used by the authors).
    pub fn dsa_1024_160() -> &'static DsaParams {
        static PARAMS: OnceLock<DsaParams> = OnceLock::new();
        PARAMS.get_or_init(|| DsaParams::generate_deterministic(1024, 160, b"fe-dsa-1024-fixed"))
    }

    /// Cached deterministic parameters with a 2048-bit modulus and 256-bit
    /// subgroup (modern DSA strength).
    pub fn dsa_2048_256() -> &'static DsaParams {
        static PARAMS: OnceLock<DsaParams> = OnceLock::new();
        PARAMS.get_or_init(|| DsaParams::generate_deterministic(2048, 256, b"fe-dsa-2048-fixed"))
    }

    /// The comb for `g` over exponents below `2^N`; `None` if `p` is even
    /// (no Montgomery form), where the generic `mod_pow` answers instead.
    fn g_table(&self) -> Option<&FixedBase> {
        self.g_table
            .get_or_init(|| FixedBase::new(&self.g, &self.p, self.q.bit_length()))
            .as_ref()
    }

    /// `g^e mod p`, from the fixed-base table when `e < 2^N`.
    pub fn pow_g(&self, e: &Natural) -> Natural {
        match self.g_table() {
            Some(table) => table.pow(e),
            None => self.g.mod_pow(e, &self.p),
        }
    }

    /// `g^e · y^f mod p`, the product a DSA verification checks:
    /// the table's columns ride on the squarings of `y`'s window.
    pub fn pow_g_mul(&self, e: &Natural, y: &Natural, f: &Natural) -> Natural {
        match self.g_table() {
            Some(table) => table.pow_mul(e, y, f),
            None => self.pow_g(e).mod_mul(&y.mod_pow(f, &self.p), &self.p),
        }
    }

    /// Reduces a message to the scalar `z`: the leftmost `N` bits of
    /// SHA-256(msg), as specified by FIPS 186-4 §4.6.
    pub(crate) fn hash_to_scalar(&self, msg: &[u8]) -> Natural {
        let digest = Sha256::digest(msg);
        let n_bits = self.q.bit_length();
        let take = n_bits.div_ceil(8).min(digest.len());
        let mut z = Natural::from_bytes_be(&digest[..take]);
        let excess = (take * 8).saturating_sub(n_bits);
        if excess > 0 {
            z = z.shr_bits(excess);
        }
        z
    }

    /// Derives a scalar in `[1, q-1]` from seed bytes via HMAC-DRBG.
    pub(crate) fn scalar_from_seed(&self, seed: &[u8], label: &[u8]) -> Natural {
        let mut drbg = HmacDrbg::new(seed, label);
        let q_minus_1 = self.q.checked_sub(&Natural::one()).expect("q >= 2");
        &random_below(&q_minus_1, &mut drbg) + &Natural::one()
    }
}

/// DSA signing key (the secret scalar `x`).
#[derive(Clone)]
pub struct DsaSigningKey {
    x: Natural,
}

impl fmt::Debug for DsaSigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("DsaSigningKey").finish_non_exhaustive()
    }
}

/// DSA verification key (the public element `y = g^x mod p`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsaVerifyingKey {
    y: Natural,
}

impl DsaVerifyingKey {
    /// The public element `y`.
    pub fn y(&self) -> &Natural {
        &self.y
    }

    /// Serializes as fixed-width big-endian bytes.
    pub fn to_bytes(&self, params: &DsaParams) -> Vec<u8> {
        self.y.to_bytes_be_padded(params.element_len())
    }

    /// Deserializes from big-endian bytes.
    pub fn from_bytes(bytes: &[u8]) -> DsaVerifyingKey {
        DsaVerifyingKey {
            y: Natural::from_bytes_be(bytes),
        }
    }
}

/// A DSA signature `(r, s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsaSignature {
    r: Natural,
    s: Natural,
}

impl DsaSignature {
    /// The `r` component.
    pub fn r(&self) -> &Natural {
        &self.r
    }

    /// The `s` component.
    pub fn s(&self) -> &Natural {
        &self.s
    }

    /// Serializes as `r || s`, each padded to the scalar width.
    pub fn to_bytes(&self, params: &DsaParams) -> Vec<u8> {
        let len = params.scalar_len();
        let mut out = self.r.to_bytes_be_padded(len);
        out.extend(self.s.to_bytes_be_padded(len));
        out
    }

    /// Parses `r || s`; `None` if the length is not exactly two scalars.
    pub fn from_bytes(bytes: &[u8], params: &DsaParams) -> Option<DsaSignature> {
        let len = params.scalar_len();
        if bytes.len() != 2 * len {
            return None;
        }
        Some(DsaSignature {
            r: Natural::from_bytes_be(&bytes[..len]),
            s: Natural::from_bytes_be(&bytes[len..]),
        })
    }
}

/// The DSA scheme over fixed domain parameters.
///
/// ```rust
/// use fe_crypto::dsa::{Dsa, DsaParams};
/// use fe_crypto::sig::SignatureScheme;
///
/// let dsa = Dsa::new(DsaParams::insecure_512().clone());
/// let (sk, vk) = dsa.keypair_from_seed(b"extracted biometric key R");
/// let sig = dsa.sign(&sk, b"challenge||nonce");
/// assert!(dsa.verify(&vk, b"challenge||nonce", &sig));
/// assert!(!dsa.verify(&vk, b"tampered", &sig));
/// ```
#[derive(Debug, Clone)]
pub struct Dsa {
    params: DsaParams,
}

impl Dsa {
    /// Creates the scheme from domain parameters.
    pub fn new(params: DsaParams) -> Dsa {
        Dsa { params }
    }

    /// Borrows the domain parameters.
    pub fn params(&self) -> &DsaParams {
        &self.params
    }

    /// Key generation with caller-supplied randomness (x uniform in
    /// `[1, q-1]`).
    pub fn keypair<R: RngCore + ?Sized>(&self, rng: &mut R) -> (DsaSigningKey, DsaVerifyingKey) {
        let q_minus_1 = self.params.q.checked_sub(&Natural::one()).expect("q >= 2");
        let x = &random_below(&q_minus_1, rng) + &Natural::one();
        let y = self.params.pow_g(&x);
        (DsaSigningKey { x }, DsaVerifyingKey { y })
    }
}

impl SignatureScheme for Dsa {
    type SigningKey = DsaSigningKey;
    type VerifyingKey = DsaVerifyingKey;
    type Signature = DsaSignature;

    fn keypair_from_seed(&self, seed: &[u8]) -> (DsaSigningKey, DsaVerifyingKey) {
        let x = self.params.scalar_from_seed(seed, b"fe-dsa-keygen");
        let y = self.params.pow_g(&x);
        (DsaSigningKey { x }, DsaVerifyingKey { y })
    }

    fn sign(&self, key: &DsaSigningKey, msg: &[u8]) -> DsaSignature {
        let q = &self.params.q;
        let z = self.params.hash_to_scalar(msg);

        // Deterministic nonce: DRBG seeded with (x, H(m)); retry counter in
        // the personalization keeps retries distinct.
        let x_bytes = key.x.to_bytes_be_padded(self.params.scalar_len());
        let digest = Sha256::digest(msg);
        let mut retry = 0u8;
        loop {
            let mut seed = x_bytes.clone();
            seed.extend_from_slice(&digest);
            seed.push(retry);
            let k = self.params.scalar_from_seed(&seed, b"fe-dsa-nonce");
            let r = self.params.pow_g(&k).rem_nat(q);
            if r.is_zero() {
                retry = retry.wrapping_add(1);
                continue;
            }
            let k_inv = k.mod_inv(q).expect("k in [1,q-1] is invertible");
            let s = k_inv.mod_mul(&z.mod_add(&key.x.mod_mul(&r, q), q), q);
            if s.is_zero() {
                retry = retry.wrapping_add(1);
                continue;
            }
            return DsaSignature { r, s };
        }
    }

    fn verify(&self, key: &DsaVerifyingKey, msg: &[u8], sig: &DsaSignature) -> bool {
        let p = &self.params.p;
        let q = &self.params.q;
        if sig.r.is_zero() || &sig.r >= q || sig.s.is_zero() || &sig.s >= q {
            return false;
        }
        if key.y.is_zero() || key.y.is_one() || &key.y >= p {
            return false;
        }
        let z = self.params.hash_to_scalar(msg);
        let w = match sig.s.mod_inv(q) {
            Some(w) => w,
            None => return false,
        };
        let u1 = z.mod_mul(&w, q);
        let u2 = sig.r.mod_mul(&w, q);
        let v = self.params.pow_g_mul(&u1, &key.y, &u2).rem_nat(q);
        v == sig.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme() -> Dsa {
        Dsa::new(DsaParams::insecure_512().clone())
    }

    #[test]
    fn params_validate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(DsaParams::insecure_512().validate(&mut rng), Ok(()));
    }

    #[test]
    fn param_bits() {
        let (l, n) = DsaParams::insecure_512().bits();
        assert_eq!(l, 512);
        assert_eq!(n, 160);
    }

    #[test]
    fn generator_has_order_q() {
        let params = DsaParams::insecure_512();
        assert!(params.g().mod_pow(params.q(), params.p()).is_one());
        assert!(!params.g().is_one());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let dsa = scheme();
        let (sk, vk) = dsa.keypair_from_seed(b"seed");
        let sig = dsa.sign(&sk, b"message");
        assert!(dsa.verify(&vk, b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let dsa = scheme();
        let (sk, vk) = dsa.keypair_from_seed(b"seed");
        let sig = dsa.sign(&sk, b"message");
        assert!(!dsa.verify(&vk, b"other message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let dsa = scheme();
        let (sk, _) = dsa.keypair_from_seed(b"seed-1");
        let (_, vk2) = dsa.keypair_from_seed(b"seed-2");
        let sig = dsa.sign(&sk, b"message");
        assert!(!dsa.verify(&vk2, b"message", &sig));
    }

    #[test]
    fn verify_rejects_out_of_range_components() {
        let dsa = scheme();
        let (sk, vk) = dsa.keypair_from_seed(b"seed");
        let sig = dsa.sign(&sk, b"message");
        let bad_r = DsaSignature {
            r: dsa.params().q().clone(),
            s: sig.s().clone(),
        };
        assert!(!dsa.verify(&vk, b"message", &bad_r));
        let zero_s = DsaSignature {
            r: sig.r().clone(),
            s: Natural::zero(),
        };
        assert!(!dsa.verify(&vk, b"message", &zero_s));
    }

    #[test]
    fn keygen_is_deterministic_in_seed() {
        let dsa = scheme();
        let (_, vk1) = dsa.keypair_from_seed(b"same seed");
        let (_, vk2) = dsa.keypair_from_seed(b"same seed");
        assert_eq!(vk1, vk2);
        let (_, vk3) = dsa.keypair_from_seed(b"different seed");
        assert_ne!(vk1, vk3);
    }

    #[test]
    fn signatures_deterministic_per_message() {
        let dsa = scheme();
        let (sk, _) = dsa.keypair_from_seed(b"seed");
        assert_eq!(dsa.sign(&sk, b"m"), dsa.sign(&sk, b"m"));
        assert_ne!(dsa.sign(&sk, b"m1"), dsa.sign(&sk, b"m2"));
    }

    #[test]
    fn random_keypair_works() {
        let dsa = scheme();
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, vk) = dsa.keypair(&mut rng);
        let sig = dsa.sign(&sk, b"hello");
        assert!(dsa.verify(&vk, b"hello", &sig));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let dsa = scheme();
        let (sk, vk) = dsa.keypair_from_seed(b"seed");
        let sig = dsa.sign(&sk, b"message");
        let bytes = sig.to_bytes(dsa.params());
        assert_eq!(bytes.len(), 2 * dsa.params().scalar_len());
        let back = DsaSignature::from_bytes(&bytes, dsa.params()).unwrap();
        assert_eq!(back, sig);
        assert!(dsa.verify(&vk, b"message", &back));
        assert!(DsaSignature::from_bytes(&bytes[1..], dsa.params()).is_none());
    }

    #[test]
    fn verifying_key_bytes_roundtrip() {
        let dsa = scheme();
        let (_, vk) = dsa.keypair_from_seed(b"seed");
        let bytes = vk.to_bytes(dsa.params());
        assert_eq!(DsaVerifyingKey::from_bytes(&bytes), vk);
    }

    #[test]
    fn debug_hides_secret() {
        let dsa = scheme();
        let (sk, _) = dsa.keypair_from_seed(b"seed");
        assert_eq!(format!("{sk:?}"), "DsaSigningKey { .. }");
    }

    #[test]
    fn clones_share_one_table_built_once() {
        let params = DsaParams::generate_deterministic(512, 160, b"one table");
        let copy = params.clone();
        assert!(Arc::ptr_eq(&params.g_table, &copy.g_table));
        assert!(params.g_table.get().is_none(), "built lazily");
        let table = copy.g_table().expect("odd p") as *const FixedBase;
        assert!(std::ptr::eq(params.g_table().unwrap(), table));

        // A `Dsa` per call, as `SystemParams::dsa()` makes one: no call
        // after the first builds anything (no Montgomery context, and a
        // comb's product count, not a table's ≈ 390).
        for _ in 0..3 {
            let before = fe_bigint::montgomery::counts();
            Dsa::new(params.clone()).keypair_from_seed(b"seed");
            let spent = fe_bigint::montgomery::counts() - before;
            assert_eq!(spent.contexts, 0);
            assert!(spent.products() <= 40, "{spent:?}");
        }
        assert!(std::ptr::eq(params.g_table().unwrap(), table));
    }

    #[test]
    fn equality_and_debug_see_only_p_q_g() {
        let params = DsaParams::insecure_512();
        let fresh =
            DsaParams::from_parts(params.p().clone(), params.q().clone(), params.g().clone());
        params.pow_g(&Natural::one());
        assert_eq!(params, &fresh);
        let (p, q, g) = (params.p(), params.q(), params.g());
        let want = format!("DsaParams {{ p: {p:?}, q: {q:?}, g: {g:?} }}");
        assert_eq!(format!("{params:?}"), want);
        assert_eq!(format!("{fresh:?}"), want);
    }

    #[test]
    fn an_even_modulus_falls_back_to_mod_pow() {
        let params = DsaParams::from_parts(
            Natural::from(1000u64),
            Natural::from(37u64),
            Natural::from(3u64),
        );
        let (e, y, f) = (
            Natural::from(21u64),
            Natural::from(7u64),
            Natural::from(30u64),
        );
        let p = params.p();
        assert_eq!(params.pow_g(&e), params.g().mod_pow(&e, p));
        assert_eq!(
            params.pow_g_mul(&e, &y, &f),
            params.g().mod_pow(&e, p).mod_mul(&y.mod_pow(&f, p), p)
        );
    }

    #[test]
    fn param_validation_catches_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let good = DsaParams::insecure_512();
        let bad_g = DsaParams::from_parts(good.p().clone(), good.q().clone(), Natural::one());
        assert_eq!(bad_g.validate(&mut rng), Err(ParamError::BadGenerator));
        let bad_q = DsaParams::from_parts(good.p().clone(), Natural::from(15u64), good.g().clone());
        assert_eq!(bad_q.validate(&mut rng), Err(ParamError::QNotPrime));
    }
}
