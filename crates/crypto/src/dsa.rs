//! DSA (FIPS 186-4 style) over the `fe-bigint` substrate.
//!
//! This is the signature scheme named in the paper's Table II. Nonces are
//! derived deterministically from the signing key and message digest
//! (RFC-6979 style), which keeps signatures safe against the classic DSA
//! nonce-reuse failure and makes protocol runs reproducible.

use crate::sig::SignatureScheme;
use crate::{HmacDrbg, Sha256};
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

/// Parses a fixed domain committed as hex `[p, q, g]`.
fn fixed(hex: &[&str; 3]) -> DsaParams {
    let [p, q, g] = hex.map(|h| Natural::from_hex(h).expect("a committed domain is hex"));
    DsaParams::from_parts(p, q, g)
}

/// `(p, q, g)` of `generate_deterministic(512, 160, b"fe-dsa-512-fixed")`.
const INSECURE_512: [&str; 3] = [
    "eed10feddfbfbaf2681cd081063b1a31f5f316afdf6788c5230b0135110168cb\
     ef92ff0311cff9c1d6aeed2e90a68359242ee51d206a7cf76c9e42807af9487d",
    "82d621c9325498895b5c8476b5303d9762a67fd9",
    "52adde81eaab088def06e907687c4bc78d68fd89d3eee07c95c2bbb04ad062b7\
     b6125f18a1832fcacd112e026b7056a2b3941ed6c48281f555abd0ec34054f28",
];

/// `(p, q, g)` of `generate_deterministic(1024, 160, b"fe-dsa-1024-fixed")`.
const DSA_1024_160: [&str; 3] = [
    "cbe43cbaae1b50ca651142a0d8805582c55a109c5eb8b67065985d4f3bd3e86f\
     44758f5030b10ad2ebcd4a337e1205682d3b155adf0f54e5cad8b1d9c70a18ab\
     210fd915406cc7e0f6262c46cbafeb98d547a12e16ad87bc36e746222d8b30ba\
     a1b8d7ce5975153a28367899ff3530aa7fd062685f1e38e2084a8a18faf11915",
    "9cf17234507c923a97674fe07ad174fec5a5c12f",
    "2aff63f55a3384fccf0a035d0dbd6462b946a9915317d157d7b5d765df0a353f\
     ce06c9527109abee250f58462579c60087f03786416e076ff7037c63c4510e2a\
     0e1d61b74c4d7e02ff7033f6adcc3058d2444ab8215cf86e2f73e8cc0f377c5c\
     fadade705716480a8cceedc6e8d84860ff1a921524341634e1132638bceec7d0",
];

/// `(p, q, g)` of `generate_deterministic(2048, 256, b"fe-dsa-2048-fixed")`.
const DSA_2048_256: [&str; 3] = [
    "fcbdeb0c557ce60740c0e864b2d7190764f2164e2c7a65b5967c8d306d78f9b3\
     b835318f58b246bcfb0fdec848f76723ef6580ca277f035fe03fb842930e8968\
     414d57d5e0009eb3dbfaeaa8c17b228641430f4da396a26ab6efbdc8dbbc6f3e\
     9e7116812eec0dd9ba1cc8f4674fa8841a6e6da9c6153de6f282f18209667d58\
     afbe4c8cadb8616c6d76740d60417722b9c972ab57959c4b2e351cc8b76c23a6\
     a29325356fd16f9742f195749101af42667cec93cfd0569e993c3c4d4c3236b2\
     fb00ac09ec7ad67c4ecb018f395698e6ba230eb6e6acbc246267fcadf84c58a2\
     553f81b78e9956a6c959b865427ced5ea95ae8c659e506f4584d2939b49d766f",
    "ccc0b956764d6fb8c21fed6c32f1fd751502b32aa075bba62d31d5ae8886f0dd",
    "59e9e8fb3f4d8e78f7cfa1a51085b52e0facc90c7bacabf890a673e6a2c83307\
     9be39fa2a815c78442add5bf6cc57852f3c84dd11c0acbc45f7c044802614959\
     e37424444070879baaf860976effdeab48a530a3f2d74437be4556fb04684771\
     44e6f06def8d7faea68cb83adf7f939013749b7c9dcb0f8a888a34acb5ec8527\
     1e669777812bceb349a58388482df613c8cfdef2fbf9629119d5aeeb958c6b4c\
     01a16191a69e958f9a1b53415456730eab51865e14c17c01a6e08c54c9a1a3f6\
     95bb3f5ecb5d21e5192b653a138646c6c3505d55476ef5bc95b10e97b5eca778\
     64e7b433a5856e27a6726addd32bf4241be63c31a07daa72bed7b4ac1ce35087",
];

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
        PARAMS.get_or_init(|| fixed(&INSECURE_512))
    }

    /// Cached deterministic parameters with a 1024-bit modulus and 160-bit
    /// subgroup (the classic DSA size; matches the paper's era and DSA
    /// default in the Python standard library used by the authors).
    pub fn dsa_1024_160() -> &'static DsaParams {
        static PARAMS: OnceLock<DsaParams> = OnceLock::new();
        PARAMS.get_or_init(|| fixed(&DSA_1024_160))
    }

    /// Cached deterministic parameters with a 2048-bit modulus and 256-bit
    /// subgroup (modern DSA strength).
    pub fn dsa_2048_256() -> &'static DsaParams {
        static PARAMS: OnceLock<DsaParams> = OnceLock::new();
        PARAMS.get_or_init(|| fixed(&DSA_2048_256))
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

    /// The committed domains are the generator's: the prime search is
    /// this test's oracle, run once here instead of in every process.
    #[test]
    fn fixed_domains_regenerate_from_their_seeds() {
        let domains: [(&DsaParams, usize, usize, &[u8]); 3] = [
            (DsaParams::insecure_512(), 512, 160, b"fe-dsa-512-fixed"),
            (DsaParams::dsa_1024_160(), 1024, 160, b"fe-dsa-1024-fixed"),
            (DsaParams::dsa_2048_256(), 2048, 256, b"fe-dsa-2048-fixed"),
        ];
        for (cached, l, n, seed) in domains {
            assert_eq!(cached.bits(), (l, n));
            assert_eq!(*cached, DsaParams::generate_deterministic(l, n, seed));
        }
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
