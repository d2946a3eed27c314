//! Property-based tests for the cryptographic primitives.

use fe_bigint::montgomery::counts;
use fe_bigint::Natural;
use fe_crypto::dsa::{Dsa, DsaParams, DsaSignature, DsaVerifyingKey};
use fe_crypto::extractor::{HmacExtractor, StrongExtractor};
use fe_crypto::sig::SignatureScheme;
use fe_crypto::{ct, Hkdf, Hmac, HmacDrbg, Sha256};
use proptest::prelude::*;

/// The two parameter sets the protocol runs on.
fn params(pick: bool) -> &'static DsaParams {
    if pick {
        DsaParams::dsa_1024_160()
    } else {
        DsaParams::insecure_512()
    }
}

/// An exponent for `g`: random below `2^N`, one of the edges `0`, `1`,
/// `q − 1` and `2^N − 1`, or past the table's reach (`≥ 2^N`).
fn exponent(params: &DsaParams, (bytes, pick): (Vec<u8>, u8)) -> Natural {
    let n = params.q().bit_length();
    let reach = Natural::power_of_two(n);
    let random = Natural::from_bytes_be(&bytes);
    match pick {
        0 => Natural::zero(),
        1 => Natural::one(),
        2 => params.q().checked_sub(&Natural::one()).unwrap(),
        3 => reach.checked_sub(&Natural::one()).unwrap(),
        4 => &reach + &random,
        5 => random.shl_bits(n),
        _ => random.rem_nat(&reach),
    }
}

fn exponent_material() -> impl Strategy<Value = (Vec<u8>, u8)> {
    (prop::collection::vec(any::<u8>(), 0..40), 0u8..12)
}

/// A value for a signature component or a public key: the honest one,
/// `0`, `1`, the bound less one, the bound, the bound plus one, or random
/// bytes.
fn around(honest: &Natural, bound: &Natural, (bytes, pick): (Vec<u8>, u8)) -> Natural {
    match pick {
        0 => Natural::zero(),
        1 => Natural::one(),
        2 => bound.checked_sub(&Natural::one()).unwrap(),
        3 => bound.clone(),
        4 => bound.add_u64(1),
        5 => Natural::from_bytes_be(&bytes),
        _ => honest.clone(),
    }
}

/// DSA verification exactly as it was computed before the fixed-base
/// table: two independent `mod_pow`s and a `mod_mul`.
fn reference_verify(params: &DsaParams, y: &Natural, msg: &[u8], r: &Natural, s: &Natural) -> bool {
    let (p, q, g) = (params.p(), params.q(), params.g());
    if r.is_zero() || r >= q || s.is_zero() || s >= q {
        return false;
    }
    if y.is_zero() || y.is_one() || y >= p {
        return false;
    }
    // z: the leftmost N bits of SHA-256(msg).
    let n_bits = q.bit_length();
    let take = n_bits.div_ceil(8).min(32);
    let z = Natural::from_bytes_be(&Sha256::digest(msg)[..take]).shr_bits(take * 8 - n_bits);
    let Some(w) = s.mod_inv(q) else {
        return false;
    };
    let (u1, u2) = (z.mod_mul(&w, q), r.mod_mul(&w, q));
    &g.mod_pow(&u1, p).mod_mul(&y.mod_pow(&u2, p), p).rem_nat(q) == r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha256_chunking_invariance(data in prop::collection::vec(any::<u8>(), 0..2048), split in any::<u16>()) {
        let cut = (split as usize) % (data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Different inputs hash differently (collision would be a miracle).
    #[test]
    fn sha256_injective_in_practice(a in prop::collection::vec(any::<u8>(), 0..128),
                                     b in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    /// HMAC differs under different keys and messages.
    #[test]
    fn hmac_key_separation(k1 in prop::collection::vec(any::<u8>(), 1..64),
                           k2 in prop::collection::vec(any::<u8>(), 1..64),
                           msg in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(Hmac::mac(&k1, &msg), Hmac::mac(&k2, &msg));
    }

    /// HKDF output length is exact and prefix-consistent.
    #[test]
    fn hkdf_lengths(ikm in prop::collection::vec(any::<u8>(), 1..64), len in 1usize..200) {
        let long = Hkdf::derive(&ikm, b"salt", b"info", len);
        prop_assert_eq!(long.len(), len);
        let short = Hkdf::derive(&ikm, b"salt", b"info", len.min(16));
        prop_assert_eq!(&long[..short.len()], &short[..]);
    }

    /// DRBG determinism: same seed + same call pattern = same stream.
    #[test]
    fn drbg_deterministic(seed in prop::collection::vec(any::<u8>(), 1..64), n in 1usize..128) {
        let mut a = HmacDrbg::new(&seed, b"p");
        let mut b = HmacDrbg::new(&seed, b"p");
        let (mut out_a, mut out_b) = (vec![0u8; n], vec![0u8; n]);
        a.generate(&mut out_a);
        b.generate(&mut out_b);
        prop_assert_eq!(out_a, out_b);
    }

    /// Constant-time equality agrees with ==.
    #[test]
    fn ct_eq_correct(a in prop::collection::vec(any::<u8>(), 0..64),
                     b in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct::ct_eq(&a, &b), a == b);
    }

    /// DSA: any message round-trips; any *other* message fails.
    #[test]
    fn dsa_roundtrip(seed in prop::collection::vec(any::<u8>(), 1..48),
                     msg in prop::collection::vec(any::<u8>(), 0..256),
                     other in prop::collection::vec(any::<u8>(), 0..256)) {
        let dsa = Dsa::new(DsaParams::insecure_512().clone());
        let (sk, vk) = dsa.keypair_from_seed(&seed);
        let sig = dsa.sign(&sk, &msg);
        prop_assert!(dsa.verify(&vk, &msg, &sig));
        if other != msg {
            prop_assert!(!dsa.verify(&vk, &other, &sig));
        }
    }

    /// The fixed-base table answers `g^e` exactly as `mod_pow` does, on
    /// the comb below `2^N` and on the generic window from `2^N` up.
    #[test]
    fn table_power_matches_mod_pow(pick in any::<bool>(), e in exponent_material()) {
        let params = params(pick);
        let e = exponent(params, e);
        params.pow_g(&Natural::zero()); // the table is built before counting
        let before = counts();
        let got = params.pow_g(&e);
        let spent = counts() - before;
        prop_assert_eq!(&got, &params.g().mod_pow(&e, params.p()));
        let n = params.q().bit_length() as u64;
        if e.bit_length() as u64 > n {
            prop_assert!(spent.squarings >= n - 3, "the window: {spent:?}");
        } else {
            prop_assert!(spent.products() <= 40, "the comb: {spent:?}");
        }
    }

    /// The verify product is `g^u1 · y^u2` as two `mod_pow`s and a
    /// `mod_mul`, for exponents on and past the table and any `y`.
    #[test]
    fn verify_product_matches_two_mod_pows(pick in any::<bool>(),
                                           u1 in exponent_material(), u2 in exponent_material(),
                                           y in prop::collection::vec(any::<u8>(), 0..140)) {
        let params = params(pick);
        let p = params.p();
        let (u1, u2) = (exponent(params, u1), exponent(params, u2));
        let y = Natural::from_bytes_be(&y);
        prop_assert_eq!(
            params.pow_g_mul(&u1, &y, &u2),
            params.g().mod_pow(&u1, p).mod_mul(&y.mod_pow(&u2, p), p)
        );
    }

    /// `verify` gives the verdict two `mod_pow`s gave, on honest,
    /// out-of-range and random `r`, `s` and `y`.
    #[test]
    fn verify_verdict_matches_reference(pick in any::<bool>(),
                                        seed in prop::collection::vec(any::<u8>(), 1..16),
                                        r in (prop::collection::vec(any::<u8>(), 0..20), 0u8..10),
                                        s in (prop::collection::vec(any::<u8>(), 0..20), 0u8..10),
                                        y in (prop::collection::vec(any::<u8>(), 0..128), 0u8..10)) {
        let params = params(pick);
        let dsa = Dsa::new(params.clone());
        let (sk, vk) = dsa.keypair_from_seed(&seed);
        let sig = dsa.sign(&sk, b"msg");
        let (q, p) = (params.q(), params.p());
        let r = around(sig.r(), q, r);
        let s = around(sig.s(), q, s);
        let y = around(vk.y(), p, y);
        let len = params.scalar_len();
        let mut bytes = r.to_bytes_be_padded(len);
        bytes.extend(s.to_bytes_be_padded(len));
        let sig = DsaSignature::from_bytes(&bytes, params).unwrap();
        let key = DsaVerifyingKey::from_bytes(&y.to_bytes_be());
        prop_assert_eq!(dsa.verify(&key, b"msg", &sig), reference_verify(params, &y, b"msg", &r, &s));
    }

    /// The extractor is deterministic.
    #[test]
    fn extractors_deterministic(input in prop::collection::vec(any::<u8>(), 1..128),
                                seed_byte in any::<u8>()) {
        let hmac_ext = HmacExtractor::new(32);
        let seed = vec![seed_byte; 32];
        prop_assert_eq!(hmac_ext.extract(&input, &seed), hmac_ext.extract(&input, &seed));
    }
}
