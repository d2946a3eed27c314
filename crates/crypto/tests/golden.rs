//! Golden vectors: the exact bytes of DSA public keys and signatures.
//!
//! Keys and nonces are deterministic (`keypair_from_seed`, RFC-6979-style
//! nonces), so every byte below is a function of the domain parameters,
//! the seed and the message alone. Enrollment records on disk hold these
//! public keys and PROTOCOL.md carries these signatures, so any change to
//! how an exponentiation is computed must leave them byte-identical.

use fe_bigint::{random_below, Natural};
use fe_crypto::dsa::{Dsa, DsaParams, DsaSignature, DsaVerifyingKey};
use fe_crypto::sig::SignatureScheme;
use fe_crypto::{hex_encode, HmacDrbg, Sha256};

const SEEDS: [&[u8]; 3] = [b"golden seed 0", b"golden seed 1", b"golden seed 2"];
const MESSAGES: [&[u8]; 2] = [b"", b"challenge || nonce"];

/// One public key per seed, then its signatures on each message.
struct Vectors {
    params: &'static DsaParams,
    keys: [&'static str; 3],
    signatures: [[&'static str; 2]; 3],
}

fn check(vectors: &Vectors) {
    let dsa = Dsa::new(vectors.params.clone());
    for (s, seed) in SEEDS.iter().enumerate() {
        let (sk, vk) = dsa.keypair_from_seed(seed);
        assert_eq!(
            hex_encode(&vk.to_bytes(vectors.params)),
            vectors.keys[s],
            "public key of seed {s}"
        );
        for (m, msg) in MESSAGES.iter().enumerate() {
            let sig = dsa.sign(&sk, msg);
            let bytes = sig.to_bytes(vectors.params);
            assert_eq!(
                hex_encode(&bytes),
                vectors.signatures[s][m],
                "signature of seed {s} on message {m}"
            );
            // The pinned bytes are a valid signature, parsed back.
            let parsed = DsaSignature::from_bytes(&bytes, vectors.params).expect("two scalars");
            let key = DsaVerifyingKey::from_bytes(&vk.to_bytes(vectors.params));
            assert!(dsa.verify(&key, msg, &parsed), "seed {s}, message {m}");
        }
    }
}

#[test]
fn dsa_1024_160_keys_and_signatures_are_pinned() {
    check(&Vectors {
        params: DsaParams::dsa_1024_160(),
        keys: [
            "52fb7e67bf6827319b683eadbec94e91881e3d8260fa618c77321a2cba6836b9de932d878eb6875a1ad3b114b0d63fadfa87e327325a3adc9915662e172fdcf86f12c99edb8c216bb9e37f46ad974e0d47bef210b66f0c0a6eb062d606806ce02b976d29480f3ba3e96c1aa4d034eff78fb12b01ef9d3d3283ea66d71f0a6eba",
            "4dd8fe09b8990ed2c89e89d79b1af5eef3c71d2325a7cf90c474d4a86fb17942a8256ec1c6a75ff7704c3c05dc263314af160146d579dfb7e5c8d0f000420ee625fc1e3409900754338d907dc7e4a50d2365efe8c2bdeafab180fb8bb20724fdba5fe59452c3c0538363659f08f8fc7df6b0e3d3959cc2cceecf17fbf04a33af",
            "1b91c8d0c66934ccc04f3873ea3d0ab074964fd34ae8fcc115975dc7958d6fdc79775e2f9ed4aa8ed58e543a2af1adc1312529cd4ad92a86582fb056a2bf07a09debb01b8197508e1fc53f94f324e161367e627b5753fb86b22f3d894905ec598aec0d24df14283ef392879f5134090ca256d1039cf6103c3775bd8ca7da41ef",
        ],
        signatures: [
            [
                "22c8b00274bbdf400d8e52e0d6f01ea804e3cda74cfd43e59f507b224ff8ab2ce796c72042d19d99",
                "648fb1dc050990cb5d49c65c411bab8d2978100060e8a1cb178ba5b3c6888245cbc6248c37071a65",
            ],
            [
                "8e8e77db9f5fdf2fbf4778587d0d333de4b0c0220fb8815553ae936aefda9d0d463ded868f4631b8",
                "204702eedf8f3afe5426cb69ff12cbe6f8908df898d1c2f222c0cd0064c0593784a4775543936665",
            ],
            [
                "8f90f7871faac0b884bcde80cb308aa9be80fd253be00cf4b64afa2c8040e2c1fbb9dba71a9e15cb",
                "45d8d4d2a5678811a590cd71a4755c22c00776429625436e5700830e31fdf383fb1696c5db3ca689",
            ],
        ],
    });
}

#[test]
fn insecure_512_keys_and_signatures_are_pinned() {
    check(&Vectors {
        params: DsaParams::insecure_512(),
        keys: [
            "67ff3a030e073f00ea89e1e5e63bfce77bf1274758bae558e75befa53f8ec88375e52bfe257a25e4a0dadc8269dbc6d1fdc80d69794f57086e24a0f1964e2ea8",
            "1e655f1b0c963184cb804f0001473944729b06b56d296140b6298d8ccdeaf2ed93d5fc06d8026bff4b4017df6a4e960c20e99cad92f0e34ac61e8ee64df8dad5",
            "b7ce841e1f1674ae794c44d6cf093e22722de84e6e22b4485a754ab2ba834d64064e7ce7b20a11878a75d8dabda0303fa3448457d6c647d1632560a4337fef5f",
        ],
        signatures: [
            [
                "144a2765d650d1ca686edcb6d2440da31f47bdd658cf9aad6c5a1aeb33fc679e667001021c6ce34b",
                "7bcf72340d1a55fc90b09b92d636d2d4e4371cd711823287323647344d740278d93ed9b6f03a1b2b",
            ],
            [
                "2e03b88e4b459c59a39345d47e21582c954149eb7b49b251ca0e86e19e6781117084feb02d6dde49",
                "1fad3e74b9ee0dc4b36faf194fc5e8edbe72f335290bd76959ac3020c1d29c849ac04d01eb33e4d0",
            ],
            [
                "40b29b0ff7644b1c6f0fe544c6f44229e0d5d63e0497cb960760e3e448a18bb0e551cdf0c60bd608",
                "3dc00cc5b968d7969818e501658f4089867c5a294599f9e0a6cdabeec81655b75248933ac3f164a3",
            ],
        ],
    });
}

/// A scalar in `[1, q−1]` as `DsaParams` derives one from seed bytes:
/// HMAC-DRBG under `label`, then `1 + random_below(q − 1)`.
fn scalar_from_seed(params: &DsaParams, seed: &[u8], label: &[u8]) -> Natural {
    let mut drbg = HmacDrbg::new(seed, label);
    let q_minus_1 = params.q().checked_sub(&Natural::one()).expect("q >= 2");
    &random_below(&q_minus_1, &mut drbg) + &Natural::one()
}

/// A nonce retry is out of reach at 160-bit `q` (`r` or `s` is zero with
/// probability ≈ 2⁻¹⁵⁹), so it is pinned in a toy group: `p = 2039`,
/// `q = 1019`, `g = 4`. This seed and message were found by search; the
/// test recomputes the first nonce to show it really yields `s = 0`, so the
/// pinned signature is the one drawn with retry counter 1.
#[test]
fn a_nonce_retry_is_pinned() {
    let params = DsaParams::from_parts(
        Natural::from(2039u64),
        Natural::from(1019u64),
        Natural::from(4u64),
    );
    let (p, q) = (params.p(), params.q());
    let (seed, msg) = (&b"golden seed 0"[..], &b"retry 463"[..]);

    let x = scalar_from_seed(&params, seed, b"fe-dsa-keygen");
    let mut nonce_seed = x.to_bytes_be_padded(params.scalar_len());
    nonce_seed.extend_from_slice(&Sha256::digest(msg));
    nonce_seed.push(0);
    let k = scalar_from_seed(&params, &nonce_seed, b"fe-dsa-nonce");
    let r = params.g().mod_pow(&k, p).rem_nat(q);
    // z: the leftmost 10 bits of SHA-256(msg), as `q` has 10 bits.
    let digest = Sha256::digest(msg);
    let z = Natural::from_bytes_be(&digest[..2]).shr_bits(6);
    assert!(!r.is_zero());
    assert!(
        z.mod_add(&x.mod_mul(&r, q), q).is_zero(),
        "the first nonce gives s = 0, so signing must retry"
    );

    let dsa = Dsa::new(params.clone());
    let (sk, vk) = dsa.keypair_from_seed(seed);
    assert_eq!(hex_encode(&vk.to_bytes(&params)), "02d5");
    let sig = dsa.sign(&sk, msg);
    assert_eq!(hex_encode(&sig.to_bytes(&params)), "006401a1");
    assert!(dsa.verify(&vk, msg, &sig));
}
