//! Using the extracted key for real cryptography: derive an encryption
//! key from a biometric, encrypt a note, and decrypt it later from a
//! fresh (noisy) reading of the same biometric. No password, no stored
//! key — only public helper data is kept.
//!
//! Run with: `cargo run --release --example key_from_biometrics`

use fuzzy_id::core::{ChebyshevSketch, FuzzyExtractor};
use fuzzy_id::crypto::{Hkdf, Hmac};
use rand::{Rng, SeedableRng};

/// Toy stream cipher: XOR with an HKDF-expanded keystream, authenticated
/// with HMAC (encrypt-then-MAC). Illustrative only.
fn seal(key: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let stream = Hkdf::derive(key, b"stream", b"", plaintext.len());
    let mut ct: Vec<u8> = plaintext.iter().zip(&stream).map(|(p, k)| p ^ k).collect();
    let tag = Hmac::mac(key, &ct);
    ct.extend_from_slice(&tag);
    ct
}

fn open(key: &[u8], sealed: &[u8]) -> Option<Vec<u8>> {
    if sealed.len() < 32 {
        return None;
    }
    let (ct, tag) = sealed.split_at(sealed.len() - 32);
    if !fuzzy_id::crypto::ct::ct_eq(&Hmac::mac(key, ct), tag) {
        return None;
    }
    let stream = Hkdf::derive(key, b"stream", b"", ct.len());
    Some(ct.iter().zip(&stream).map(|(c, k)| c ^ k).collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let fe = FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32);

    // Day 0: enroll and encrypt.
    let bio = fe.sketcher().line().random_vector(3000, &mut rng);
    let (key, helper) = fe.generate(&bio, &mut rng)?;
    let secret_note = b"the vault combination is 13-37-42";
    let sealed = seal(key.as_bytes(), secret_note);
    println!(
        "encrypted {} bytes under a biometric-derived key",
        secret_note.len()
    );
    drop(key); // nothing secret is stored — only `helper` and `sealed`

    // Day 30: a fresh scan of the same biometric reproduces the key.
    let fresh_scan: Vec<i64> = bio
        .iter()
        .map(|&x| x + rng.gen_range(-100i64..=100))
        .collect();
    let key_again = fe.reproduce(&fresh_scan, &helper)?;
    let recovered = open(key_again.as_bytes(), &sealed).expect("MAC must verify");
    assert_eq!(recovered, secret_note);
    println!(
        "decrypted with a fresh reading: {:?}",
        String::from_utf8_lossy(&recovered)
    );

    // A thief with the helper data and ciphertext — but no finger — gets
    // nothing.
    let thief_scan = fe.sketcher().line().random_vector(3000, &mut rng);
    match fe.reproduce(&thief_scan, &helper) {
        Err(e) => println!("thief without the biometric: {e} ✓"),
        Ok(k) => {
            assert!(open(k.as_bytes(), &sealed).is_none());
            println!("thief key wrong: MAC rejected ✓");
        }
    }

    Ok(())
}
