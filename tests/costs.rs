//! Exact costs, counted rather than timed: Montgomery products per DSA
//! operation and per login, from `fe-bigint`'s per-thread counters.
//!
//! A count does not move with the host's speed, so these are equalities.
//! Each pinned number is beside what the same operation took with one
//! generic 4-bit-window `mod_pow` per power of `g` (and two per
//! verification), the code the fixed-base comb replaced.

use fuzzy_id::bigint::montgomery::{counts, Counts};
use fuzzy_id::crypto::dsa::{Dsa, DsaParams};
use fuzzy_id::crypto::sig::SignatureScheme;
use fuzzy_id::protocol::{AuthenticationServer, BiometricDevice, IdentOutcome, SystemParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `f`'s result and the Montgomery operations it ran on this thread.
fn cost<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = counts();
    let out = f();
    (out, counts() - before)
}

/// The paper's 1024-bit group, its `g` table already built (the build is
/// once per process, not per operation).
fn dsa_1024() -> Dsa {
    let params = DsaParams::dsa_1024_160();
    params.pow_g(&fuzzy_id::bigint::Natural::one());
    Dsa::new(params.clone())
}

#[test]
fn a_device_key_costs_at_most_39_products() {
    let dsa = dsa_1024();
    // ≤ 19 squarings and ≤ 19 multiplications along the comb's 20
    // columns, and one conversion out: ≤ 39 whatever the seed. Was 209–215
    // on these seeds.
    for seed in 0..32u8 {
        let (_, spent) = cost(|| dsa.keypair_from_seed(&[seed; 32]));
        assert!(spent.squarings <= 19, "seed {seed}: {spent:?}");
        assert!(spent.products() <= 39, "seed {seed}: {spent:?}");
        assert_eq!(spent.contexts, 0, "nothing is built per call");
    }
    let (_, spent) = cost(|| dsa.keypair_from_seed(b"costs"));
    assert_eq!(spent.products(), 39); // was 209
}

#[test]
fn sign_and_verify_costs_are_pinned() {
    let dsa = dsa_1024();
    let (sk, vk) = dsa.keypair_from_seed(b"costs");
    // `g^k` on the comb. Was 213.
    let (sig, spent) = cost(|| dsa.sign(&sk, b"challenge"));
    assert_eq!(spent.products(), 39);
    // `g^u1 · y^u2` on one squaring chain: `y`'s 4-bit window table
    // (7 squarings, 7 multiplications, one conversion in), 156 squarings
    // that the comb's 20 columns ride on, and one conversion out. Was 421.
    let (ok, spent) = cost(|| dsa.verify(&vk, b"challenge", &sig));
    assert!(ok);
    assert_eq!(
        (spent.squarings, spent.multiplications, spent.contexts),
        (163, 65, 0)
    );
}

/// A device enrolls `n` users on one in-process server, then the first
/// logs in (`begin_identification` → `respond` → `finish_identification`)
/// with the same readings and randomness whatever `n` is.
fn login_cost(n: usize) -> Counts {
    let params = SystemParams::paper_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());
    let line = params.sketch().line();
    let mut rng = StdRng::seed_from_u64(7);
    let bio = line.random_vector(64, &mut rng);
    server
        .enroll(device.enroll("target", &bio, &mut rng).unwrap())
        .unwrap();
    let mut others = StdRng::seed_from_u64(8);
    for i in 1..n {
        let other = line.random_vector(64, &mut others);
        let record = device
            .enroll(&format!("user-{i}"), &other, &mut others)
            .unwrap();
        server.enroll(record).unwrap();
    }
    assert_eq!(server.user_count(), n);

    let mut rng = StdRng::seed_from_u64(9);
    let (outcome, spent) = cost(|| {
        let probe = device.probe_sketch(&bio, &mut rng).unwrap();
        let challenge = server.begin_identification(&probe, &mut rng).unwrap();
        let response = device.respond(&bio, &challenge, &mut rng).unwrap();
        server.finish_identification(&response).unwrap()
    });
    assert!(matches!(outcome, IdentOutcome::Identified(ref id) if id == "target"));
    spent
}

/// Fig. 4 as an equality: one signature and one verification per
/// identification, whatever the population. The sweep that finds the
/// record does no modular arithmetic, so a login costs exactly the same
/// products at N = 1 and N = 10³: `respond`'s key and signature on the
/// comb and the server's one verification, 304 in all. Was 844 at both.
#[test]
fn a_login_costs_the_same_products_at_any_population() {
    dsa_1024();
    let one = login_cost(1);
    assert_eq!(one, login_cost(1_000));
    assert_eq!(one.products(), 304);
    assert_eq!(one.contexts, 0);
}
