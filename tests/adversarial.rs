//! Adversarial integration tests exercising the paper's threat model
//! (Sec. VI-B): channel tampering, helper-data modification, replay,
//! session confusion and signature forgery.

use fuzzy_id::protocol::{
    AuthenticationServer, BiometricDevice, IdentChallenge, IdentOutcome, ProtocolError,
    SystemParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct World {
    device: BiometricDevice,
    server: AuthenticationServer,
    bios: Vec<Vec<i64>>,
    rng: StdRng,
}

fn setup(users: usize, dim: usize, seed: u64) -> World {
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(dim, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }
    World {
        device,
        server,
        bios,
        rng,
    }
}

fn genuine_reading(w: &mut World, u: usize) -> Vec<i64> {
    let bio = w.bios[u].clone();
    bio.iter()
        .map(|&x| x + w.rng.gen_range(-90i64..=90))
        .collect()
}

#[test]
fn helper_data_tamper_in_flight_detected() {
    let mut w = setup(3, 200, 10);
    let reading = genuine_reading(&mut w, 0);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    let challenge = w.server.begin_identification(&probe, &mut w.rng).unwrap();

    let adversary = |mut m: IdentChallenge| {
        m.helper.sketch.inner[3] -= 6;
        m
    };
    let tampered = adversary(challenge);
    assert!(w.device.respond(&reading, &tampered, &mut w.rng).is_err());
}

#[test]
fn tag_tamper_detected() {
    let mut w = setup(3, 200, 11);
    let reading = genuine_reading(&mut w, 1);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    let mut challenge = w.server.begin_identification(&probe, &mut w.rng).unwrap();
    challenge.helper.sketch.tag[0] ^= 0x01;
    assert!(w.device.respond(&reading, &challenge, &mut w.rng).is_err());
}

#[test]
fn extractor_seed_tamper_breaks_signature() {
    // Flipping the seed does not break Rec (the seed is outside the
    // robust hash in the paper's P = (s, r)), but the reproduced key —
    // and thus the derived signing key — changes, so the server's
    // verification fails.
    let mut w = setup(3, 200, 12);
    let reading = genuine_reading(&mut w, 1);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    let mut challenge = w.server.begin_identification(&probe, &mut w.rng).unwrap();
    challenge.helper.seed[0] ^= 0xff;
    let response = w.device.respond(&reading, &challenge, &mut w.rng).unwrap();
    assert_eq!(
        w.server.finish_identification(&response).unwrap(),
        IdentOutcome::Rejected
    );
}

#[test]
fn response_replay_rejected() {
    let mut w = setup(3, 200, 13);
    let reading = genuine_reading(&mut w, 2);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    let challenge = w.server.begin_identification(&probe, &mut w.rng).unwrap();
    let response = w.device.respond(&reading, &challenge, &mut w.rng).unwrap();
    assert!(w
        .server
        .finish_identification(&response)
        .unwrap()
        .is_identified());
    assert_eq!(
        w.server.finish_identification(&response).unwrap_err(),
        ProtocolError::UnknownSession
    );
}

#[test]
fn cross_session_response_rejected() {
    // A response signed for session A must not complete session B.
    let mut w = setup(3, 200, 14);
    let reading_a = genuine_reading(&mut w, 0);
    let reading_b = genuine_reading(&mut w, 1);
    let probe_a = w.device.probe_sketch(&reading_a, &mut w.rng).unwrap();
    let probe_b = w.device.probe_sketch(&reading_b, &mut w.rng).unwrap();
    let chal_a = w.server.begin_identification(&probe_a, &mut w.rng).unwrap();
    let chal_b = w.server.begin_identification(&probe_b, &mut w.rng).unwrap();
    let mut response_a = w.device.respond(&reading_a, &chal_a, &mut w.rng).unwrap();
    // Adversary redirects A's response at session B.
    response_a.session = chal_b.session;
    assert_eq!(
        w.server.finish_identification(&response_a).unwrap(),
        IdentOutcome::Rejected
    );
}

#[test]
fn stolen_helper_data_without_biometric_is_useless() {
    // Insider adversary reads all stored helper data; without a close
    // biometric, Rep fails for every record.
    let mut w = setup(5, 200, 15);
    let params = w.server.params().clone();
    let fe = params.fuzzy_extractor();
    let fake_bio = params.sketch().line().random_vector(200, &mut w.rng);
    for (_, helper) in w.server.all_helpers() {
        assert!(fe.reproduce(&fake_bio, &helper).is_err());
    }
}

#[test]
fn sketch_leak_does_not_reveal_biometric_interval_offsets_only() {
    // The sketch reveals each coordinate's offset within its interval but
    // not which interval: enumerate the preimages consistent with one
    // sketch coordinate and confirm there are exactly v of them.
    let w = setup(1, 4, 16);
    let params = w.server.params().clone();
    let line = *params.sketch().line();
    let (_, helper) = w.server.all_helpers().pop().unwrap();
    let s0 = helper.sketch.inner[0];
    let mut consistent = 0u64;
    let half = line.half_range() as i64;
    for x in (-half + 1)..=half {
        // x is consistent with s0 iff moving x by s0 lands on an
        // identifier (boundary points are consistent with ±ka/2 only).
        let target = line.wrap(x + s0);
        if line.distance_to_identifier(target) == 0 {
            consistent += 1;
        }
    }
    assert_eq!(consistent, line.v(), "exactly one preimage per interval");
}

#[test]
fn forged_public_key_enrollment_does_not_impersonate_existing_user() {
    // Mallory enrolls under her own id with her own biometric; she still
    // cannot be identified as anyone else.
    let mut w = setup(2, 200, 17);
    let mallory_bio = w
        .server
        .params()
        .sketch()
        .line()
        .random_vector(200, &mut w.rng);
    let record = w
        .device
        .enroll("mallory", &mallory_bio, &mut w.rng)
        .unwrap();
    w.server.enroll(record).unwrap();
    let reading: Vec<i64> = mallory_bio.iter().map(|&x| x + 10).collect();
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    let chal = w.server.begin_identification(&probe, &mut w.rng).unwrap();
    let resp = w.device.respond(&reading, &chal, &mut w.rng).unwrap();
    let outcome = w.server.finish_identification(&resp).unwrap();
    assert_eq!(outcome.identity(), Some("mallory"));
}

#[test]
fn two_user_matching_probe_cannot_reset() {
    // An adversary who engineers a biometric close to *two* enrolled
    // users (here: a duplicate enrollment admitted under the permissive
    // policy) must not be able to trigger account reset — the exactly-
    // one rule refuses the ambiguous probe instead of picking a victim.
    let mut w = setup(3, 200, 19);
    let twin_bio = genuine_reading(&mut w, 0);
    let dup = w
        .device
        .enroll("user-0-twin", &twin_bio, &mut w.rng)
        .unwrap();
    w.server.enroll(dup).unwrap();
    let reading = w.bios[0].clone();
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    assert_eq!(
        w.server.reset(&probe).unwrap_err(),
        ProtocolError::AmbiguousMatch
    );
    // A probe near a *unique* user still resets — the refusal above is
    // the ambiguity, not the mode being broken.
    let reading = genuine_reading(&mut w, 2);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    assert_eq!(w.server.reset(&probe).unwrap(), "user-2");
}

#[test]
fn cross_user_claim_fails_targeted_authentication() {
    // Mallory presents her own (enrolled) biometric while claiming to
    // be someone else: the claim is verified against exactly the
    // claimed record, so matching *some* user gains nothing.
    let mut w = setup(3, 200, 20);
    let reading = genuine_reading(&mut w, 0);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    assert!(w.server.authenticate_claimed("user-0", &probe).unwrap());
    assert!(!w.server.authenticate_claimed("user-1", &probe).unwrap());
    assert!(!w.server.authenticate_claimed("user-2", &probe).unwrap());
    // Claiming an unenrolled id is an error, not a silent false.
    assert_eq!(
        w.server.authenticate_claimed("ghost", &probe).unwrap_err(),
        ProtocolError::UnknownUser("ghost".into())
    );
}

#[test]
fn dropped_messages_leave_no_exploitable_state() {
    let mut w = setup(2, 200, 18);
    let reading = genuine_reading(&mut w, 0);
    let probe = w.device.probe_sketch(&reading, &mut w.rng).unwrap();
    let challenge = w.server.begin_identification(&probe, &mut w.rng).unwrap();
    let session = challenge.session;
    let black_hole = |_: IdentChallenge| None::<IdentChallenge>;
    assert!(black_hole(challenge).is_none());
    // An attacker who saw the session id on the wire cannot finish the
    // session without a valid signature.
    let forged = fuzzy_id::protocol::IdentResponse {
        session,
        signature: vec![0u8; 40],
        nonce: 1,
    };
    assert_eq!(
        w.server.finish_identification(&forged).unwrap(),
        IdentOutcome::Rejected
    );
}
