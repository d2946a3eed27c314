//! Active-adversary demo: the robust sketch (Sec. IV-C, Boyen et al.)
//! detects helper-data tampering, both at rest and in flight on the
//! device↔server link.
//!
//! Run with: `cargo run --release --example tamper_detection`

use fuzzy_id::protocol::{AuthenticationServer, BiometricDevice, IdentChallenge, SystemParams};
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());

    let bio = params.sketch().line().random_vector(500, &mut rng);
    server.enroll(device.enroll("alice", &bio, &mut rng)?)?;

    let reading: Vec<i64> = bio
        .iter()
        .map(|&x| x + rng.gen_range(-80i64..=80))
        .collect();

    // 1. Honest run over a clean link.
    let probe = device.probe_sketch(&reading, &mut rng)?;
    let delivered = server.begin_identification(&probe, &mut rng)?;
    let response = device.respond(&reading, &delivered, &mut rng)?;
    let outcome = server.finish_identification(&response)?;
    println!("clean link:     {outcome:?} ✓");

    // 2. A man-in-the-middle perturbs the helper data in flight: the
    //    robust sketch's hash check on the device catches it.
    let probe = device.probe_sketch(&reading, &mut rng)?;
    let evil_link = |mut msg: IdentChallenge| {
        msg.helper.sketch.inner[0] += 4; // nudge one movement
        msg
    };
    let tampered = evil_link(server.begin_identification(&probe, &mut rng)?);
    match device.respond(&reading, &tampered, &mut rng) {
        Err(e) => println!("tampered link:  device refuses to answer ({e}) ✓"),
        Ok(_) => println!("tampered link:  UNEXPECTED response"),
    }

    // 3. The adversary drops the challenge entirely: the device never
    //    sees it and the pending session on the server stays unanswered.
    let probe = device.probe_sketch(&reading, &mut rng)?;
    let black_hole = |_: IdentChallenge| None::<IdentChallenge>;
    let challenge = server.begin_identification(&probe, &mut rng)?;
    let session = challenge.session;
    assert!(black_hole(challenge).is_none());
    println!("dropped link:   nothing reaches the device (session {session} stays unanswered) ✓");

    Ok(())
}
