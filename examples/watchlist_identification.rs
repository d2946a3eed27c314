//! Watch-list identification — the paper's motivating scenario: a user
//! presents *only* a biometric (no identity claim) and the server must
//! find who it is among N enrolled users.
//!
//! Compares the proposed constant-cost protocol (Fig. 3) against the
//! normal O(N) approach (Fig. 2) on the same population, then scales the
//! same watch list onto the **sharded server**: users partitioned across
//! 4 independently-locked shards, with a whole camera-feed batch of
//! probes resolved per lock acquisition via `identify_batch`.
//!
//! Run with: `cargo run --release --example watchlist_identification`

use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::{BiometricDevice, ProtocolRunner, SystemParams};
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let params = SystemParams::insecure_test_defaults();
    let mut runner = ProtocolRunner::new(params.clone());

    // Enroll a 25-person watch list.
    let users = 25;
    let dim = 1000;
    println!("enrolling {users} users (n = {dim} features each)…");
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(dim, &mut rng);
        runner.enroll_user(&format!("suspect-{u:02}"), &bio, &mut rng)?;
        bios.push(bio);
    }

    // An unknown person walks past the camera: it is suspect-17.
    let reading: Vec<i64> = bios[17]
        .iter()
        .map(|&x| x + rng.gen_range(-95i64..=95))
        .collect();

    // Proposed protocol: sketch match + ONE signature round.
    let start = Instant::now();
    let (outcome, stats) = runner.identify(&reading, &mut rng)?;
    println!(
        "proposed protocol:  identified {:?} in {:?} ({} Rep, {} signature ops)",
        outcome.identity().unwrap_or("nobody"),
        start.elapsed(),
        stats.rep_attempts,
        stats.signature_ops,
    );

    // Normal approach: the device must grind through helper data records.
    let start = Instant::now();
    let (outcome_n, stats_n, normal) = runner.identify_normal(&reading, &mut rng)?;
    println!(
        "normal approach:    identified {:?} in {:?} ({} Rep, {} signature ops)",
        outcome_n.identity().unwrap_or("nobody"),
        start.elapsed(),
        normal.rep_attempts,
        stats_n.signature_ops,
    );
    assert_eq!(outcome, outcome_n);

    // Someone NOT on the list walks past.
    let stranger = params.sketch().line().random_vector(dim, &mut rng);
    match runner.identify(&stranger, &mut rng) {
        Err(e) => println!("stranger:           not identified ({e}) ✓"),
        Ok((o, _)) => println!("stranger:           UNEXPECTED match {o:?}"),
    }

    // ── Scaling out: the sharded server ────────────────────────────────
    // The same watch list, now partitioned across 4 server shards,
    // serving a whole batch of camera frames per lock acquisition.
    let server: SharedServer = SharedServer::with_shards(params.clone(), 4);
    let device = BiometricDevice::new(params);
    println!(
        "\nsharded server:     {} shards, re-enrolling watch list…",
        server.num_shards()
    );
    for (u, bio) in bios.iter().enumerate() {
        server.enroll(device.enroll(&format!("suspect-{u:02}"), bio, &mut rng)?)?;
    }

    // A burst of frames: suspects 3, 17, 9 and one stranger in one batch.
    let frames: Vec<Vec<i64>> = [3usize, 17, 9]
        .iter()
        .map(|&u| {
            let reading: Vec<i64> = bios[u]
                .iter()
                .map(|&x| x + rng.gen_range(-95i64..=95))
                .collect();
            device.probe_sketch(&reading, &mut rng)
        })
        .collect::<Result<_, _>>()?;
    let mut batch = frames;
    batch.push(device.probe_sketch(&stranger, &mut rng)?);

    let start = Instant::now();
    let results = server.identify_batch(&batch, &mut rng);
    println!(
        "batch of {}:         resolved in {:?} ({} lookups served)",
        batch.len(),
        start.elapsed(),
        server.lookup_count(),
    );
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(chal) => println!("  frame {i}: matched (session {})", chal.session),
            Err(e) => println!("  frame {i}: no match ({e}) ✓"),
        }
    }
    assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
    assert!(results[3].is_err());

    Ok(())
}
