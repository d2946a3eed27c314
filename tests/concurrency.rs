//! Concurrency integration: one shared authentication server, many
//! devices enrolling, identifying, verifying and revoking in parallel —
//! exercised on both the seed-compatible single-shard configuration and
//! the sharded configurations (per-shard locks, batched
//! identification).

use fuzzy_id::core::{EpochIndex, EpochRead};
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::{BiometricDevice, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy(bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
    bio.iter()
        .map(|&x| x + rng.gen_range(-90i64..=90))
        .collect()
}

/// Every user identifies 3 times concurrently against `server`.
fn run_identification_storm<I: EpochRead + Send + Sync>(server: SharedServer<I>, seed: u64) {
    let params = server.params().clone();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    let users = 12usize;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(200, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    crossbeam::scope(|scope| {
        for round in 0..3u64 {
            for (u, bio) in bios.iter().enumerate() {
                let server = server.clone();
                let device = device.clone();
                scope.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(round * 1000 + u as u64);
                    let reading = noisy(bio, &mut rng);
                    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                    let chal = server.begin_identification(&probe, &mut rng).unwrap();
                    let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                    let outcome = server.finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                });
            }
        }
    })
    .expect("no thread panicked");
}

#[test]
fn parallel_identification_storm_single_shard() {
    // The seed-compatible configuration: one shard.
    run_identification_storm(
        SharedServer::new(SystemParams::insecure_test_defaults()),
        7_000,
    );
}

#[test]
fn parallel_identification_storm_sharded() {
    // Four server shards, each its own epoch engine and lock.
    run_identification_storm(
        SharedServer::<EpochIndex>::with_shards(SystemParams::insecure_test_defaults(), 4),
        7_001,
    );
}

#[test]
fn interleaved_sessions_do_not_cross_talk() {
    // Open all challenges first, answer them in reverse order: every
    // session must still resolve to its own user — across shard
    // session-namespaces.
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 3);
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7_100);

    let users = 6usize;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(150, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    let mut open = Vec::new();
    for (u, bio) in bios.iter().enumerate() {
        let reading = noisy(bio, &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        open.push((u, reading, chal));
    }
    // Sessions must be globally unique even though three shards issue
    // them independently.
    let mut sessions: Vec<u64> = open.iter().map(|(_, _, c)| c.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions.len(), users);

    for (u, reading, chal) in open.into_iter().rev() {
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        let outcome = server.finish_identification(&resp).unwrap();
        assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
    }
}

#[test]
fn enrollment_and_identification_interleave() {
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 4);
    let device = BiometricDevice::new(params.clone());

    // Seed population.
    let mut rng = StdRng::seed_from_u64(7_200);
    let mut bios = Vec::new();
    for u in 0..4 {
        let bio = params.sketch().line().random_vector(150, &mut rng);
        server
            .enroll(device.enroll(&format!("seed-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    crossbeam::scope(|scope| {
        // Writers: enroll 8 new users.
        for w in 0..8 {
            let server = server.clone();
            let device = device.clone();
            scope.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(8_000 + w);
                let bio = device.params().sketch().line().random_vector(150, &mut rng);
                server
                    .enroll(device.enroll(&format!("new-{w}"), &bio, &mut rng).unwrap())
                    .unwrap();
            });
        }
        // Readers: identify seed users while writers run.
        for (u, bio) in bios.iter().enumerate() {
            let server = server.clone();
            let device = device.clone();
            scope.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(9_000 + u as u64);
                let reading = noisy(bio, &mut rng);
                let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                let chal = server.begin_identification(&probe, &mut rng).unwrap();
                let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                assert!(server.finish_identification(&resp).unwrap().is_identified());
            });
        }
    })
    .expect("no thread panicked");
    assert_eq!(server.user_count(), 12);
}

#[test]
fn concurrent_batches_from_many_frontends() {
    // Several frontend threads each submit a whole batch; all batches
    // resolve correctly and sessions never collide.
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 4);
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7_300);

    let users = 9usize;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(120, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    crossbeam::scope(|scope| {
        for frontend in 0..3u64 {
            let server = server.clone();
            let device = device.clone();
            let bios = &bios;
            scope.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(10_000 + frontend);
                let picks: Vec<usize> = (0..users).filter(|u| u % 3 == frontend as usize).collect();
                let mut readings = Vec::new();
                let mut batch = Vec::new();
                for &u in &picks {
                    let reading = noisy(&bios[u], &mut rng);
                    batch.push(device.probe_sketch(&reading, &mut rng).unwrap());
                    readings.push(reading);
                }
                let results = server.identify_batch(&batch, &mut rng);
                for ((result, reading), &u) in results.iter().zip(&readings).zip(&picks) {
                    let chal = result.as_ref().expect("genuine probe matches");
                    let resp = device.respond(reading, chal, &mut rng).unwrap();
                    let outcome = server.finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                }
            });
        }
    })
    .expect("no thread panicked");
}
