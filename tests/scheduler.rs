//! Request-scheduler integration: scheduled identification must be
//! *semantically invisible* — any interleaving of concurrently enqueued
//! queries resolves exactly as the direct batch path would — while the
//! operational contracts (bounded queue backpressure, deadline flush on
//! a quiet server) hold.

use fuzzy_id::core::EpochIndex;
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::{BiometricDevice, FilterConfig, ProtocolError, SystemParams, WireHelper};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DIM: usize = 16;

fn build_population(
    shards: usize,
    users: usize,
    seed: u64,
) -> (SharedServer<EpochIndex>, BiometricDevice, Vec<Vec<i64>>) {
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), shards);
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(DIM, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }
    (server, device, bios)
}

/// The identity-relevant part of a phase-1 result: which record's
/// helper data came back (sessions and challenge nonces are random by
/// design, so equivalence is over the matched record, not the bytes).
fn matched_helpers(
    results: &[Result<fuzzy_id::protocol::IdentChallenge, ProtocolError>],
    server: &SharedServer<EpochIndex>,
) -> Vec<Option<WireHelper>> {
    results
        .iter()
        .map(|r| match r {
            Ok(chal) => {
                // Consume the session so the pending table stays clean
                // across comparison rounds.
                assert!(server.cancel_session(chal.session));
                Some(chal.helper.clone())
            }
            Err(ProtocolError::NoMatch) => None,
            Err(other) => panic!("unexpected error: {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Scheduled identification ≡ direct `identify_batch` on the same
    /// population, for every probe in the queue, under an arbitrary
    /// interleaving of concurrent enqueuers (client count and batch
    /// knobs drawn by proptest).
    #[test]
    fn scheduled_equals_direct_identify_batch(
        seed in 0u64..1_000,
        shards in 1usize..4,
        clients in 1usize..5,
        max_batch in 1usize..7,
        impostors in 0usize..3,
    ) {
        let users = 8;
        let (server, device, bios) = build_population(shards, users, seed);
        let params = server.params().clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);

        // The probe queue: one genuine probe per user plus impostors.
        let mut probes = Vec::new();
        for bio in &bios {
            let reading: Vec<i64> = bio
                .iter()
                .map(|&x| x + rng.gen_range(-90i64..=90))
                .collect();
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
        }
        for _ in 0..impostors {
            let stranger = params.sketch().line().random_vector(DIM, &mut rng);
            probes.push(device.probe_sketch(&stranger, &mut rng).unwrap());
        }

        // Direct path: the server's own batch entry point.
        let direct = server.identify_batch(&probes, &mut rng);
        let expected = matched_helpers(&direct, &server);

        // Scheduled path: `clients` threads enqueue disjoint interleaved
        // slices of the same queue concurrently.
        let scheduler = ScheduledServer::new(server.clone(), SchedulerConfig {
            max_batch,
            max_delay: Duration::from_millis(1),
            ..SchedulerConfig::default()
        });
        let slots: Mutex<Vec<Option<Result<_, ProtocolError>>>> =
            Mutex::new(vec![None; probes.len()]);
        std::thread::scope(|scope| {
            for c in 0..clients {
                let scheduler = &scheduler;
                let probes = &probes;
                let slots = &slots;
                scope.spawn(move || {
                    for (i, probe) in probes.iter().enumerate() {
                        if i % clients == c {
                            let result = scheduler.identify(probe.clone());
                            slots.lock().unwrap()[i] = Some(result);
                        }
                    }
                });
            }
        });
        let scheduled: Vec<Result<_, ProtocolError>> = slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("every probe was submitted"))
            .collect();
        let got = matched_helpers(&scheduled, &server);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(scheduler.metrics().admitted(), probes.len() as u64);
        prop_assert_eq!(scheduler.metrics().shed(), 0);
    }
}

/// Batch-path equivalence through the scheduler across scan kernels:
/// the micro-batches a `ScheduledServer` coalesces ride the vectorized
/// two-phase scan by default, and must resolve every probe exactly as
/// the same population served by the scalar kernel
/// (`FilterConfig::disabled()`) — both scheduled and direct.
#[test]
fn scheduled_batches_agree_across_scan_kernels() {
    let users = 12;
    let configs = [
        SystemParams::insecure_test_defaults(), // default: vectorized plane
        SystemParams::insecure_test_defaults().with_filter_config(FilterConfig::disabled()),
    ];
    let mut all_helpers: Vec<Vec<Option<WireHelper>>> = Vec::new();
    for params in configs {
        // Identical seed → identical enrollments and probes on both
        // servers; only the scan kernel differs.
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 2);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(0xF117);
        let mut probes = Vec::new();
        for u in 0..users {
            let bio = params.sketch().line().random_vector(DIM, &mut rng);
            server
                .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
                .unwrap();
            let reading: Vec<i64> = bio.iter().map(|&x| x + 60 - (u as i64 * 9)).collect();
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
        }
        // An impostor that should match nobody.
        let stranger = params.sketch().line().random_vector(DIM, &mut rng);
        probes.push(device.probe_sketch(&stranger, &mut rng).unwrap());

        // Direct batch path.
        let direct = server.identify_batch(&probes, &mut rng);
        let direct_helpers = matched_helpers(&direct, &server);
        // Scheduled path, coalesced into micro-batches.
        let scheduler = ScheduledServer::new(
            server.clone(),
            SchedulerConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                ..SchedulerConfig::default()
            },
        );
        let scheduled: Vec<Result<_, ProtocolError>> = probes
            .iter()
            .map(|p| scheduler.identify(p.clone()))
            .collect();
        let scheduled_helpers = matched_helpers(&scheduled, &server);
        assert_eq!(scheduled_helpers, direct_helpers);
        assert_eq!(scheduled_helpers.last(), Some(&None), "impostor matched");
        assert!(
            scheduled_helpers[..users].iter().all(Option::is_some),
            "a genuine probe went unmatched"
        );
        all_helpers.push(scheduled_helpers);
    }
    // Vectorized and scalar kernels resolved every probe identically.
    assert_eq!(all_helpers[0], all_helpers[1]);
}

/// Queue fills → `Overloaded`; drains → accepts again.
#[test]
fn backpressure_sheds_then_recovers() {
    let (server, device, bios) = build_population(1, 1, 42);
    let mut rng = StdRng::seed_from_u64(43);
    let scheduler = ScheduledServer::new(
        server,
        SchedulerConfig {
            max_batch: 16,
            // The only worker sits in its batch window for the whole
            // first phase of the test: nothing can drain early.
            max_delay: Duration::from_millis(1500),
            queue_capacity: 2,
            workers: 1,
            ..SchedulerConfig::default()
        },
    );
    let probe = device.probe_sketch(&bios[0], &mut rng).unwrap();

    let t1 = scheduler.submit(probe.clone()).unwrap();
    let t2 = scheduler.submit(probe.clone()).unwrap();
    // Queue full (capacity 2): the third request is shed immediately…
    assert!(matches!(
        scheduler.submit(probe.clone()),
        Err(ProtocolError::Overloaded)
    ));
    assert_eq!(scheduler.metrics().shed(), 1);
    // …the queued two still complete when the window expires…
    let c1 = t1.wait().unwrap();
    let c2 = t2.wait().unwrap();
    assert!(scheduler.server().cancel_session(c1.session));
    assert!(scheduler.server().cancel_session(c2.session));
    // …and a drained queue accepts again.
    let c3 = scheduler.identify(probe).unwrap();
    assert!(scheduler.server().cancel_session(c3.session));
    assert_eq!(scheduler.metrics().admitted(), 3);
}

/// A lone query on a quiet server flushes by deadline: it waits out the
/// batch window (nothing else will ever fill the batch) and completes.
#[test]
fn lone_query_flushes_within_the_window() {
    let (server, device, bios) = build_population(2, 2, 77);
    let params = server.params().clone();
    let mut rng = StdRng::seed_from_u64(78);
    let window = Duration::from_millis(50);
    // A fresh scheduler over an equivalent fresh population.
    let scheduler = ScheduledServer::scan(
        params,
        2,
        SchedulerConfig {
            max_batch: 64,
            max_delay: window,
            ..SchedulerConfig::default()
        },
    );
    for (u, bio) in bios.iter().enumerate() {
        scheduler
            .server()
            .enroll(device.enroll(&format!("user-{u}"), bio, &mut rng).unwrap())
            .unwrap();
    }

    let reading: Vec<i64> = bios[1].iter().map(|&x| x - 30).collect();
    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
    let start = Instant::now();
    let chal = scheduler.identify(probe).unwrap();
    let elapsed = start.elapsed();
    // The batch can never fill (one request, max_batch 64): only the
    // deadline can flush it — no earlier than the window, and not
    // unboundedly later (generous upper bound for loaded CI runners).
    assert!(elapsed >= window - Duration::from_millis(5), "{elapsed:?}");
    assert!(elapsed < Duration::from_secs(10), "{elapsed:?}");
    assert_eq!(scheduler.metrics().deadline_flushes(), 1);
    assert_eq!(scheduler.metrics().size_flushes(), 0);
    assert_eq!(scheduler.metrics().batch_size.snapshot().max, 1);

    // The full protocol completes through the scheduled challenge.
    let resp = device.respond(&reading, &chal, &mut rng).unwrap();
    let outcome = scheduler.server().finish_identification(&resp).unwrap();
    assert_eq!(outcome.identity(), Some("user-1"));
}
