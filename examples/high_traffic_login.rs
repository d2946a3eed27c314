//! High-traffic passwordless login — the request scheduler end to end.
//!
//! A fleet of login devices hits one authentication service
//! concurrently, each presenting *only* a biometric. Instead of every
//! request paying its own sweep over the enrolled population, the
//! [`ScheduledServer`] coalesces concurrent requests into adaptive
//! micro-batches: one pass over each shard's columnar arena answers a
//! whole batch (the requests that queued while the previous sweep ran),
//! and a bounded admission queue sheds
//! excess load with `Overloaded` instead of queueing without bound.
//!
//! The demo:
//! 1. enrolls a population on a 2-shard server behind the scheduler,
//! 2. storms it with concurrent genuine logins (plus one impostor),
//!    completing the full protocol — probe → challenge → signed
//!    response → verification,
//! 3. prints the scheduler's own telemetry: batch sizes, queue depth,
//!    scheduling latency, flush reasons,
//! 4. demonstrates backpressure with a deliberately tiny queue.
//!
//! Run with: `cargo run --release --example high_traffic_login`

use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::{BiometricDevice, ProtocolError, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7);

    // A 2-shard server behind the scheduler: micro-batches of up to 8,
    // each what queued while the workers were sweeping.
    let scheduler = ScheduledServer::scan(
        params.clone(),
        2,
        SchedulerConfig {
            max_batch: 8,
            queue_capacity: 256,
            ..SchedulerConfig::default()
        },
    );

    let users = 32;
    let dim = 64;
    println!("enrolling {users} users (n = {dim} features each)…");
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(dim, &mut rng);
        scheduler
            .server()
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng)?)?;
        bios.push(bio);
    }

    // The login storm: 8 concurrent clients, each a device completing
    // the full identification protocol for a few users.
    let clients = 8usize;
    let logins_per_client = 4usize;
    println!("login storm: {clients} concurrent clients × {logins_per_client} logins…");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let scheduler = &scheduler;
            let device = device.clone();
            let bios = &bios;
            let params = params.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + c as u64);
                for l in 0..logins_per_client {
                    let u = (c * logins_per_client + l) % bios.len();
                    let reading: Vec<i64> = bios[u]
                        .iter()
                        .map(|&x| x + rng.gen_range(-80i64..=80))
                        .collect();
                    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                    // Phase 1 goes through the scheduler (coalesced);
                    // phase 2 hits the server directly.
                    let chal = scheduler.identify(probe).unwrap();
                    let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                    let outcome = scheduler.server().finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                }
                // One impostor per client: sheds as NoMatch, not a panic.
                let stranger = params.sketch().line().random_vector(dim, &mut rng);
                let probe = device.probe_sketch(&stranger, &mut rng).unwrap();
                assert!(matches!(
                    scheduler.identify(probe),
                    Err(ProtocolError::NoMatch)
                ));
            });
        }
    });
    let elapsed = start.elapsed();
    let total = clients * (logins_per_client + 1);
    println!(
        "  {} identifications in {:.1?} ({:.0} req/s)",
        total,
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );

    // The scheduler's own telemetry.
    let m = scheduler.metrics();
    let latency = m.latency_us.snapshot();
    let batch = m.batch_size.snapshot();
    let depth = m.queue_depth.snapshot();
    println!("scheduler telemetry:");
    println!(
        "  admitted {} / shed {}; flushes: {} on size, {} on deadline",
        m.admitted(),
        m.shed(),
        m.size_flushes(),
        m.deadline_flushes()
    );
    println!(
        "  batch size: mean {:.1}, max {}; queue depth p99 {}",
        batch.mean(),
        batch.max,
        depth.p99
    );
    println!(
        "  scheduling latency: p50 ≤ {} µs, p99 ≤ {} µs, max {} µs",
        latency.p50, latency.p99, latency.max
    );
    assert_eq!(m.admitted(), total as u64);
    assert_eq!(m.shed(), 0);

    // Backpressure demo: a scheduler with a 2-slot queue and a long
    // batch window. Submissions beyond the queue capacity are shed
    // immediately with `Overloaded` — the server never builds an
    // unbounded backlog.
    println!("backpressure: flooding a 2-slot admission queue…");
    let tiny = ScheduledServer::scan(
        params.clone(),
        1,
        SchedulerConfig {
            max_batch: 64,
            // Long enough that a scheduling stall on a loaded 1-CPU CI
            // runner cannot let the worker drain the queue before the
            // third submit lands (the deadline anchors at t1's
            // admission).
            max_delay: Duration::from_millis(1500),
            queue_capacity: 2,
            workers: 1,
            ..SchedulerConfig::default()
        },
    );
    tiny.server()
        .enroll(device.enroll("lone-user", &bios[0], &mut rng)?)?;
    let probe = device.probe_sketch(&bios[0], &mut rng)?;
    let t1 = tiny.submit(probe.clone())?;
    let t2 = tiny.submit(probe.clone())?;
    let refused = tiny.submit(probe.clone());
    assert!(matches!(refused, Err(ProtocolError::Overloaded)));
    println!(
        "  3rd concurrent request shed with: {}",
        refused.unwrap_err()
    );
    // The queued two still complete (deadline flush), and admission
    // re-opens once the queue drains.
    t1.wait()?;
    t2.wait()?;
    tiny.identify(probe)?;
    println!("  queue drained; admission re-opened");
    println!("high-traffic login demo: OK");
    Ok(())
}
