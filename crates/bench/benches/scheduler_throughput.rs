//! **Scheduler throughput (ours)**: does adaptive micro-batching beat
//! one-scan-per-request under concurrent identification load?
//!
//! One comparison, both sides inside one run, on a 10⁵-record
//! population (the sweep stays at 10⁵ even under `FE_BENCH_SMOKE=1`;
//! smoke mode only trims the measurement budget): `service/*`, closed
//! loop — C concurrent clients hammer
//! `SharedServer::begin_identification` directly vs the same clients
//! going through `ScheduledServer::identify`, whose workers coalesce
//! them into micro-batches (`direct_rps_c8` / `scheduled_rps_c8` /
//! `speedup_c8` in `BENCH_SMOKE.json`).
//!
//! It is ROADMAP item 2's stop rule — if micro-batching cannot beat
//! direct dispatch, `ScheduledServer` goes — and it is here because no
//! `fe-benchmark` workload takes both sides in one process. It asserts
//! nothing: two consecutive smoke runs on one 2-thread host read
//! `speedup_c8` 0.51× and 0.91× (three more: 0.46×, 0.55×, 0.53×), so
//! that decision is made on alternating pairs of runs, not on one
//! reading. The bench goes when the decision is made. What a request
//! pays behind the wire — the open-loop window, full batches,
//! shedding — is `fe-benchmark`'s `identify_wire` (`open` and `sat`
//! phases, `protocol.scheduler.*`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fe_bench::{smoke, time_it, SynthPopulation};
use fe_core::EpochIndex;
use fe_protocol::concurrent::SharedServer;
use fe_protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fe_protocol::SystemParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const DIM: usize = 64;
/// 10⁵ enrolled users: the acceptance-criterion scale.
const POPULATION: usize = 100_000;
/// The acceptance concurrency level.
const CONCURRENCY: usize = 8;

struct Setup {
    params: SystemParams,
    pop: SynthPopulation,
    /// Genuine probes spread across the whole population (so scan
    /// depths are uniformly distributed, like production traffic).
    probes: Vec<Vec<i64>>,
}

fn build_setup(num_probes: usize) -> Setup {
    let params = SystemParams::insecure_test_defaults();
    let mut rng = StdRng::seed_from_u64(0x5CED);
    let pop = SynthPopulation::build(&params, POPULATION, DIM, &mut rng);
    let probes = (0..num_probes)
        .map(|i| {
            pop.genuine_probe(
                &params,
                (i * POPULATION / num_probes) % POPULATION,
                &mut rng,
            )
        })
        .collect();
    Setup {
        params,
        pop,
        probes,
    }
}

/// Closed-loop service storm: every client thread issues `per_client`
/// identifications back-to-back; returns requests/second.
fn storm<F>(clients: usize, per_client: usize, run_one: F) -> f64
where
    F: Fn(usize, usize) + Sync,
{
    let (_, secs) = time_it(|| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                let run_one = &run_one;
                scope.spawn(move || {
                    for r in 0..per_client {
                        run_one(c, r);
                    }
                });
            }
        });
    });
    (clients * per_client) as f64 / secs
}

/// Protocol layer: direct concurrent identification vs scheduled, at
/// the acceptance concurrency. Also records the smoke-report numbers.
fn bench_service(c: &mut Criterion) {
    let smoke_run = smoke::smoke_mode();
    let per_client = if smoke_run { 10 } else { 24 };
    let setup = build_setup(64);
    let server = SharedServer::<EpochIndex>::with_shards(setup.params.clone(), 2);
    for record in &setup.pop.records {
        server.enroll(record.clone()).unwrap();
    }

    // The same probe pool for both paths; each (client, round) pair
    // picks a deterministic probe.
    let probes = &setup.probes;
    let pick = |c: usize, r: usize| &probes[(c * 31 + r) % probes.len()];

    let direct_rps = storm(CONCURRENCY, per_client, |c, r| {
        let mut rng = StdRng::seed_from_u64((c * 1000 + r) as u64);
        let chal = server.begin_identification(pick(c, r), &mut rng).unwrap();
        assert!(server.cancel_session(chal.session));
    });

    let scheduler = ScheduledServer::new(
        server.clone(),
        SchedulerConfig {
            max_batch: CONCURRENCY,
            max_delay: Duration::from_millis(2),
            ..SchedulerConfig::default()
        },
    );
    let scheduled_rps = storm(CONCURRENCY, per_client, |c, r| {
        let chal = scheduler.identify(pick(c, r).clone()).unwrap();
        assert!(scheduler.server().cancel_session(chal.session));
    });

    let latency = scheduler.metrics().latency_us.snapshot();
    let batch = scheduler.metrics().batch_size.snapshot();
    println!(
        "scheduler_throughput/service: direct {direct_rps:.0} req/s, scheduled \
         {scheduled_rps:.0} req/s ({:.2}×) at concurrency {CONCURRENCY} on 10^5 records \
         (mean batch {:.1}, p50 {} µs, p99 {} µs)",
        scheduled_rps / direct_rps,
        batch.mean(),
        latency.p50,
        latency.p99,
    );
    smoke::record(
        "scheduler_throughput",
        &[
            ("population", POPULATION as f64),
            ("concurrency", CONCURRENCY as f64),
            ("direct_rps_c8", direct_rps),
            ("scheduled_rps_c8", scheduled_rps),
            ("speedup_c8", scheduled_rps / direct_rps),
            ("mean_batch", batch.mean()),
            ("latency_p50_us", latency.p50 as f64),
            ("latency_p99_us", latency.p99 as f64),
        ],
    );

    // Criterion tracks the same two paths over time (smaller rounds).
    let mut group = c.benchmark_group("scheduler_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke_run { 1 } else { 3 }));
    group.warm_up_time(Duration::from_millis(if smoke_run { 100 } else { 500 }));
    let rounds = if smoke_run { 2 } else { 4 };
    group.throughput(Throughput::Elements((CONCURRENCY * rounds) as u64));
    group.bench_function(BenchmarkId::new("service/direct", CONCURRENCY), |b| {
        b.iter(|| {
            storm(CONCURRENCY, rounds, |c, r| {
                let mut rng = StdRng::seed_from_u64((c * 1000 + r) as u64);
                let chal = server.begin_identification(pick(c, r), &mut rng).unwrap();
                assert!(server.cancel_session(chal.session));
            })
        })
    });
    group.bench_function(BenchmarkId::new("service/scheduled", CONCURRENCY), |b| {
        b.iter(|| {
            storm(CONCURRENCY, rounds, |c, r| {
                let chal = scheduler.identify(pick(c, r).clone()).unwrap();
                assert!(scheduler.server().cancel_session(chal.session));
            })
        })
    });
    group.finish();
}

criterion_group!(scheduler, bench_service);
criterion_main!(scheduler);
