//! **Server throughput (ours)**: identification service rate at scale,
//! sweeping the enrolled population and the server shard count.
//!
//! Two layers are measured:
//!
//! * `lookup` / `batch` — the raw sketch-index layer on up to 10⁵
//!   enrolled sketches (paper parameters, worst-case probe): the
//!   early-abort scan, plus the batch path that resolves a whole probe
//!   queue per call.
//! * `identify_batch` — the full [`SharedServer`] protocol layer
//!   (challenge issue included) at 1 and 4 shards: one lock acquisition
//!   per shard per batch instead of two exclusive acquisitions per
//!   device.
//!
//! Populations are built once per size from real Chebyshev sketches so
//! the early-abort profile matches production data.

//! `FE_BENCH_SMOKE=1` shrinks the sweep to a CI-sized smoke run and
//! records the headline numbers in `BENCH_SMOKE.json` (see
//! `fe_bench::smoke`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fe_bench::{smoke, time_it};
use fe_core::{ChebyshevSketch, EpochIndex, NumberLine, ScanIndex, SecureSketch, SketchIndex};
use fe_protocol::concurrent::SharedServer;
use fe_protocol::{BiometricDevice, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const DIM: usize = 64;
const T: u64 = 100;
const KA: u64 = 400;
/// ≥ 10⁵ enrolled sketches: the acceptance-criterion scale (full mode).
const INDEX_SIZES: [usize; 2] = [10_000, 100_000];
const BATCH: usize = 256;

fn build_population(users: usize, rng: &mut StdRng) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let line = NumberLine::new(100, 4, 500).unwrap();
    let scheme = ChebyshevSketch::new(line, T).unwrap();
    let mut sketches = Vec::with_capacity(users);
    let mut probes = Vec::with_capacity(users);
    for _ in 0..users {
        let x = scheme.line().random_vector(DIM, rng);
        sketches.push(scheme.sketch(&x, rng).unwrap());
        let noisy: Vec<i64> = x
            .iter()
            .map(|&v| {
                scheme
                    .line()
                    .wrap(v + rng.gen_range(-(T as i64)..=T as i64))
            })
            .collect();
        probes.push(scheme.sketch(&noisy, rng).unwrap());
    }
    (sketches, probes)
}

/// Index layer: single worst-case lookup and a 256-probe batch over
/// the population sweep.
fn bench_index_scaling(c: &mut Criterion) {
    let smoke_run = smoke::smoke_mode();
    let sizes: &[usize] = if smoke_run { &[20_000] } else { &INDEX_SIZES };
    let mut group = c.benchmark_group("server_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke_run { 1 } else { 3 }));
    group.warm_up_time(Duration::from_millis(if smoke_run { 100 } else { 500 }));

    let mut smoke_metrics: Vec<(String, f64)> = Vec::new();
    for &users in sizes {
        let mut rng = StdRng::seed_from_u64(0x5CA1E + users as u64);
        let (sketches, probes) = build_population(users, &mut rng);
        // Worst case for the scan: the match is the last enrolled record.
        let worst_probe = probes.last().unwrap().clone();
        // A service queue: BATCH genuine probes spread over the
        // population.
        let batch: Vec<Vec<i64>> = (0..BATCH)
            .map(|i| probes[i * users / BATCH].clone())
            .collect();

        let mut scan = ScanIndex::new(T, KA);
        for s in &sketches {
            scan.insert(s);
        }
        // The smoke report's machine-readable numbers: one timed
        // worst-case scan and one timed 256-probe batch, independent of
        // criterion's output format.
        let (_, scan_secs) = time_it(|| scan.lookup(&worst_probe).expect("found"));
        let (_, batch_secs) = time_it(|| scan.lookup_batch(&batch));
        smoke_metrics.push((format!("scan_worst_lookup_us_{users}"), scan_secs * 1e6));
        smoke_metrics.push((
            format!("scan_batch256_rps_{users}"),
            BATCH as f64 / batch_secs,
        ));
        group.bench_with_input(BenchmarkId::new("lookup/scan", users), &users, |b, _| {
            b.iter(|| {
                scan.lookup(std::hint::black_box(&worst_probe))
                    .expect("found")
            })
        });
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("batch/scan", users), &users, |b, _| {
            b.iter(|| scan.lookup_batch(std::hint::black_box(&batch)))
        });
    }
    group.finish();
    let named: Vec<(&str, f64)> = smoke_metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    smoke::record("server_throughput", &named);
}

/// Protocol layer: [`SharedServer::identify_batch`] over a queue of
/// concurrent devices, sweeping the server shard count. Smaller
/// population (each enrollment runs real DSA keygen).
fn bench_shared_server(c: &mut Criterion) {
    let smoke_run = smoke::smoke_mode();
    let mut group = c.benchmark_group("server_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke_run { 1 } else { 3 }));
    group.warm_up_time(Duration::from_millis(if smoke_run { 100 } else { 500 }));

    // Each enrollment runs real DSA keygen, so the smoke run keeps the
    // population small.
    let users = if smoke_run { 96 } else { 512 };
    let queue = if smoke_run { 32usize } else { 64usize };
    for &shards in &[1usize, 4] {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), shards);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(0xBA7C + shards as u64);
        let mut probes = Vec::with_capacity(users);
        for u in 0..users {
            let bio = params.sketch().line().random_vector(DIM, &mut rng);
            server
                .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
                .unwrap();
            let reading: Vec<i64> = bio
                .iter()
                .map(|&x| x + rng.gen_range(-(T as i64)..=T as i64))
                .collect();
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
        }
        let batch: Vec<Vec<i64>> = probes.into_iter().take(queue).collect();

        group.throughput(Throughput::Elements(queue as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("identify_batch/shards{shards}"), users),
            &users,
            |b, _| {
                b.iter(|| {
                    let results = server.identify_batch(std::hint::black_box(&batch), &mut rng);
                    // Cancel the issued sessions so the pending-challenge
                    // table stays bounded across iterations — otherwise
                    // later samples measure inserts into an ever-growing
                    // map instead of steady-state batch service.
                    for result in &results {
                        let chal = result.as_ref().expect("genuine probes match");
                        assert!(server.cancel_session(chal.session));
                    }
                    results
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_index_scaling, bench_shared_server);
criterion_main!(benches);
