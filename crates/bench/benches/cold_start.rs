//! **Cold start (ours)**: durable-server recovery and journaling costs.
//!
//! Two questions a production deployment asks of the persistence layer:
//!
//! * **How fast does a crashed server come back?** `recover/*` measures
//!   [`AuthenticationServer::recover`] — snapshot load (or full journal
//!   replay) plus sketch-index rebuild — against populations of
//!   10³–10⁵ enrolled users, into the epoch engine every server runs.
//!   Snapshot recovery should beat journal replay (one framed record
//!   per user, no revocation interleaving, and above 65 536 records the
//!   sealed segments import from the checkpoint's sidecar instead of
//!   being re-inserted) and both should scale linearly.
//! * **What does durability cost on the enroll path?** `enroll/*`
//!   compares a memory-only server against a journaled one
//!   (OS-buffered appends, the default) and an fsync-per-event one
//!   (power-failure durability) — the write-ahead overhead of
//!   [`FileStore`].
//!
//! Populations are synthesized with *real* Chebyshev sketches but a
//! shared DSA public key: recovery and journaling never run
//! per-record asymmetric crypto (the server stores opaque key bytes),
//! so reusing one keypair changes nothing about the measured paths
//! while making a 10⁵-record setup tractable.

//! `FE_BENCH_SMOKE=1` shrinks the sweep to a CI-sized smoke run and
//! records recovery rates (`recover_*_rps_*`) and the per-enroll cost
//! with and without the journal (`enroll_in_memory_us`,
//! `enroll_journaled_us`) in `BENCH_SMOKE.json` (see `fe_bench::smoke`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fe_bench::{smoke, time_it, SynthPopulation};
use fe_protocol::store::FileStore;
use fe_protocol::{AuthenticationServer, EnrollmentRecord, SystemParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;

const DIM: usize = 32;
/// 10³–10⁵ enrolled users: the acceptance-criterion sweep (full mode).
const POPULATIONS: [usize; 3] = [1_000, 10_000, 100_000];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-cold-start-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Synthesizes `n` enrollment records: real sketches, shared key bytes
/// (see [`SynthPopulation`]).
fn synthesize_records(params: &SystemParams, n: usize, rng: &mut StdRng) -> Vec<EnrollmentRecord> {
    SynthPopulation::build(params, n, DIM, rng).records
}

/// Populates a durable store at `dir`, optionally checkpointing so the
/// state lives in a snapshot instead of the journal tail.
fn populate(params: &SystemParams, dir: &PathBuf, records: &[EnrollmentRecord], snapshot: bool) {
    let mut server: AuthenticationServer =
        AuthenticationServer::recover(params.clone(), dir).unwrap();
    for r in records {
        server.enroll(r.clone()).unwrap();
    }
    if snapshot {
        server.checkpoint().unwrap();
    }
}

/// Snapshot-load + index-rebuild time versus population, journal replay
/// versus snapshot. Returns the smoke numbers it took.
fn bench_recover(c: &mut Criterion) -> Vec<(String, f64)> {
    let smoke_run = smoke::smoke_mode();
    let populations: &[usize] = if smoke_run { &[2_000] } else { &POPULATIONS };
    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke_run { 1 } else { 3 }));
    group.warm_up_time(Duration::from_millis(if smoke_run { 100 } else { 300 }));

    let mut smoke_metrics: Vec<(String, f64)> = Vec::new();
    let params = SystemParams::insecure_test_defaults();
    for &n in populations {
        let mut rng = StdRng::seed_from_u64(0xC01D + n as u64);
        let records = synthesize_records(&params, n, &mut rng);

        let journal_dir = temp_dir(&format!("journal-{n}"));
        populate(&params, &journal_dir, &records, false);
        let snap_dir = temp_dir(&format!("snap-{n}"));
        populate(&params, &snap_dir, &records, true);

        // Machine-readable smoke numbers: one timed recovery per path.
        let (_, journal_secs) = time_it(|| {
            let server: AuthenticationServer =
                AuthenticationServer::recover(params.clone(), &journal_dir).unwrap();
            assert_eq!(server.user_count(), n);
        });
        let (_, snap_secs) = time_it(|| {
            let server: AuthenticationServer =
                AuthenticationServer::recover(params.clone(), &snap_dir).unwrap();
            assert_eq!(server.user_count(), n);
        });
        smoke_metrics.push((format!("recover_journal_rps_{n}"), n as f64 / journal_secs));
        smoke_metrics.push((format!("recover_snapshot_rps_{n}"), n as f64 / snap_secs));

        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("recover/journal", n), &n, |b, _| {
            b.iter(|| {
                let server: AuthenticationServer =
                    AuthenticationServer::recover(params.clone(), &journal_dir).unwrap();
                assert_eq!(server.user_count(), n);
                server
            })
        });
        group.bench_with_input(BenchmarkId::new("recover/snapshot", n), &n, |b, _| {
            b.iter(|| {
                let server: AuthenticationServer =
                    AuthenticationServer::recover(params.clone(), &snap_dir).unwrap();
                assert_eq!(server.user_count(), n);
                server
            })
        });
        std::fs::remove_dir_all(&journal_dir).unwrap();
        std::fs::remove_dir_all(&snap_dir).unwrap();
    }
    group.finish();
    smoke_metrics
}

/// Write-ahead journaling overhead on the enroll path: memory-only vs
/// OS-buffered journal vs fsync-per-event. Returns the smoke numbers it
/// took.
fn bench_enroll_overhead(c: &mut Criterion) -> Vec<(String, f64)> {
    let smoke_run = smoke::smoke_mode();
    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke_run { 1 } else { 2 }));
    group.warm_up_time(Duration::from_millis(if smoke_run { 100 } else { 300 }));

    let params = SystemParams::insecure_test_defaults();
    let mut rng = StdRng::seed_from_u64(0xE27011);
    // A pool of pre-built records so the measured loop is enroll-only.
    let pool = synthesize_records(&params, if smoke_run { 4_000 } else { 50_000 }, &mut rng);

    let mut smoke_metrics: Vec<(String, f64)> = Vec::new();
    let configs: [(&str, bool, Option<bool>); 3] = [
        ("enroll/in_memory", false, None),
        ("enroll/journaled", true, Some(false)),
        ("enroll/journaled_fsync", true, Some(true)),
    ];
    for (name, durable, sync) in configs {
        let dir = temp_dir(name.replace('/', "-").as_str());
        let mut server = if durable {
            let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
            if let Some(sync) = sync {
                store.set_sync(sync);
            }
            let mut server = AuthenticationServer::new(params.clone());
            server.attach_store(Box::new(store)).unwrap();
            server
        } else {
            AuthenticationServer::new(params.clone())
        };
        // Machine-readable smoke numbers: one timed pass over the pool
        // into the fresh server (the fsync row is left to criterion — it
        // measures the disk, not the code).
        if sync != Some(true) {
            let batch = pool.clone();
            let (_, secs) = time_it(|| {
                for record in batch {
                    server.enroll(record).unwrap();
                }
            });
            let key = format!("{}_us", name.replace('/', "_"));
            smoke_metrics.push((key, secs * 1e6 / pool.len() as f64));
        }
        let mut next = 0usize;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new(name, DIM), &DIM, |b, _| {
            b.iter(|| {
                let record = pool[next % pool.len()].clone();
                next += 1;
                // Unique id per iteration (ids in the pool repeat once
                // the pool wraps).
                let record = EnrollmentRecord {
                    id: format!("e-{next}"),
                    ..record
                };
                server.enroll(record).unwrap()
            })
        });
        std::mem::drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
    smoke_metrics
}

/// Both halves, then one `BENCH_SMOKE.json` section for the two.
fn bench_cold_start(c: &mut Criterion) {
    let mut smoke_metrics = bench_recover(c);
    smoke_metrics.extend(bench_enroll_overhead(c));
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    smoke_metrics.push(("hw_threads".to_string(), hw_threads as f64));
    let named: Vec<(&str, f64)> = smoke_metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    smoke::record("cold_start", &named);
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
