//! Micro-benchmarks of the core sketch pipeline: `SS`, `Rec`, the match
//! conditions and the robust-tag overhead, at the paper's n = 5000 —
//! and of the frame checksum every journal, snapshot and wire frame
//! pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fe_core::codec::crc32;
use fe_core::conditions::sketches_match;
use fe_core::{ChebyshevSketch, RobustSketch, SecureSketch};
use fe_crypto::Sha256;
use rand::SeedableRng;
use std::time::Duration;

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_core");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3C0);
    let scheme = ChebyshevSketch::paper_defaults();
    let x = scheme.line().random_vector(5000, &mut rng);

    group.bench_function("ss_n5000", |b| {
        b.iter(|| scheme.sketch(std::hint::black_box(&x), &mut rng).unwrap())
    });

    let sketch = scheme.sketch(&x, &mut rng).unwrap();
    let y: Vec<i64> = x.iter().map(|v| v + 42).collect();
    group.bench_function("rec_n5000", |b| {
        b.iter(|| scheme.recover(std::hint::black_box(&y), &sketch).unwrap())
    });

    let robust = RobustSketch::<_, Sha256>::new(scheme);
    let rdata = robust.sketch(&x, &mut rng).unwrap();
    group.bench_function("robust_rec_n5000", |b| {
        b.iter(|| robust.recover(std::hint::black_box(&y), &rdata).unwrap())
    });

    // Condition matching: the per-record cost of the server's scan.
    let probe = scheme.sketch(&y, &mut rng).unwrap();
    group.bench_function("conditions_match_n5000", |b| {
        b.iter(|| {
            assert!(sketches_match(
                std::hint::black_box(&sketch),
                &probe,
                scheme.threshold(),
                scheme.line().interval_len()
            ))
        })
    });

    // Non-matching record: early abort makes this ~2 coordinate checks.
    let other = scheme.line().random_vector(5000, &mut rng);
    let other_sketch = scheme.sketch(&other, &mut rng).unwrap();
    group.bench_function("conditions_mismatch_early_abort", |b| {
        b.iter(|| {
            assert!(!sketches_match(
                std::hint::black_box(&other_sketch),
                &probe,
                scheme.threshold(),
                scheme.line().interval_len()
            ))
        })
    });
    group.finish();
}

/// `crc32` at a handshake-sized payload, at the journal frame of a
/// paper-dimension enroll (743 bytes) and at a maximal 1 MiB wire frame.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(200));
    for len in [64usize, 743, 1 << 20] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(len.to_string(), |b| {
            b.iter(|| crc32(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_core, bench_crc32);
criterion_main!(benches);
