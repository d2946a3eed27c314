//! **Storage ablation (ours)**: Vec-of-Vec rows vs the columnar
//! [`SketchArena`] behind every index, and the scan-kernel sweep
//! (scalar vs SWAR vs AVX2 prefilter) on top of the columnar layout.
//!
//! The paper's identification scan is memory-bound at scale, so the
//! storage layout — not the per-coordinate arithmetic — sets the
//! throughput ceiling. This ablation pits the seed layout
//! (`Vec<Option<Vec<i64>>>`: a heap allocation and pointer chase per
//! record, 8 bytes per coordinate) against the arena (one contiguous
//! width-adaptive buffer + tombstone bitmap), and the scalar
//! early-abort kernel against the two-phase vectorized scan
//! (dimension-major prefilter plane; see `FilterConfig`). Every arm is
//! timed best-of-N with [`time_best`] and printed on a line of its own:
//!
//! * `lookup/*` — worst-case *matching* probe (resolves at the last
//!   enrolled record, so the whole population is scanned);
//! * `nomatch/*` — worst-case *non-matching* probe (the acceptance
//!   criterion: nothing matches, every row must be rejected);
//! * `bulk_load/*` — enrollment rate, with the arena pre-sized the way
//!   snapshot recovery pre-sizes it (`vectorized` includes plane
//!   maintenance);
//! * `epoch_insert_us` / `epoch_insert_reserved_us` — µs per enrolled
//!   row into the production `EpochIndex`, as built and after
//!   `reserve(n)`. A row is published by one atomic store either way,
//!   so the two agree; a smoke run fails when the first exceeds 1.25×
//!   the second (a per-insert publication cost has come back). Both
//!   are taken on the sweep's own population — 2 000 rows
//!   in smoke mode, a corner of one head — so
//!   `epoch_insert_amortised_us` is the wall time of 262 144 inserts
//!   into one default index over their count: four seals, and whatever
//!   a row costs on its way into a sealed segment (5× write
//!   amplification went unrecorded for want of it);
//! * bytes/record — reported to stdout and
//!   `target/experiments/storage_ablation.csv` from `heap_bytes()`;
//!   `record_table_bytes_per_record_*` is what an
//!   `AuthenticationServer` holds per user *besides* the index row
//!   (`record_heap_bytes()`), and `index_bytes_per_record_*` what the
//!   index row itself takes in a default `EpochIndex` at the paper
//!   shape (`dim` 64, `ka` 400: a 72 B packed row — 64 B of row
//!   column, 8 B of plane — and a liveness bit). Recorded, not asserted: `fe-benchmark` bounds the
//!   same bytes as `rss_bytes_per_record` at 0.02 and prints the index
//!   row as `core.index.heap_bytes_per_record`.
//!
//! Kernel variants: `columnar` = the PR 3 scalar columnar kernel
//! (`FilterConfig::disabled()`), `swar` = portable packed-lane SWAR
//! forced, `vectorized` = runtime dispatch (AVX-512 → AVX2 → SWAR on
//! x86-64, NEON on aarch64 — the `vectorized_is_avx2` /
//! `vectorized_is_avx512` smoke metrics say which ran). Headline smoke
//! numbers land in `BENCH_SMOKE.json`; a smoke run **fails** if the
//! vectorized kernel is not at least as fast as the scalar one on the
//! smoke population. Every assert here is a ratio between two arms
//! timed inside the run — the only kind of time gate a host with two
//! speeds can hold.
//!
//! The `sweep_policy` arms ablate the sweep *policy* on top of the
//! dispatched kernel: adaptive vs fixed plane depth (see
//! [`bench_sweep_policy`]).
//!
//! `FE_BENCH_SMOKE=1` shrinks the sweep to a CI-sized smoke run that
//! still executes every row-layout dispatch path (packed/`i32`/`i64`),
//! every kernel variant, and the pre-sized bulk-load path.

use fe_bench::{smoke, time_best, write_csv};
use fe_core::conditions::sketches_match;
use fe_core::{
    CellWidth, EpochIndex, FilterConfig, HelperData, PlaneDepth, RobustData, ScanIndex, SketchIndex,
};
use fe_protocol::{AuthenticationServer, EnrollmentRecord, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What an arm's runs take at least: on a shared host a best of nine
/// microsecond runs reads up to twice the best of a few hundred.
const ARM_TIME: Duration = Duration::from_millis(100);

const DIM: usize = 32;
const T: u64 = 100;
const KA: u64 = 400;

/// The seed storage layout, preserved here as the ablation baseline:
/// one boxed row per record behind an `Option` tombstone.
struct VecOfVecScan {
    t: u64,
    ka: u64,
    entries: Vec<Option<Vec<i64>>>,
}

impl VecOfVecScan {
    fn new(t: u64, ka: u64) -> Self {
        VecOfVecScan {
            t,
            ka,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, sketch: Vec<i64>) {
        self.entries.push(Some(sketch));
    }

    fn lookup(&self, probe: &[i64]) -> Option<usize> {
        self.entries.iter().position(|s| {
            s.as_ref().is_some_and(|s| {
                s.len() == probe.len() && sketches_match(s, probe, self.t, self.ka)
            })
        })
    }

    fn heap_bytes(&self) -> usize {
        let table = self.entries.capacity() * std::mem::size_of::<Option<Vec<i64>>>();
        let rows: usize = self
            .entries
            .iter()
            .flatten()
            .map(|s| s.capacity() * std::mem::size_of::<i64>())
            .sum();
        table + rows
    }
}

/// Times one arm as the best of `iters` runs of `f`, or of as many as
/// fill [`ARM_TIME`] if that is more, prints it with its throughput over
/// `rows` rows, and returns the seconds. Each result goes through
/// `black_box`, so no run can be optimised away.
fn arm<T>(label: &str, rows: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let (_, once) = time_best(1, || std::hint::black_box(f()));
    let runs = iters.max((ARM_TIME.as_secs_f64() / once) as usize);
    let (_, secs) = time_best(runs, || std::hint::black_box(f()));
    println!(
        "{label}: {:.3} µs ({:.1} M rows/s)",
        secs * 1e6,
        rows as f64 / secs / 1e6
    );
    secs
}

/// Uniform sketch vectors over the ring (storage is what's measured;
/// the scan cost model only needs per-coordinate uniformity).
fn synth_sketches(n: usize, ka: u64, rng: &mut StdRng) -> Vec<Vec<i64>> {
    let half = (ka / 2) as i64;
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-half..=half)).collect())
        .collect()
}

/// Bytes per row of a default [`EpochIndex`] over `n` sketches of the
/// paper's shape — `dim` 64 on the paper ring, whatever `DIM` the
/// timing arms use.
fn index_bytes_per_record(n: usize, rng: &mut StdRng) -> f64 {
    let mut index = EpochIndex::new(T, KA);
    let half = (KA / 2) as i64;
    for _ in 0..n {
        let sketch: Vec<i64> = (0..64).map(|_| rng.gen_range(-half..=half)).collect();
        index.insert(&sketch);
    }
    index.heap_bytes() as f64 / n as f64
}

/// Bytes per user of a server's record table (everything but the index
/// rows) after enrolling `sketches` under records of the paper's shape:
/// 128 key bytes, a 32-byte tag, a 32-byte seed.
fn record_table_bytes_per_record(sketches: &[Vec<i64>]) -> f64 {
    let mut server = AuthenticationServer::new(SystemParams::paper_defaults());
    for (u, sketch) in sketches.iter().enumerate() {
        let record = EnrollmentRecord {
            id: format!("user-{u}"),
            public_key: vec![0x5a; 128],
            helper: HelperData {
                sketch: RobustData {
                    inner: sketch.clone(),
                    tag: vec![0xa5; 32],
                },
                seed: vec![0x3c; 32],
            },
        };
        server.enroll(record).expect("enroll a synthetic record");
    }
    server.record_heap_bytes() as f64 / sketches.len() as f64
}

/// A probe that matches `sketch` on every coordinate (distance ≤ t).
fn matching_probe(sketch: &[i64], t: u64, ka: u64, rng: &mut StdRng) -> Vec<i64> {
    let half = (ka / 2) as i64;
    sketch
        .iter()
        .map(|&v| {
            let noisy = v + rng.gen_range(-(t as i64)..=t as i64);
            // Stay on canonical ring values, like a real sketch would.
            let r = noisy.rem_euclid(ka as i64);
            if r > half {
                r - ka as i64
            } else {
                r
            }
        })
        .collect()
}

fn bench_storage() {
    let smoke = smoke::smoke_mode();
    let sizes: &[usize] = if smoke {
        &[2_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut csv_rows = Vec::new();
    let mut smoke_metrics: Vec<(String, f64)> = Vec::new();
    // The smoke assert compares on the largest population of the
    // sweep: (scalar_us, vectorized_us) for the no-match worst case.
    let mut gate_pair = (0.0f64, 0.0f64);
    // Which kernel `vectorized` actually dispatched to ("avx2"/"swar").
    let mut kernel_label = "scalar";
    // (default, reserved) µs per row enrolled into an `EpochIndex`.
    let mut insert_gate_pair = (0.0f64, 0.0f64);
    // µs per row over enough inserts to seal four segments.
    let mut insert_amortised_us = 0.0f64;
    // Timed runs an arm takes at least.
    let iters = if smoke { 9 } else { 5 };
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(0x5704 + n as u64);
        let sketches = synth_sketches(n, KA, &mut rng);
        // Worst case for a *hit*: the probe resolves at the very last
        // record, so every row is visited.
        let probe = matching_probe(sketches.last().unwrap(), T, KA, &mut rng);

        let mut baseline = VecOfVecScan::new(T, KA);
        // The kernel sweep, all on the same columnar storage: the PR 3
        // scalar kernel, forced portable SWAR, and runtime dispatch.
        let mut columnar = ScanIndex::with_filter(T, KA, FilterConfig::disabled());
        let mut swar_idx = ScanIndex::with_filter(T, KA, FilterConfig::swar());
        let mut vectorized = ScanIndex::new(T, KA);
        columnar.reserve(n, DIM);
        swar_idx.reserve(n, DIM);
        vectorized.reserve(n, DIM);
        for s in &sketches {
            baseline.insert(s.clone());
            columnar.insert(s);
            swar_idx.insert(s);
            vectorized.insert(s);
        }
        assert_eq!(columnar.arena().width(), CellWidth::Packed);
        assert_eq!(columnar.arena().filter_kernel(), "scalar");
        assert_eq!(swar_idx.arena().filter_kernel(), "swar");
        kernel_label = vectorized.arena().filter_kernel();
        assert_eq!(baseline.lookup(&probe), columnar.lookup(&probe));
        assert_eq!(columnar.lookup(&probe), swar_idx.lookup(&probe));
        assert_eq!(columnar.lookup(&probe), vectorized.lookup(&probe));

        // Worst case for a *miss* (the acceptance criterion): a fresh
        // sketch that matches nothing, so every row must be rejected.
        let miss = loop {
            let candidate = synth_sketches(1, KA, &mut rng).pop().unwrap();
            if columnar.lookup(&candidate).is_none() {
                break candidate;
            }
        };
        assert_eq!(swar_idx.lookup(&miss), None);
        assert_eq!(vectorized.lookup(&miss), None);

        let at = |label: &str| format!("storage_ablation/{label}/{n}");
        let base_secs = arm(&at("lookup/baseline"), n, iters, || {
            baseline.lookup(&probe).expect("found")
        });
        let col_secs = arm(&at("lookup/columnar"), n, iters, || {
            columnar.lookup(&probe).expect("found")
        });
        let swar_secs = arm(&at("lookup/swar"), n, iters, || {
            swar_idx.lookup(&probe).expect("found")
        });
        let vect_secs = arm(&at("lookup/vectorized"), n, iters, || {
            vectorized.lookup(&probe).expect("found")
        });
        let col_miss = arm(&at("nomatch/columnar"), n, iters, || columnar.lookup(&miss));
        let swar_miss = arm(&at("nomatch/swar"), n, iters, || swar_idx.lookup(&miss));
        let vect_miss = arm(&at("nomatch/vectorized"), n, iters, || {
            vectorized.lookup(&miss)
        });
        smoke_metrics.push((format!("baseline_lookup_us_{n}"), base_secs * 1e6));
        smoke_metrics.push((format!("columnar_lookup_us_{n}"), col_secs * 1e6));
        smoke_metrics.push((format!("swar_lookup_us_{n}"), swar_secs * 1e6));
        smoke_metrics.push((format!("vectorized_lookup_us_{n}"), vect_secs * 1e6));
        smoke_metrics.push((format!("columnar_nomatch_us_{n}"), col_miss * 1e6));
        smoke_metrics.push((format!("swar_nomatch_us_{n}"), swar_miss * 1e6));
        smoke_metrics.push((format!("vectorized_nomatch_us_{n}"), vect_miss * 1e6));

        // Bulk load: the recovery path (pre-sized arena) vs pushing
        // boxed rows. Keep the budget in check by loading a slice at
        // the larger sizes. `vectorized` includes the prefilter-plane
        // maintenance cost.
        let load = &sketches[..n.min(100_000)];
        arm(&at("bulk_load/baseline"), load.len(), iters, || {
            let mut idx = VecOfVecScan::new(T, KA);
            for s in load {
                idx.insert(s.clone());
            }
            idx.entries.len()
        });
        for (label, filter) in [
            ("bulk_load/columnar", FilterConfig::disabled()),
            ("bulk_load/vectorized", FilterConfig::default()),
        ] {
            arm(&at(label), load.len(), iters, || {
                let mut idx = ScanIndex::with_filter(T, KA, filter);
                idx.reserve(load.len(), DIM);
                for s in load {
                    idx.insert(s);
                }
                idx.len()
            });
        }
        gate_pair = (col_miss, vect_miss);
        // Enrollment into the production index, gated as a ratio, so
        // both best-of numbers come from interleaved rounds: comparands
        // must share one measurement neighborhood (see
        // bench_sweep_policy).
        let epoch_load_us = |reserved: bool| {
            let mut idx = EpochIndex::new(T, KA);
            if reserved {
                idx.reserve(load.len(), DIM);
            }
            // The first insert stamps the dimension and reserves the
            // head: 8.5 MiB whose set-up cost is the allocator's (fresh
            // zero pages one time, a recycled block it clears the
            // next), not an insert's. It stays off the clock, as does
            // the drop.
            idx.insert(&load[0]);
            let rest = &load[1..];
            let ((), secs) = time_best(1, || {
                for s in rest {
                    idx.insert(s);
                }
            });
            secs * 1e6 / rest.len() as f64
        };
        insert_gate_pair = (f64::INFINITY, f64::INFINITY);
        for _ in 0..iters {
            insert_gate_pair.0 = insert_gate_pair.0.min(epoch_load_us(false));
            insert_gate_pair.1 = insert_gate_pair.1.min(epoch_load_us(true));
        }
        const AMORTISED_ROWS: usize = 262_144;
        let (_, secs) = time_best(1, || {
            let mut idx = EpochIndex::new(T, KA);
            for s in sketches.iter().cycle().take(AMORTISED_ROWS) {
                idx.insert(s);
            }
            idx.len()
        });
        insert_amortised_us = secs * 1e6 / AMORTISED_ROWS as f64;
        println!(
            "storage_ablation/epoch_insert/{n}: {:.3} µs per row, {:.3} µs after reserve, \
             {insert_amortised_us:.3} µs amortised over {AMORTISED_ROWS} rows",
            insert_gate_pair.0, insert_gate_pair.1
        );
        println!(
            "storage_ablation/kernels/{n}: no-match scalar {:.1} µs, swar {:.1} µs \
             ({:.2}×), {} {:.1} µs ({:.2}×)",
            col_miss * 1e6,
            swar_miss * 1e6,
            col_miss / swar_miss,
            vectorized.arena().filter_kernel(),
            vect_miss * 1e6,
            col_miss / vect_miss,
        );

        let base_bpr = baseline.heap_bytes() as f64 / n as f64;
        let col_bpr = columnar.heap_bytes() as f64 / n as f64;
        let vect_bpr = vectorized.heap_bytes() as f64 / n as f64;
        smoke_metrics.push((format!("baseline_bytes_per_record_{n}"), base_bpr));
        smoke_metrics.push((format!("columnar_bytes_per_record_{n}"), col_bpr));
        smoke_metrics.push((format!("vectorized_bytes_per_record_{n}"), vect_bpr));
        let table_bpr = record_table_bytes_per_record(&sketches);
        let index_bpr = index_bytes_per_record(n, &mut rng);
        smoke_metrics.push((format!("record_table_bytes_per_record_{n}"), table_bpr));
        smoke_metrics.push((format!("index_bytes_per_record_{n}"), index_bpr));
        println!("storage_ablation/record_table_bytes_per_record/{n}: {table_bpr:.1} B");
        println!("storage_ablation/index_bytes_per_record/{n}: {index_bpr:.1} B");
        println!(
            "storage_ablation/bytes_per_record/{n}: baseline {base_bpr:.1} B, \
             columnar {col_bpr:.1} B ({:.1}× smaller), vectorized {vect_bpr:.1} B \
             (plane overhead {:.1} B)",
            base_bpr / col_bpr,
            vect_bpr - col_bpr
        );
        csv_rows.push(format!(
            "{n},{base_bpr:.1},{col_bpr:.1},{vect_bpr:.1},{:.3},{:.3},{:.3}",
            col_miss * 1e6,
            swar_miss * 1e6,
            vect_miss * 1e6
        ));
    }
    let path = write_csv(
        "storage_ablation.csv",
        "records,baseline_bytes_per_record,columnar_bytes_per_record,\
         vectorized_bytes_per_record,scalar_nomatch_us,swar_nomatch_us,vectorized_nomatch_us",
        &csv_rows,
    );
    println!(
        "storage_ablation: bytes/record + kernel sweep written to {}",
        path.display()
    );
    let avx2 = kernel_label == "avx2";
    smoke_metrics.push(("vectorized_is_avx2".to_string(), f64::from(u8::from(avx2))));
    let avx512 = kernel_label == "avx512";
    smoke_metrics.push((
        "vectorized_is_avx512".to_string(),
        f64::from(u8::from(avx512)),
    ));
    smoke_metrics.push(("epoch_insert_us".to_string(), insert_gate_pair.0));
    smoke_metrics.push(("epoch_insert_reserved_us".to_string(), insert_gate_pair.1));
    smoke_metrics.push(("epoch_insert_amortised_us".to_string(), insert_amortised_us));
    let named: Vec<(&str, f64)> = smoke_metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    smoke::record("storage_ablation", &named);

    // On the smoke population the vectorized kernel must not lose to
    // the scalar one it claims to replace.
    if smoke {
        let (scalar_us, vect_us) = (gate_pair.0 * 1e6, gate_pair.1 * 1e6);
        assert!(
            vect_us <= scalar_us,
            "vectorized no-match lookup ({vect_us:.1} µs) is slower than \
             the scalar kernel ({scalar_us:.1} µs)"
        );
        let (insert_us, reserved_us) = insert_gate_pair;
        assert!(
            insert_us <= 1.25 * reserved_us,
            "an EpochIndex insert costs {insert_us:.3} µs, more than 1.25× the \
             {reserved_us:.3} µs it costs after reserve(n): publishing a row is no longer O(1)"
        );
    }
}

/// Executes every row-layout dispatch path (packed, `i32`, `i64`) so a
/// smoke run covers every kernel instantiation, and checks the layouts
/// actually selected.
fn bench_width_dispatch() {
    let n = if smoke::smoke_mode() { 2_000 } else { 50_000 };

    for (name, ka, expect) in [
        ("packed", KA, CellWidth::Packed),
        ("i32", 1u64 << 20, CellWidth::I32),
        ("i64", 1u64 << 40, CellWidth::I64),
    ] {
        let mut rng = StdRng::seed_from_u64(0x51DE + ka);
        let t = ka / 4;
        let sketches = synth_sketches(n, ka, &mut rng);
        let probe = matching_probe(sketches.last().unwrap(), t, ka, &mut rng);
        let mut index = ScanIndex::new(t, ka);
        index.reserve(n, DIM);
        for s in &sketches {
            index.insert(s);
        }
        assert_eq!(index.arena().width(), expect);
        arm(
            &format!("storage_ablation_widths/lookup/{name}"),
            n,
            5,
            || index.lookup(&probe).expect("found"),
        );
    }
}

/// The sweep-policy ablation on top of the vectorized kernel: adaptive
/// vs fixed plane depth.
///
/// Both variants must return the same answers (asserted before timing).
/// Timings land in `BENCH_SMOKE.json` (`adaptive_f_depth`,
/// `adaptive_nomatch_us`, `fixed8_nomatch_us`). A smoke run fails if the
/// adaptive depth loses to the old constant `F = 8`, with a noise
/// tolerance.
fn bench_sweep_policy() {
    let smoke = smoke::smoke_mode();
    let n = if smoke { 20_000 } else { 1_000_000 };
    let mut rng = StdRng::seed_from_u64(0x9A7A);
    let sketches = synth_sketches(n, KA, &mut rng);
    let probe = matching_probe(sketches.last().unwrap(), T, KA, &mut rng);

    let build = |filter: FilterConfig| {
        let mut idx = ScanIndex::with_filter(T, KA, filter);
        idx.reserve(n, DIM);
        for s in &sketches {
            idx.insert(s);
        }
        idx
    };
    let adaptive = build(FilterConfig::default());
    let miss = loop {
        let candidate = synth_sketches(1, KA, &mut rng).pop().unwrap();
        if adaptive.lookup(&candidate).is_none() {
            break candidate;
        }
    };

    // Adaptive plane depth vs the old constant F = 8. At the paper ring
    // (t = 100, ka = 400) the adaptive model lands on exactly 8, so this
    // gate is a strict no-regression check; on other rings it is where a
    // mis-tuned depth model would surface.
    let fixed8 = build(FilterConfig::default().with_depth(PlaneDepth::Fixed(8)));
    assert_eq!(adaptive.lookup(&probe), fixed8.lookup(&probe));
    assert_eq!(fixed8.lookup(&miss), None);

    // The two arms are timed back to back and interleaved: the gate
    // compares variants against each other, so
    // the comparands must share one measurement neighborhood — a pair
    // of best-of numbers taken minutes apart mostly measures how the
    // box drifted in between. Best-of over interleaved rounds keeps
    // each variant's number from the same few milliseconds of machine
    // state.
    let rounds = 25;
    let mut adaptive_miss = f64::INFINITY;
    let mut fixed8_miss = f64::INFINITY;
    for _ in 0..rounds {
        adaptive_miss = adaptive_miss.min(time_best(1, || adaptive.lookup(&miss)).1);
        fixed8_miss = fixed8_miss.min(time_best(1, || fixed8.lookup(&miss)).1);
    }
    let depth = adaptive.arena().resolved_depth();
    println!(
        "sweep_policy/{n}: adaptive F={depth} {:.1} µs vs fixed8 {:.1} µs",
        adaptive_miss * 1e6,
        fixed8_miss * 1e6,
    );
    smoke::record(
        "sweep_policy",
        &[
            ("adaptive_f_depth", depth as f64),
            ("adaptive_nomatch_us", adaptive_miss * 1e6),
            ("fixed8_nomatch_us", fixed8_miss * 1e6),
        ],
    );

    if smoke {
        // 25% tolerance: even interleaved best-of timings jitter on a
        // shared CI box; the gate is for losing a kernel, not a run.
        let tol = 1.25;
        assert!(
            adaptive_miss <= fixed8_miss * tol,
            "adaptive plane depth ({:.1} µs) lost to fixed F=8 ({:.1} µs)",
            adaptive_miss * 1e6,
            fixed8_miss * 1e6
        );
    }
}

fn main() {
    bench_storage();
    bench_width_dispatch();
    bench_sweep_policy();
}
