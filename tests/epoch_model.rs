//! Epoch storage engine vs the Vec-of-Vec reference model: arbitrary
//! enroll/revoke/maintain/compact interleavings — with a seal threshold
//! tiny enough that every script seals several heads and most trip the
//! self-triggered tombstone rewrite — must be observably identical to
//! the seed's boxed-row layout, and the
//! lock-free readers must agree with the writer at every quiescent
//! point *and* stay coherent while a writer churns under them.

use fuzzy_id::core::conditions::sketches_match;
use fuzzy_id::core::{EpochIndex, EpochRead, FilterConfig, IndexReader, ScanIndex, SketchIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The seed storage layout as the reference model: boxed rows behind
/// `Option` tombstones (same as `tests/properties.rs`, which pins the
/// non-epoch indexes to it).
struct ModelIndex {
    t: u64,
    ka: u64,
    entries: Vec<Option<Vec<i64>>>,
}

impl ModelIndex {
    fn new(t: u64, ka: u64) -> Self {
        ModelIndex {
            t,
            ka,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, sketch: &[i64]) -> usize {
        self.entries.push(Some(sketch.to_vec()));
        self.entries.len() - 1
    }

    fn matches(&self, s: &[i64], probe: &[i64]) -> bool {
        s.len() == probe.len() && sketches_match(s, probe, self.t, self.ka)
    }

    fn lookup(&self, probe: &[i64]) -> Option<usize> {
        self.entries
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| self.matches(s, probe)))
    }

    fn lookup_all(&self, probe: &[i64]) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|s| self.matches(s, probe)))
            .map(|(i, _)| i)
            .collect()
    }

    fn remove(&mut self, id: usize) -> bool {
        match self.entries.get_mut(id) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    fn compact(&mut self) -> Vec<(usize, usize)> {
        let mut mapping = Vec::new();
        let entries = std::mem::take(&mut self.entries);
        for (old, slot) in entries.into_iter().enumerate() {
            if let Some(s) = slot {
                mapping.push((old, self.entries.len()));
                self.entries.push(Some(s));
            }
        }
        mapping
    }

    fn live(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// One scripted operation, applied to the model and the epoch index in
/// lockstep.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    /// Probe near the `n % inserted`-th logged sketch with ±t noise.
    ProbeNear(usize, Vec<i64>),
    Probe(Vec<i64>),
    Remove(usize),
    /// The tombstone rule on demand (ids stable; `remove` and the seal
    /// already apply it, so this must change nothing).
    Maintain,
    /// Full renumbering compaction.
    Compact,
}

/// Ring parameters spanning all three arena row layouts (packed / i32 /
/// i64, the latter including the `ka ≥ 2⁶³` i128-widening class).
fn ring_params() -> impl Strategy<Value = (u64, u64)> {
    (0u8..4)
        .prop_flat_map(|width| {
            let (lo, hi) = match width {
                0 => (2u64, (1 << 15) - 1),
                1 => (1u64 << 15, (1 << 31) - 1),
                2 => (1u64 << 31, (1 << 62) - 1),
                _ => (1u64 << 63, u64::MAX),
            };
            lo..=hi
        })
        .prop_flat_map(|ka| (1u64..(ka / 2).clamp(2, 1 << 30), Just(ka)))
}

fn epoch_case() -> impl Strategy<Value = (u64, u64, Vec<Op>)> {
    (ring_params(), 1usize..5).prop_flat_map(|((t, ka), dim)| {
        let half = (ka / 2).min(i64::MAX as u64 / 4) as i64;
        let op = (
            0u8..14,
            prop::collection::vec(-2 * half..=2 * half, dim..dim + 1),
            prop::collection::vec(-(t as i64)..=(t as i64), dim..dim + 1),
            any::<usize>(),
        )
            .prop_map(|(sel, sketch, noise, n)| match sel {
                0..=4 => Op::Insert(sketch),
                5..=7 => Op::ProbeNear(n, noise),
                8..=9 => Op::Probe(sketch),
                10..=11 => Op::Remove(n),
                12 => Op::Maintain,
                _ => Op::Compact,
            });
        (Just(t), Just(ka), prop::collection::vec(op, 1..64))
    })
}

/// After every op, a *fresh* lock-free reader must agree with the model
/// on every read surface it exposes.
fn check_reader_quiescent(index: &EpochIndex, model: &ModelIndex, probes: &[Vec<i64>]) {
    let reader = index.reader();
    prop_assert_eq!(reader.generation(), SketchIndex::generation(index));
    for probe in probes {
        let all = model.lookup_all(probe);
        prop_assert_eq!(reader.find_first(probe), all.first().copied());
        prop_assert_eq!(&reader.find_at_most(probe, 2), &all[..all.len().min(2)]);
        prop_assert_eq!(&reader.find_at_most(probe, usize::MAX), &all);
        // Subset-masked scan over every other logged slot, and over
        // ids no slot has.
        let slots = model.entries.len();
        let mut subset: Vec<usize> = (0..slots).step_by(2).collect();
        subset.extend([slots, 1 << 40, usize::MAX]);
        let want: Vec<usize> = all.iter().copied().filter(|id| id % 2 == 0).collect();
        prop_assert_eq!(
            reader.find_in_subset(probe, &subset, usize::MAX),
            want,
            "subset scan diverged"
        );
    }
    let batch = reader.find_first_batch(probes);
    for (probe, got) in probes.iter().zip(batch) {
        prop_assert_eq!(model.lookup(probe), got, "batch path diverged");
    }
}

/// Drives one epoch index and the model through the same script.
fn check_epoch_against_model(mut index: EpochIndex, t: u64, ka: u64, ops: &[Op]) {
    let mut model = ModelIndex::new(t, ka);
    let mut inserted: Vec<Vec<i64>> = Vec::new();
    let mut probes_seen: Vec<Vec<i64>> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(sketch) => {
                let a = model.insert(sketch);
                let b = index.insert(sketch);
                prop_assert_eq!(a, b, "insert ids diverged");
                inserted.push(sketch.clone());
            }
            Op::ProbeNear(n, noise) => {
                if inserted.is_empty() {
                    continue;
                }
                let base = &inserted[n % inserted.len()];
                let probe: Vec<i64> = base
                    .iter()
                    .zip(noise.iter())
                    .map(|(&v, &d)| v.saturating_add(d))
                    .collect();
                prop_assert_eq!(model.lookup(&probe), index.lookup(&probe));
                prop_assert_eq!(model.lookup_all(&probe), index.lookup_all(&probe));
                probes_seen.push(probe);
            }
            Op::Probe(probe) => {
                prop_assert_eq!(model.lookup(probe), index.lookup(probe));
                prop_assert_eq!(model.lookup_all(probe), index.lookup_all(probe));
                probes_seen.push(probe.clone());
            }
            Op::Remove(n) => {
                let slots = model.entries.len();
                if slots == 0 {
                    continue;
                }
                let id = n % slots;
                prop_assert_eq!(model.remove(id), index.remove(id), "remove({})", id);
            }
            Op::Maintain => {
                // `remove` and the seal keep every segment inside the
                // tombstone rule, so there is nothing left to rewrite —
                // and every observable below must still agree.
                prop_assert_eq!(index.maintain(), 0);
            }
            Op::Compact => {
                prop_assert_eq!(model.compact(), index.compact());
                inserted = model.entries.iter().flatten().cloned().collect();
            }
        }
        prop_assert_eq!(model.live(), index.len(), "live count diverged");
        check_reader_quiescent(&index, &model, &probes_seen);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch index ≡ the Vec-of-Vec model under arbitrary interleavings
    /// of insert/remove/maintain/compact, sealing every 3 rows — where
    /// each revocation of a sealed row is a quarter of its segment and
    /// rewrites it on the spot — and every 5, where a segment carries
    /// its first tombstone and is rewritten at the second, and a head
    /// can seal already sparse: every script crosses several seals —
    /// for each vector kernel, across every cell width the ring
    /// strategy spans.
    #[test]
    fn epoch_index_matches_vec_of_vec_model((t, ka, ops) in epoch_case()) {
        for filter in [
            FilterConfig::default(),
            FilterConfig::swar(),
            FilterConfig::disabled(),
        ] {
            for seal_rows in [3, 5] {
                check_epoch_against_model(
                    EpochIndex::with_seal_rows(t, ka, filter, seal_rows),
                    t, ka, &ops,
                );
            }
        }
    }

    /// A large `reserve` changes nothing observable: the same scripts
    /// driven through a `reserve`-primed index assign the same ids, and
    /// a reader handed out *before* the inserts sees each row as soon as
    /// its insert returns — no `flush`, no deferral — and the hint
    /// sizes nothing.
    #[test]
    fn large_reserve_changes_nothing_observable((t, ka, ops) in epoch_case()) {
        let mut reserved = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 3);
        let mut plain = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 3);
        let sketches: Vec<&Vec<i64>> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Insert(s) => Some(s),
                _ => None,
            })
            .collect();
        if !sketches.is_empty() {
            reserved.reserve(5000, sketches[0].len());
            let reader = reserved.reader();
            for s in &sketches {
                prop_assert_eq!(reserved.insert(s), plain.insert(s));
                prop_assert_eq!(reader.find_first(s), plain.lookup(s));
                prop_assert_eq!(reader.find_at_most(s, usize::MAX), plain.lookup_all(s));
            }
            prop_assert_eq!(reserved.len(), plain.len());
            prop_assert_eq!(reserved.segments().len(), plain.segments().len());
            prop_assert_eq!(reserved.heap_bytes(), plain.heap_bytes());
        }
    }
}

/// The head sizes around the plane's 64-row group boundary, which the
/// random scripts (≤ 64 ops) never reach: a head that is all open group
/// (1, 63 rows), exactly one planed group (64), a planed group plus an
/// open one (65, 127), two planed groups (128) and two plus one row
/// (129) — in a head that holds them all (`seal_rows` 200) and in one
/// that seals mid-group at 100 rows — against the Vec-of-Vec model,
/// on every kernel. Rows come in five clusters within `t` of their
/// centre, so a probe has hits in the planed groups *and* the open
/// group, and revocations land in both.
#[test]
fn head_sizes_around_the_group_boundary_match_model() {
    let (t, ka, dim) = (100u64, 400u64, 12usize);
    let centre = |c: usize, d: usize| -> i64 { ((c * 83 + d * 37) % 400) as i64 - 200 };
    let row = |i: usize| -> Vec<i64> {
        (0..dim)
            .map(|d| centre(i % 5, d) + ((i * 7 + d * 13) % 41) as i64 - 20)
            .collect()
    };
    let probe =
        |c: usize, shift: i64| -> Vec<i64> { (0..dim).map(|d| centre(c, d) + shift).collect() };
    let filters = [
        FilterConfig::default(),
        FilterConfig::disabled(),
        FilterConfig::swar(),
    ];
    for n in [1usize, 63, 64, 65, 127, 128, 129] {
        let mut ops: Vec<Op> = (0..n).map(|i| Op::Insert(row(i))).collect();
        ops.extend([0, n / 2, n - 1, 63 % n, 64 % n].map(Op::Remove));
        // Hits in every cluster, the same probes shifted out of reach
        // in one coordinate class, then maintenance and a renumbering
        // compaction under the same probes.
        ops.extend((0..5).map(|c| Op::Probe(probe(c, 30))));
        ops.push(Op::Probe(probe(0, 200)));
        ops.extend([Op::Maintain, Op::Probe(probe(1, -30)), Op::Compact]);
        ops.push(Op::Probe(probe(2, 0)));
        for filter in filters {
            for seal_rows in [200, 100] {
                let index = EpochIndex::with_seal_rows(t, ka, filter, seal_rows);
                check_epoch_against_model(index, t, ka, &ops);
            }
        }
    }
}

/// The shape the random scripts (≤ 64 ops) do not reach: three sealed
/// segments and a head, with rows tombstoned in every tier — three to a
/// 16-row segment, one short of the quarter that would rewrite it —
/// then a 32-probe batch (the model check re-runs `find_first_batch`
/// over every probe seen so far) mixing hits in the first tier, hits
/// behind tombstones in a later segment, hits only the head still
/// holds, probes whose every match is revoked, and plain misses; and
/// last the fourth revocation in each segment, so the same batch runs
/// again over three rewritten segments.
#[test]
fn batch_over_tombstoned_tiers_matches_model() {
    let (t, ka) = (10u64, 4096u64);
    // Seal at 16 rows: 54 inserts leave sealed segments 0..16, 16..32,
    // 32..48 and a 6-row head. Value class `i % 16` repeats every
    // segment, so each probe has one candidate row per tier.
    let mut ops: Vec<Op> = (0..54i64)
        .map(|i| Op::Insert(vec![100 * (i % 16), 100 * (i % 16)]))
        .collect();
    // Class 1: every copy revoked. Class 3: only the third segment's
    // copy survives. Class 4: only the head's copy survives.
    ops.extend([1, 17, 33, 49, 3, 19, 51, 4, 20, 36].map(Op::Remove));
    ops.extend((0..16i64).map(|class| Op::Probe(vec![100 * class + 3, 100 * class - 3])));
    ops.extend((0..8i64).map(|class| Op::Probe(vec![100 * class - 9, 100 * class + 9])));
    ops.extend((0..8i64).map(|miss| Op::Probe(vec![2000 + 100 * miss, 50])));
    ops.extend([5, 21, 37, 40].map(Op::Remove));
    for filter in [FilterConfig::default(), FilterConfig::disabled()] {
        let mut shape = EpochIndex::with_seal_rows(t, ka, filter, 16);
        for op in &ops {
            match op {
                Op::Insert(sketch) => drop(shape.insert(sketch)),
                Op::Remove(id) => {
                    assert!(shape.remove(*id));
                    let rows: Vec<usize> = shape.segments().iter().map(|s| s.rows()).collect();
                    match id {
                        36 => assert_eq!((rows, shape.staging_rows()), (vec![16; 3], 6)),
                        40 => assert_eq!(rows, [12, 12, 12]),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        let index = EpochIndex::with_seal_rows(t, ka, filter, 16);
        check_epoch_against_model(index, t, ka, &ops);
    }
}

/// The default seal threshold is 65 536 rows or 8 MiB of cells,
/// whichever is fewer rows, in whole 1 024-row tiles and at least one:
/// 65 536 at the paper's 64 packed coordinates (72-byte rows, 4.5 MiB),
/// 7 168 at `dim = 1 024` (1 152-byte rows), and one 16 MiB tile on a
/// ring that needs `i64` cells at `dim = 2 048`. Each
/// head seals exactly there, and lookups, batches and revocations on
/// both sides of the boundary answer as one `ScanIndex` arena does.
#[test]
fn default_head_is_capped_by_rows_and_by_bytes() {
    let shapes = [
        (100u64, 400u64, 64usize, 65_536usize),
        (100, 400, 1_024, 7_168),
        (1_000, 1 << 40, 2_048, 1_024),
    ];
    for (t, ka, dim, seal) in shapes {
        let mut rng = StdRng::seed_from_u64(dim as u64);
        let half = (ka / 2) as i64;
        let mut random_row =
            || -> Vec<i64> { (0..dim).map(|_| rng.gen_range(-half..half)).collect() };
        let (mut epoch, mut scan) = (EpochIndex::new(t, ka), ScanIndex::new(t, ka));
        let mut probes = Vec::new();
        for i in 0..seal + 70 {
            let row = random_row();
            assert_eq!(epoch.insert(&row), scan.insert(&row));
            let shape = (epoch.segments().len(), epoch.staging_rows());
            assert_eq!(
                shape,
                ((i + 1) / seal, (i + 1) % seal),
                "dim {dim}, row {i}"
            );
            if i == 0 || (i + 3 >= seal && i < seal + 3) || i == seal + 69 {
                probes.push(row);
            }
        }
        assert_eq!(epoch.segments()[0].rows(), seal);
        probes.push(random_row()); // a miss
        let reader = epoch.reader();
        for revoke in [None, Some(seal - 1), Some(seal)] {
            if let Some(id) = revoke {
                assert_eq!(epoch.remove(id), scan.remove(id));
            }
            for probe in &probes {
                assert_eq!(epoch.lookup_all(probe), scan.lookup_all(probe));
                assert_eq!(reader.find_first(probe), scan.lookup(probe));
            }
            assert_eq!(reader.find_first_batch(&probes), scan.lookup_batch(&probes));
        }
    }
}

/// Each sketch is held once, at 9 bits a coordinate: past its first
/// seal at the paper shape (`t = 100`, `ka = 400`, `dim = 64`, a plane
/// 8 lanes deep), 64 more rows cost an index exactly 64 × 72 B — 64 of
/// row column and 8 of plane each — and one tombstone word, 72.125 B a
/// row (80.125 while the plane held a copy of each row's first 8
/// bytes), and the whole index stays within a hundredth of a byte a row
/// of that.
#[test]
fn a_paper_row_costs_nine_bits_a_coordinate_and_a_liveness_bit() {
    let mut rng = StdRng::seed_from_u64(72);
    let mut index = EpochIndex::new(100, 400);
    let mut insert = |index: &mut EpochIndex, n: usize| {
        for _ in 0..n {
            let row: Vec<i64> = (0..64).map(|_| rng.gen_range(-199..=200)).collect();
            index.insert(&row);
        }
    };
    insert(&mut index, 65_536 + 64);
    assert_eq!((index.segments().len(), index.staging_rows()), (1, 64));
    let before = index.heap_bytes();
    insert(&mut index, 64);
    let per_row = (index.heap_bytes() - before) as f64 / 64.0;
    assert_eq!(per_row, 72.125);
    let overall = index.heap_bytes() as f64 / index.len() as f64;
    assert!(overall - 72.125 < 0.01, "{overall} B a row");
}

/// Reserving is not residing: 64 default indices that each took one
/// row have 64 × 4.5 MiB of head reserved (4 of row columns, 0.5 of
/// plane), and the process must not
/// have grown by even an eighth of that — the reservation is left
/// uninitialised and untouched, the kernel's zero page until rows land
/// in it. Reads `VmRSS` as the
/// benchmark does, so it runs alone (CI's `epoch head` step), not
/// beside the other tests of this binary.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "reads the process's RSS: run alone (CI's `epoch head` step)"]
fn a_reserved_head_is_not_resident() {
    let rss = || -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        let kib: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        kib * 1024
    };
    let before = rss();
    let indices: Vec<EpochIndex> = (0..64)
        .map(|i| {
            let mut index = EpochIndex::new(100, 400);
            index.insert(&[i; 64]);
            index
        })
        .collect();
    let grown = rss().saturating_sub(before);
    assert!(indices.iter().all(|index| index.staging_rows() == 1));
    assert!(
        grown < 40 << 20,
        "64 one-row indices made {} MiB resident of the 288 MiB they reserve",
        grown >> 20
    );
}

/// Readers racing a writer: N reader threads hammer lock-free scans
/// while the writer churns enrolls, revocations, and maintenance under
/// them. Every reader observation must be explainable by *some*
/// published state:
///
/// - a stable row (inserted before the readers started, never removed)
///   is the lowest matching id in **every** snapshot, so `find_first`
///   on its probe must always return exactly it;
/// - any id returned for a churn probe must actually match that probe
///   (ids are append-only outside `compact`, which this test never
///   calls, so id → content is a pure function);
/// - snapshot generations never move backwards on a single reader.
#[test]
fn concurrent_readers_agree_with_some_published_state() {
    let (t, ka) = (10u64, 4096u64);
    let dim = 4usize;
    let stable = 24usize;
    // Row id → content, valid for stable and churn rows alike: slot j
    // sits at ring offset 100·j in every coordinate (> 2t apart, so
    // probes never cross-match), churn rows offset by +50 (> t from
    // both neighbors).
    let row = |j: usize| -> Vec<i64> {
        let off = if j < stable { 0 } else { 50 };
        vec![(100 * j as i64 + off) % ka as i64; dim]
    };

    let mut index = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 4);
    for j in 0..stable {
        assert_eq!(index.insert(&row(j)), j);
    }
    let reader_proto = index.reader();
    let stop = AtomicBool::new(false);
    let checks = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let reader = reader_proto.clone();
            let (stop, checks) = (&stop, &checks);
            scope.spawn(move || {
                let mut last_gen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let gen = reader.generation();
                    assert!(gen >= last_gen, "generation moved backwards");
                    last_gen = gen;
                    for j in 0..stable {
                        let probe = row(j);
                        assert_eq!(
                            reader.find_first(&probe),
                            Some(j),
                            "stable row {j} must match in every snapshot"
                        );
                        assert_eq!(reader.find_at_most(&probe, 2), vec![j]);
                    }
                    // Churn probes: matches are optional (the row may
                    // not exist / be revoked in this snapshot), but any
                    // returned id must genuinely match the probe.
                    for j in stable..stable + 40 {
                        let probe = row(j);
                        for id in reader.find_at_most(&probe, usize::MAX) {
                            assert!(
                                sketches_match(&row(id), &probe, t, ka),
                                "id {id} returned for probe {j} does not match it"
                            );
                        }
                    }
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Writer: 40 churn rounds of enroll + maintain + revoke — a
        // head seals every fourth round, half dead and so rewritten as
        // it joins the list, so readers race real segment-list
        // publishes.
        for round in 0..40 {
            let id = stable + round;
            assert_eq!(index.insert(&row(id)), id);
            if round % 3 == 0 {
                index.maintain();
            }
            if round % 2 == 0 {
                assert!(index.remove(id));
            }
        }
        // Let the readers observe the final state at least once.
        while checks.load(Ordering::Relaxed) < 6 {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiescent cross-check: the final published state equals the
    // sequential expectation (even churn rows revoked, odd ones live).
    let reader = index.reader();
    for j in stable..stable + 40 {
        let expect = ((j - stable) % 2 == 1).then_some(j);
        assert_eq!(reader.find_first(&row(j)), expect, "churn row {j}");
    }
}
