//! Exact costs, counted rather than timed: Montgomery products per DSA
//! operation and per login, from `fe-bigint`'s per-thread counters, the
//! hardware divides `SS` and `Rec` fall back to, from `fe-core`'s, the
//! keyed id hashes of the record table, from `fe-protocol`'s, the work
//! of an identification sweep, from the index's, and the bytes a record
//! takes in the journal, in a snapshot row and on the wire.
//!
//! A count does not move with the host's speed, so these are equalities.
//! Each pinned number is beside what the same operation took with one
//! generic 4-bit-window `mod_pow` per power of `g` (and two per
//! verification), the code the fixed-base comb replaced, with a
//! hardware divide per residue on the ring, the code the reciprocals
//! replaced, or with an id table that re-hashed every id it re-filed,
//! the code the 43 hash bits in a slot word replaced.

use fuzzy_id::bigint::montgomery::{counts, Counts};
use fuzzy_id::core::codec::Writer;
use fuzzy_id::core::{
    ring_divides, sweep_counts, ChebyshevSketch, EpochIndex, FilterConfig, ScanIndex, SecureSketch,
    SketchIndex,
};
use fuzzy_id::crypto::dsa::{Dsa, DsaParams};
use fuzzy_id::crypto::sig::SignatureScheme;
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::store::{put_record, EnrollmentStore, FileStore, LogEventRef};
use fuzzy_id::protocol::{
    id_hashes, wire, AuthenticationServer, BiometricDevice, EnrollmentRecord, IdentOutcome,
    SystemParams,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// `f`'s result and the Montgomery operations it ran on this thread.
fn cost<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = counts();
    let out = f();
    (out, counts() - before)
}

/// The paper's 1024-bit group, its `g` table already built (the build is
/// once per process, not per operation).
fn dsa_1024() -> Dsa {
    let params = DsaParams::dsa_1024_160();
    params.pow_g(&fuzzy_id::bigint::Natural::one());
    Dsa::new(params.clone())
}

#[test]
fn a_device_key_costs_at_most_39_products() {
    let dsa = dsa_1024();
    // ≤ 19 squarings and ≤ 19 multiplications along the comb's 20
    // columns, and one conversion out: ≤ 39 whatever the seed. Was 209–215
    // on these seeds.
    for seed in 0..32u8 {
        let (_, spent) = cost(|| dsa.keypair_from_seed(&[seed; 32]));
        assert!(spent.squarings <= 19, "seed {seed}: {spent:?}");
        assert!(spent.products() <= 39, "seed {seed}: {spent:?}");
        assert_eq!(spent.contexts, 0, "nothing is built per call");
    }
    let (_, spent) = cost(|| dsa.keypair_from_seed(b"costs"));
    assert_eq!(spent.products(), 39); // was 209
}

#[test]
fn sign_and_verify_costs_are_pinned() {
    let dsa = dsa_1024();
    let (sk, vk) = dsa.keypair_from_seed(b"costs");
    // `g^k` on the comb. Was 213.
    let (sig, spent) = cost(|| dsa.sign(&sk, b"challenge"));
    assert_eq!(spent.products(), 39);
    // `g^u1 · y^u2` on one squaring chain: `y`'s 4-bit window table
    // (7 squarings, 7 multiplications, one conversion in), 156 squarings
    // that the comb's 20 columns ride on, and one conversion out. Was 421.
    let (ok, spent) = cost(|| dsa.verify(&vk, b"challenge", &sig));
    assert!(ok);
    assert_eq!(
        (spent.squarings, spent.multiplications, spent.contexts),
        (163, 65, 0)
    );
}

/// A device enrolls `n` users on one in-process server, then the first
/// logs in (`begin_identification` → `respond` → `finish_identification`)
/// with the same readings and randomness whatever `n` is.
fn login_cost(n: usize) -> Counts {
    login_cost_among(n, |device, i, others| {
        let other = device.params().sketch().line().random_vector(64, others);
        device.enroll(&format!("user-{i}"), &other, others).unwrap()
    })
}

/// [`login_cost`] with the `n − 1` other users' records drawn by `other`
/// (from their index and one shared generator), after the target's.
fn login_cost_among(
    n: usize,
    mut other: impl FnMut(&BiometricDevice, usize, &mut StdRng) -> EnrollmentRecord,
) -> Counts {
    let params = SystemParams::paper_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());
    let line = params.sketch().line();
    let mut rng = StdRng::seed_from_u64(7);
    let bio = line.random_vector(64, &mut rng);
    server
        .enroll(device.enroll("target", &bio, &mut rng).unwrap())
        .unwrap();
    let mut others = StdRng::seed_from_u64(8);
    for i in 1..n {
        server.enroll(other(&device, i, &mut others)).unwrap();
    }
    assert_eq!(server.user_count(), n);

    let mut rng = StdRng::seed_from_u64(9);
    let (outcome, spent) = cost(|| {
        let probe = device.probe_sketch(&bio, &mut rng).unwrap();
        let challenge = server.begin_identification(&probe, &mut rng).unwrap();
        let response = device.respond(&bio, &challenge, &mut rng).unwrap();
        server.finish_identification(&response).unwrap()
    });
    assert!(matches!(outcome, IdentOutcome::Identified(ref id) if id == "target"));
    spent
}

/// Fig. 4 as an equality: one signature and one verification per
/// identification, whatever the population. The sweep that finds the
/// record does no modular arithmetic, so a login costs exactly the same
/// products at N = 1 and N = 10³: `respond`'s key and signature on the
/// comb and the server's one verification, 304 in all. Was 844 at both.
#[test]
fn a_login_costs_the_same_products_at_any_population() {
    dsa_1024();
    let one = login_cost(1);
    assert_eq!(one, login_cost(1_000));
    assert_eq!(one.products(), 304);
    assert_eq!(one.contexts, 0);
}

/// Fig. 4 at the benchmark's population: among 10⁵ records a login still
/// costs N = 1's 304 products. The others are built the way the
/// benchmark's generator builds them — a real Chebyshev sketch of a fresh
/// biometric under one donor's key bytes — so setting up takes well
/// under a second, not 10⁵ key generations.
#[test]
fn a_login_costs_304_products_at_ten_to_the_fifth() {
    dsa_1024();
    let params = SystemParams::paper_defaults();
    let scheme = *params.sketch();
    let device = BiometricDevice::new(params);
    let mut rng = StdRng::seed_from_u64(10);
    let donor_bio = scheme.line().random_vector(64, &mut rng);
    let donor = device.enroll("donor", &donor_bio, &mut rng).unwrap();
    let crowd = login_cost_among(100_000, |_, i, others| {
        let bio = scheme.line().random_vector(64, others);
        let mut helper = donor.helper.clone();
        helper.sketch.inner = scheme.sketch(&bio, others).unwrap();
        others.fill_bytes(&mut helper.sketch.tag);
        EnrollmentRecord {
            id: format!("user-{i}"),
            public_key: donor.public_key.clone(),
            helper,
        }
    });
    assert_eq!(crowd, login_cost(1));
    assert_eq!(crowd.products(), 304);
}

/// Sec. VII as an equality: identification costs what verification
/// costs. Two servers enroll the same 100 users; on one the first user
/// logs in by probe (`begin_identification`: a sweep of the population),
/// on the other by claimed id (`begin_verification`). The device draws
/// its probe sketch either way, so both servers draw the same challenge
/// and the device signs the same message: finding the record by sketch
/// adds no modular product, and each login costs 304.
#[test]
fn identification_costs_the_products_of_verification() {
    dsa_1024();
    let params = SystemParams::paper_defaults();
    let device = BiometricDevice::new(params.clone());
    let line = params.sketch().line();
    let login = |by_probe: bool| {
        let mut server = AuthenticationServer::new(params.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let bio = line.random_vector(64, &mut rng);
        let record = device.enroll("target", &bio, &mut rng).unwrap();
        server.enroll(record).unwrap();
        let mut others = StdRng::seed_from_u64(8);
        for i in 1..100 {
            let other = line.random_vector(64, &mut others);
            let record = device
                .enroll(&format!("user-{i}"), &other, &mut others)
                .unwrap();
            server.enroll(record).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(9);
        let (outcome, spent) = cost(|| {
            let probe = device.probe_sketch(&bio, &mut rng).unwrap();
            let challenge = if by_probe {
                server.begin_identification(&probe, &mut rng)
            } else {
                server.begin_verification("target", &mut rng)
            };
            let response = device.respond(&bio, &challenge.unwrap(), &mut rng);
            server.finish_identification(&response.unwrap()).unwrap()
        });
        assert!(matches!(outcome, IdentOutcome::Identified(ref id) if id == "target"));
        spent
    };
    let identified = login(true);
    assert_eq!(identified, login(false));
    assert_eq!(identified.products(), 304);
}

/// The identification sweep's phase 1 at the paper ring: every probe
/// coordinate rules out one of four cells, so a row survives a cell
/// test with probability ¾ and a block of 512 random rows is empty once
/// none of them survives. The loop checks for that every 4 tests, so
/// it runs `Σⱼ 4 · (1 − (1 − (¾)^{4j})^512)` tests a block over
/// `j = 0 … 15` — 25.70 — and a row reaches phase 2 with probability
/// `(¾)⁶⁴ ≈ 10⁻⁸`. Measured over 100 no-match probes of 196 whole blocks
/// (100 352 rows, no open group): within 5% of the model, and at most
/// one phase-2 row a probe; and a planted match is verified and found.
#[test]
fn a_sweep_tests_the_cells_the_geometric_model_predicts() {
    const ROWS: usize = 196 * 512;
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let residues =
        |rng: &mut StdRng| -> Vec<i64> { (0..64).map(|_| rng.gen_range(-199..=200)).collect() };
    let mut index = ScanIndex::new(100, 400);
    index.reserve(ROWS, 64);
    for _ in 0..ROWS {
        index.insert(&residues(&mut rng));
    }
    let model: f64 = (0..16)
        .map(|j| 4.0 * (1.0 - (1.0 - 0.75f64.powi(4 * j)).powi(512)))
        .sum();
    assert!((model - 25.70).abs() < 0.01, "{model}");

    let before = sweep_counts();
    for _ in 0..100 {
        let probe = residues(&mut rng);
        assert_eq!(index.find_first(&probe), None);
    }
    let after = sweep_counts();
    let blocks = after.blocks - before.blocks;
    assert_eq!(blocks, 100 * 196, "every block visited once a probe");
    let per_block = (after.coordinates - before.coordinates) as f64 / blocks as f64;
    assert!(
        (per_block / model - 1.0).abs() < 0.05,
        "{per_block:.2} cell tests a block against the model's {model:.2}"
    );
    let verified = (after.verified - before.verified) as f64 / 100.0;
    assert!(verified <= 1.0, "{verified} rows a probe reached phase 2");

    // A row within t of the probe on every coordinate passes phase 1
    // and phase 2 finds it.
    let probe = residues(&mut rng);
    let planted: Vec<i64> = probe
        .iter()
        .map(|&v| v + rng.gen_range(-100i64..=100))
        .collect();
    let id = index.insert(&planted);
    let before = sweep_counts();
    assert_eq!(index.find_first(&probe), Some(id));
    let after = sweep_counts();
    assert!(after.verified - before.verified >= 1);
}

/// A revoked row stays in its sealed segment until a compaction, and a
/// sweep pays for it only its liveness bit: at the paper shape, over
/// four sealed segments with the probe planted once in each, revoking
/// every row of two of them takes their `seal / 512` blocks each out of
/// a no-match probe's phase 1, and phase 2 verifies no revoked row.
#[test]
fn a_dead_segment_costs_a_sweep_no_block() {
    const SEAL: usize = 8 * 512;
    const PLANTED: usize = 100;
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let residues =
        |rng: &mut StdRng| -> Vec<i64> { (0..64).map(|_| rng.gen_range(-199..=200)).collect() };
    let probe = residues(&mut rng);
    let miss = residues(&mut rng);
    let mut index = EpochIndex::with_seal_rows(100, 400, FilterConfig::default(), SEAL);
    for id in 0..4 * SEAL {
        let row = if id % SEAL == PLANTED {
            probe.clone()
        } else {
            residues(&mut rng)
        };
        index.insert(&row);
    }
    assert_eq!((index.segments().len(), index.staging_rows()), (4, 0));
    // Every match of `p`, with the phase-1 blocks and phase-2 rows.
    let sweep = |index: &EpochIndex, p: &[i64]| {
        let before = sweep_counts();
        let hits = index.find(p, None, usize::MAX);
        let after = sweep_counts();
        (
            hits,
            after.blocks - before.blocks,
            after.verified - before.verified,
        )
    };
    let planted = |segments: &[usize]| -> Vec<usize> {
        segments.iter().map(|s| s * SEAL + PLANTED).collect()
    };
    let blocks = (4 * SEAL / 512) as u64;
    assert_eq!(sweep(&index, &miss), (vec![], blocks, 0));
    assert_eq!(sweep(&index, &probe), (planted(&[0, 1, 2, 3]), blocks, 4));

    for id in (SEAL..2 * SEAL).chain(3 * SEAL..4 * SEAL) {
        assert!(index.remove(id));
    }
    assert_eq!(index.segments().len(), 4, "dead segments stay listed");
    let left = blocks - 2 * (SEAL / 512) as u64;
    assert_eq!(sweep(&index, &miss), (vec![], left, 0));
    assert_eq!(sweep(&index, &probe), (planted(&[0, 2]), left, 2));
}

/// `f`'s result and the hardware divides the ring arithmetic fell back
/// to on this thread.
fn divides<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ring_divides();
    let out = f();
    (out, ring_divides() - before)
}

/// An enroll-shaped `SS` and a `Rep`-shaped `Rec` reduce on the ring by
/// reciprocals: no hardware divide on in-range input, at the benchmark's
/// dimension and at Sec. VII's largest. Before the reciprocals every
/// residue divided: at dimension 64, 64 (`random_vector`) + 64 (`SS`) +
/// 256 (`Rec`: three wraps and one residue a coordinate) = 384.
#[test]
fn sketch_and_recover_divide_nothing_in_range() {
    let scheme = ChebyshevSketch::paper_defaults();
    let line = *scheme.line();
    let mut rng = StdRng::seed_from_u64(31);
    for n in [64, 5_000] {
        let (_, spent) = divides(|| {
            let bio = line.random_vector(n, &mut rng);
            let s = scheme.sketch(&bio, &mut rng).unwrap();
            let noisy: Vec<i64> = bio
                .iter()
                .map(|&x| line.wrap(x + rng.gen_range(-100i64..=100)))
                .collect();
            assert_eq!(scheme.recover(&noisy, &s).unwrap(), bio);
            assert_eq!(scheme.recover_exhaustive(&noisy, &s).unwrap(), bio);
        });
        assert_eq!(spent, 0, "dimension {n}");
    }
}

/// The device's enrolment and a whole login (probe sketch, `Rep`, key and
/// signature) divide nothing either.
#[test]
fn an_enroll_and_a_login_divide_nothing() {
    let (_, spent) = divides(|| login_cost(2));
    assert_eq!(spent, 0);
}

/// A coordinate more than a period outside the canonical range is the
/// one input the reciprocals leave to a divide: exactly one per such
/// coordinate, in `SS` and in either `Rec`.
#[test]
fn each_far_coordinate_costs_one_divide() {
    let scheme = ChebyshevSketch::paper_defaults();
    let line = *scheme.line();
    let far = line.period() as i64 * (1 << 30); // a whole number of turns
    let mut rng = StdRng::seed_from_u64(32);
    let bio = line.random_vector(64, &mut rng);
    let s = scheme.sketch(&bio, &mut rng).unwrap();
    for moved in [0usize, 1, 7, 64] {
        let mut x = bio.clone();
        for (i, xi) in x.iter_mut().take(moved).enumerate() {
            *xi += if i % 2 == 0 { far } else { -far };
        }
        let (_, spent) = divides(|| scheme.sketch(&x, &mut rng).unwrap());
        assert_eq!(spent, moved as u64, "SS, {moved} far");
        let (recovered, spent) = divides(|| scheme.recover(&x, &s));
        assert_eq!((recovered.unwrap(), spent), (bio.clone(), moved as u64));
        let (recovered, spent) = divides(|| scheme.recover_exhaustive(&x, &s));
        assert_eq!((recovered.unwrap(), spent), (bio.clone(), moved as u64));
    }
    let (_, spent) = divides(|| scheme.sketch(&[i64::MIN, 0, i64::MAX], &mut rng));
    assert_eq!(spent, 2);
}

/// `SS` takes its eight-coordinate loop only when every `x + kav` is a
/// 32-bit number, and otherwise runs the scalar loop over the whole
/// sketch: `k` coordinates off that range, wherever they sit and however
/// near its ends (`x + kav` at `2³²`, or just below 0), cost exactly `k`
/// divides, and the coordinates just inside the ends cost none.
#[test]
fn ss_divides_once_per_coordinate_off_the_fast_range() {
    let scheme = ChebyshevSketch::paper_defaults();
    let line = *scheme.line();
    let period = line.period() as i64;
    let (end, below) = ((1 << 32) - period, -period - 1); // first points off
    let mut rng = StdRng::seed_from_u64(33);
    for dim in [64, 67] {
        let mut x = line.random_vector(dim, &mut rng);
        x[0] = end - 1;
        x[dim - 1] = -period;
        let (_, spent) = divides(|| scheme.sketch(&x, &mut rng).unwrap());
        assert_eq!(spent, 0, "dimension {dim}, in range");
        for k in [1, 2, 9, dim] {
            let mut x = x.clone();
            // `k` distinct positions: the first `k` of a partial shuffle.
            let mut off = (0..dim).collect::<Vec<_>>();
            for (n, i) in (0..k).map(|n| (n, rng.gen_range(n..dim))) {
                off.swap(n, i);
                x[off[n]] = [end, below, end + period, i64::MIN, i64::MAX][n % 5];
            }
            let (_, spent) = divides(|| scheme.sketch(&x, &mut rng).unwrap());
            assert_eq!(spent, k as u64, "dimension {dim}, {k} off");
        }
    }
}

/// `f`'s result and the keyed id hashes the record tables computed on
/// this thread.
fn id_hashed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = id_hashes();
    let out = f();
    (out, id_hashes() - before)
}

/// An id is hashed once a lookup, whatever the population: once by an
/// enroll's vacancy probe, once by a revoke's plan, and never by
/// `compact`, because the id table re-files its entries from the 43
/// hash bits each slot word keeps. `scan_inproc`'s two shards, and
/// records synthesized as `fe-benchmark`'s generator builds them: a
/// fresh sketch under one donor's key bytes and seed. While every
/// id-table rebuild re-hashed each live id from the arena, the same
/// enrolls cost 2, 2.80 and 2.15 hashes each at N = 1, 10³ and 10⁵
/// (2.84 at 10⁶); a revoke cost 2 (plan and apply) plus one per entry
/// its backward shift passed, 3.7 and 9.1 on average here at 10³ and
/// 10⁵; and `compact` one per live record. The count is exactly 1 at
/// 10⁶ too, a population too large to enroll here.
#[test]
fn an_enroll_hashes_its_id_once_at_any_population() {
    let params = SystemParams::paper_defaults();
    let scheme = *params.sketch();
    let line = *scheme.line();
    let mut rng = StdRng::seed_from_u64(34);
    let donor_bio = line.random_vector(64, &mut rng);
    let device = BiometricDevice::new(params.clone());
    let donor = device.enroll("donor", &donor_bio, &mut rng).unwrap();
    let id = |u: usize| format!("user-{u:06}");
    for n in [1, 1_000, 100_000] {
        let server: SharedServer = SharedServer::with_shards(params.clone(), 2);
        let (_, spent) = id_hashed(|| {
            for u in 0..n {
                let mut helper = donor.helper.clone();
                let bio = line.random_vector(64, &mut rng);
                helper.sketch.inner = scheme.sketch(&bio, &mut rng).unwrap();
                rng.fill_bytes(&mut helper.sketch.tag);
                let public_key = donor.public_key.clone();
                server
                    .enroll(EnrollmentRecord {
                        id: id(u),
                        public_key,
                        helper,
                    })
                    .unwrap();
            }
        });
        assert_eq!(spent, n as u64, "enrolls at N = {n}");

        let gone: Vec<_> = (0..n).step_by(7).map(id).collect();
        let (_, spent) = id_hashed(|| gone.iter().for_each(|u| server.revoke(u).unwrap()));
        assert_eq!(spent, gone.len() as u64, "revokes at N = {n}");
        // No store: a checkpoint is the shards' `compact`.
        let (reclaimed, spent) = id_hashed(|| server.checkpoint().unwrap());
        assert_eq!((reclaimed, spent), (gone.len(), 0), "compact at N = {n}");
        assert_eq!(server.user_count(), n - gone.len());
    }
}

/// A scratch directory for one test's store.
fn scratch_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-costs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bytes `event` adds to the journal in `dir`.
fn journaled(dir: &std::path::Path, params: &SystemParams, event: LogEventRef<'_>) -> u64 {
    let journal = dir.join("journal.fel");
    let mut store = FileStore::open(dir, params.fingerprint()).unwrap();
    let before = std::fs::metadata(&journal).unwrap().len();
    store.append(event).unwrap();
    std::fs::metadata(&journal).unwrap().len() - before
}

/// The bytes of a paper-dimension record (64 coordinates, a 32-byte
/// tag and a 32-byte seed), as equalities in `|id|` and `|pk|`. Its
/// sketch is 72 bytes of 9-bit zigzag codes behind a dimension and a
/// width byte (Theorem 3 prices it at 69.2), and every other length is
/// one byte: 142 + |id| + |pk| a row, 151 a journal frame (`len ‖ crc ‖
/// tag` ahead of the row). Version 1 spent a `u32` on each of five
/// lengths and 8 bytes a coordinate: 596 a row, 605 a frame, which the
/// wire's `Enroll` body still is. A revocation is `10 + |id|`, was
/// `13 + |id|`.
#[test]
fn a_record_costs_its_bytes_exactly() {
    let params = SystemParams::paper_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(33);
    let bio = params.sketch().line().random_vector(64, &mut rng);
    let record = device.enroll("user-33", &bio, &mut rng).unwrap();
    let helper = &record.helper;
    assert_eq!((helper.sketch.tag.len(), helper.seed.len()), (32, 32));
    let fields = record.id.len() + record.public_key.len();

    let mut w = Writer::new();
    put_record(&mut w, &record);
    assert_eq!(w.as_slice().len(), 142 + fields);

    let dir = scratch_store("bytes");
    assert_eq!(
        journaled(&dir, &params, LogEventRef::Enroll(&record)),
        151 + fields as u64
    );
    assert_eq!(
        journaled(&dir, &params, LogEventRef::Revoke(&record.id)),
        10 + record.id.len() as u64
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // A journal created before version 2 takes version-1 frames.
    let dir = scratch_store("bytes-v1");
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1-store/shard-000"
    );
    std::fs::copy(format!("{fixture}/journal.fel"), dir.join("journal.fel")).unwrap();
    assert_eq!(
        journaled(&dir, &params, LogEventRef::Enroll(&record)),
        605 + fields as u64
    );
    assert_eq!(
        journaled(&dir, &params, LogEventRef::Revoke(&record.id)),
        13 + record.id.len() as u64
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // magic ‖ tag ‖ version, then the body.
    let wire = wire::encode(&wire::Message::Enroll(record.clone()));
    assert_eq!(wire.len() - 7, 596 + fields);
}
