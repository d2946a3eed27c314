//! Durability and crash-recovery tests: a server journaled to disk,
//! killed at arbitrary points, and rebuilt via `recover()` must answer
//! identification queries exactly like the never-restarted original.

use fuzzy_id::core::codec::{Fingerprint, Reader};
use fuzzy_id::core::{EpochIndex, ScanIndex};
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::store::{EnrollmentStore, FileStore, LogEventRef, MemoryStore};
use fuzzy_id::protocol::{
    AuthenticationServer, BiometricDevice, BuildIndex, EnrollmentRecord, ProtocolError,
    SystemParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test case (proptest cases included).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fe-persistence-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Synthesizes an enrollment record with a *real* sketch but borrowed
/// public-key bytes — index/lookup behavior is identical to a real
/// enrollment, and no per-user DSA keygen is needed.
fn synthetic_record(
    params: &SystemParams,
    donor_pk: &[u8],
    id: &str,
    dim: usize,
    rng: &mut StdRng,
) -> (EnrollmentRecord, Vec<i64>) {
    use fuzzy_id::core::SecureSketch;
    let bio = params.sketch().line().random_vector(dim, rng);
    let sketch = params.sketch().sketch(&bio, rng).unwrap();
    let mut tag = vec![0u8; 32];
    rng.fill_bytes(&mut tag);
    let mut seed = vec![0u8; 16];
    rng.fill_bytes(&mut seed);
    let record = EnrollmentRecord {
        id: id.to_string(),
        public_key: donor_pk.to_vec(),
        helper: fuzzy_id::core::HelperData {
            sketch: fuzzy_id::core::RobustData { inner: sketch, tag },
            seed,
        },
    };
    (record, bio)
}

/// A fresh reading of an enrolled biometric, within Chebyshev
/// distance `t` of it.
fn noisy_reading(params: &SystemParams, bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
    let t = params.sketch().threshold() as i64;
    bio.iter()
        .map(|&x| params.sketch().line().wrap(x + rng.gen_range(-t..=t)))
        .collect()
}

/// A genuine probe for an enrolled biometric: a fresh sketch of a
/// [`noisy_reading`].
fn genuine_probe(params: &SystemParams, bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
    use fuzzy_id::core::SecureSketch;
    let reading = noisy_reading(params, bio, rng);
    params.sketch().sketch(&reading, rng).unwrap()
}

/// The body of `recovered_server_answers_lookups_identically`: engine
/// `W` writes the store, engine `R` rebuilds from it.
fn recovery_equivalence<W: BuildIndex, R: BuildIndex>(
    users: usize,
    dim: usize,
    seed: u64,
    removal_mask: u32,
    checkpoint_mid: bool,
) {
    let dir = scratch_dir("equiv-single");
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let donor = {
        let bio = params.sketch().line().random_vector(4, &mut rng);
        device.enroll("donor", &bio, &mut rng).unwrap().public_key
    };

    let mut original = AuthenticationServer::<W>::recover(params.clone(), &dir).unwrap();
    let mut bios = Vec::new();
    for u in 0..users {
        let (record, bio) = synthetic_record(&params, &donor, &format!("user-{u}"), dim, &mut rng);
        original.enroll(record).unwrap();
        bios.push(bio);
    }
    // Random revocations; a mid-history checkpoint exercises the
    // snapshot + journal-tail replay path (and slot renumbering).
    for u in 0..users.min(16) {
        if removal_mask & (1 << u) != 0 {
            original.revoke(&format!("user-{u}")).unwrap();
        }
        if checkpoint_mid && u == users / 2 {
            original.checkpoint().unwrap();
        }
    }
    for u in 16..users {
        if removal_mask & (1 << (u % 16)) != 0 {
            // Second wave reuses mask bits; ignore already-revoked.
            let _ = original.revoke(&format!("user-{u}"));
        }
    }

    // Probes: one genuine per enrolled user + a few impostors.
    let mut probes: Vec<Vec<i64>> = bios
        .iter()
        .map(|bio| genuine_probe(&params, bio, &mut rng))
        .collect();
    for _ in 0..4 {
        let stranger = params.sketch().line().random_vector(dim, &mut rng);
        probes.push(genuine_probe(&params, &stranger, &mut rng));
    }
    // Capture the never-restarted server's answers, then "kill" it
    // (dropping releases the store lock; the on-disk state is
    // exactly what a SIGKILL would leave, since every append is
    // flushed before enroll/revoke returns).
    let expected_users = original.user_count();
    let expected_single: Vec<Option<usize>> = probes
        .iter()
        .map(|p| original.find(p, None, 1).pop())
        .collect();
    let expected_batch = original.find_first_batch(&probes);
    drop(original);

    // Rebuild — under the *other* engine, to prove recovery is
    // index-portable.
    let rebuilt = AuthenticationServer::<R>::recover(params.clone(), &dir).unwrap();

    assert_eq!(expected_users, rebuilt.user_count());
    for (probe, expected) in probes.iter().zip(&expected_single) {
        assert_eq!(*expected, rebuilt.find(probe, None, 1).pop());
    }
    assert_eq!(expected_batch, rebuilt.find_first_batch(&probes));
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery equivalence (single server): after a random
    /// enroll/revoke history — optionally with a checkpoint in the
    /// middle — a server rebuilt from the on-disk store answers
    /// `find` and `find_first_batch` identically to the
    /// never-restarted original, whichever engine wrote the store and
    /// whichever rebuilds from it.
    #[test]
    fn recovered_server_answers_lookups_identically(
        users in 1usize..24,
        dim in 1usize..8,
        seed in any::<u64>(),
        removal_mask in any::<u32>(),
        checkpoint_mid in any::<bool>(),
        scan_writes in any::<bool>(),
    ) {
        let run = if scan_writes {
            recovery_equivalence::<ScanIndex, EpochIndex>
        } else {
            recovery_equivalence::<EpochIndex, ScanIndex>
        };
        run(users, dim, seed, removal_mask, checkpoint_mid);
    }
    /// Replay through a `MemoryStore` behaves exactly like the
    /// file-backed path: `recover_with_store` rebuilds the same
    /// population a straight re-application of the events would.
    #[test]
    fn memory_store_replay_matches_direct_application(
        users in 1usize..16,
        seed in any::<u64>(),
        removal_mask in any::<u16>(),
    ) {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let donor = {
            let bio = params.sketch().line().random_vector(4, &mut rng);
            device.enroll("donor", &bio, &mut rng).unwrap().public_key
        };

        let mut store = MemoryStore::new();
        let mut direct = AuthenticationServer::new(params.clone());
        for u in 0..users {
            let (record, _) =
                synthetic_record(&params, &donor, &format!("user-{u}"), 4, &mut rng);
            store.append(LogEventRef::Enroll(&record)).unwrap();
            direct.enroll(record).unwrap();
            if removal_mask & (1 << u) != 0 {
                store
                    .append(LogEventRef::Revoke(&format!("user-{u}")))
                    .unwrap();
                direct.revoke(&format!("user-{u}")).unwrap();
            }
        }
        let replayed: AuthenticationServer =
            AuthenticationServer::recover_with_store(params.clone(), Box::new(store)).unwrap();
        prop_assert_eq!(direct.user_count(), replayed.user_count());
        prop_assert_eq!(direct.record_slots(), replayed.record_slots());
        for _ in 0..8 {
            let probe = params.sketch().line().random_vector(4, &mut rng);
            prop_assert_eq!(direct.find(&probe, None, 1).pop(), replayed.find(&probe, None, 1).pop());
        }
    }
}

/// Stores are portable between the two engines: everyone enrolled by
/// an `AuthenticationServer<W>` — before its checkpoint (snapshot) and
/// after it (journal tail) — completes a full login on the
/// `AuthenticationServer<R>` recovered from the same directory, and
/// the revoked user does not.
fn every_user_logs_in_after_engine_swap<W: BuildIndex, R: BuildIndex>(tag: &str) {
    let dir = scratch_dir(tag);
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0xE46_1E5);

    let mut writer = AuthenticationServer::<W>::recover(params.clone(), &dir).unwrap();
    let mut bios = Vec::new();
    for u in 0..8 {
        let bio = params.sketch().line().random_vector(24, &mut rng);
        writer
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
        if u == 4 {
            writer.revoke("user-1").unwrap();
            writer.checkpoint().unwrap();
        }
    }
    drop(writer);

    let mut reader = AuthenticationServer::<R>::recover(params.clone(), &dir).unwrap();
    assert_eq!(reader.user_count(), 7);
    for (u, bio) in bios.iter().enumerate() {
        let reading = noisy_reading(&params, bio, &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        if u == 1 {
            assert_eq!(
                reader.begin_identification(&probe, &mut rng).unwrap_err(),
                ProtocolError::NoMatch
            );
            continue;
        }
        let chal = reader.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        let outcome = reader.finish_identification(&resp).unwrap();
        assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scan_written_store_recovers_under_epoch_and_the_reverse() {
    every_user_logs_in_after_engine_swap::<ScanIndex, EpochIndex>("swap-scan-epoch");
    every_user_logs_in_after_engine_swap::<EpochIndex, ScanIndex>("swap-epoch-scan");
}

/// The acceptance scenario: a `SharedServer` journaled to disk, "killed"
/// after N enrollments + M revocations (no checkpoint — everything lives
/// in the journal tails), recovered via `recover(path)`, and checked for
/// identical identification behavior against the unrestarted original.
#[test]
fn sharded_server_recovery_equivalence() {
    let dir = scratch_dir("equiv-sharded");
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x5AFE);

    let original = SharedServer::<EpochIndex>::durable(params.clone(), 3, &dir).unwrap();

    // N = 40 enrollments: 36 synthetic + 4 real (full-crypto) users.
    let donor = {
        let bio = params.sketch().line().random_vector(4, &mut rng);
        device.enroll("donor-x", &bio, &mut rng).unwrap().public_key
    };
    let mut bios = Vec::new();
    for u in 0..40 {
        if u % 10 == 0 {
            let bio = params.sketch().line().random_vector(24, &mut rng);
            original
                .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
                .unwrap();
            bios.push(bio);
        } else {
            let (record, bio) =
                synthetic_record(&params, &donor, &format!("user-{u}"), 24, &mut rng);
            original.enroll(record).unwrap();
            bios.push(bio);
        }
    }
    // M = 12 revocations (none of the full-crypto users 0/10/20/30).
    for u in [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13] {
        original.revoke(&format!("user-{u}")).unwrap();
    }
    assert_eq!(original.user_count(), 28);
    assert_eq!(original.journal_len(), 52);

    // Equivalence over a probe batch covering everyone + impostors: the
    // same probes must match (Ok vs NoMatch pattern) and each matched
    // challenge must carry the same record's helper data. Capture the
    // never-restarted server's answers first…
    let mut probes: Vec<Vec<i64>> = bios
        .iter()
        .map(|bio| genuine_probe(&params, bio, &mut rng))
        .collect();
    for _ in 0..6 {
        let stranger = params.sketch().line().random_vector(24, &mut rng);
        probes.push(genuine_probe(&params, &stranger, &mut rng));
    }
    let a = original.identify_batch(&probes, &mut rng);

    // …then kill + recover: dropping releases the per-shard store locks
    // without any shutdown path, and the journal tails on disk are
    // exactly the state a SIGKILL would leave (appends are flushed
    // before each call returns).
    drop(original);
    let recovered = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
    assert_eq!(recovered.num_shards(), 3);
    assert_eq!(recovered.user_count(), 28);

    let b = recovered.identify_batch(&probes, &mut rng);
    assert_eq!(a.len(), b.len());
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        match (ra, rb) {
            (Ok(ca), Ok(cb)) => {
                assert_eq!(ca.helper, cb.helper, "probe {i} matched different records");
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "probe {i}"),
            other => panic!("probe {i}: divergent outcomes {other:?}"),
        }
    }

    // The real users complete the full protocol against the recovered
    // server (fresh probes: the batch above consumed their sessions).
    for u in [0usize, 10, 20, 30] {
        use fuzzy_id::core::SecureSketch;
        let reading = noisy_reading(&params, &bios[u], &mut rng);
        let probe = params.sketch().sketch(&reading, &mut rng).unwrap();
        let chal = recovered.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert_eq!(
            recovered.finish_identification(&resp).unwrap().identity(),
            Some(format!("user-{u}").as_str()),
            "real user {u} must survive recovery end-to-end"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One write path for both kinds of shard: an in-memory and a durable
/// `SharedServer` (2–3 shards) fed the same random script answer every
/// op alike — `enroll`, `enroll_unique` with its `DuplicateBiometric`
/// refusals, `revoke`, `reset`, `check_local_uniqueness`,
/// `identify_batch` (same challenges, from equally seeded rngs) and
/// `checkpoint` — and the durable one, killed and recovered, still
/// answers as the in-memory one does. Five biometrics shared by six
/// ids make duplicates, refusals and ambiguous resets common; the run
/// checks that every interesting answer occurred at least once.
#[test]
fn in_memory_and_durable_shared_servers_answer_alike() {
    let params = SystemParams::insecure_test_defaults();
    let mut cases = proptest::rng_for("in_memory_and_durable_shared_servers_answer_alike");
    let script = (
        2usize..4,
        any::<u64>(),
        prop::collection::vec((0u8..7, 0usize..6, 0usize..5), 20..60),
    );
    // Answers the scripts must reach at least once between them.
    const NOTABLE: [&str; 7] = [
        "DuplicateBiometric",
        "DuplicateUser",
        "UnknownUser",
        "AmbiguousMatch",
        "Ok(\"u",
        "Ok(true)",
        "Ok(IdentChallenge",
    ];
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..16 {
        let (shards, seed, ops) = script.sample(&mut cases);
        let dir = scratch_dir("equiv-kinds");
        let mut rng = StdRng::seed_from_u64(seed);
        let donor = {
            let bio = params.sketch().line().random_vector(4, &mut rng);
            BiometricDevice::new(params.clone())
                .enroll("donor", &bio, &mut rng)
                .unwrap()
                .public_key
        };
        let bios: Vec<Vec<i64>> = (0..5)
            .map(|_| params.sketch().line().random_vector(16, &mut rng))
            .collect();
        let memory = SharedServer::<EpochIndex>::with_shards(params.clone(), shards);
        let durable = SharedServer::<EpochIndex>::durable(params.clone(), shards, &dir).unwrap();
        let (mut memory_rng, mut durable_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

        for (step, &(kind, id, b)) in ops.iter().enumerate() {
            let name = format!("u{id}");
            let probe = genuine_probe(&params, &bios[b], &mut rng);
            let (m, d) = match kind {
                0 | 1 => {
                    use fuzzy_id::core::SecureSketch;
                    let (mut record, _) = synthetic_record(&params, &donor, &name, 16, &mut rng);
                    record.helper.sketch.inner =
                        params.sketch().sketch(&bios[b], &mut rng).unwrap();
                    let (m, d) = if kind == 0 {
                        (memory.enroll(record.clone()), durable.enroll(record))
                    } else {
                        (
                            memory.enroll_unique(record.clone()),
                            durable.enroll_unique(record),
                        )
                    };
                    (format!("{m:?}"), format!("{d:?}"))
                }
                2 => (
                    format!("{:?}", memory.revoke(&name)),
                    format!("{:?}", durable.revoke(&name)),
                ),
                3 => (
                    format!("{:?}", memory.reset(&probe)),
                    format!("{:?}", durable.reset(&probe)),
                ),
                4 => {
                    let ids: Vec<String> = (0..=id).map(|i| format!("u{i}")).collect();
                    (
                        format!("{:?}", memory.check_local_uniqueness(&probe, &ids)),
                        format!("{:?}", durable.check_local_uniqueness(&probe, &ids)),
                    )
                }
                5 => {
                    let batch: Vec<Vec<i64>> = (0..=b)
                        .map(|x| genuine_probe(&params, &bios[x], &mut rng))
                        .collect();
                    (
                        format!("{:?}", memory.identify_batch(&batch, &mut memory_rng)),
                        format!("{:?}", durable.identify_batch(&batch, &mut durable_rng)),
                    )
                }
                _ => (
                    format!("{:?}", memory.checkpoint()),
                    format!("{:?}", durable.checkpoint()),
                ),
            };
            assert_eq!(m, d, "shards {shards}, seed {seed}, step {step}: op {kind}");
            seen.extend(NOTABLE.iter().filter(|answer| m.contains(*answer)));
            if kind == 6 && m != "Ok(0)" {
                seen.insert(&"a checkpoint that reclaimed slots");
            }
        }

        // Kill the durable server and recover it: it answers as the
        // in-memory one still does (challenges compared by the record's
        // helper data — a recovered server numbers its sessions afresh).
        let probes: Vec<Vec<i64>> = bios
            .iter()
            .map(|bio| genuine_probe(&params, bio, &mut rng))
            .collect();
        drop(durable);
        let recovered = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
        assert_eq!(recovered.user_count(), memory.user_count(), "seed {seed}");
        let answers = |server: &SharedServer<EpochIndex>, rng: &mut StdRng| {
            let resets: Vec<_> = probes.iter().map(|p| server.reset(p)).collect();
            let found: Vec<_> = server
                .identify_batch(&probes, rng)
                .into_iter()
                .map(|r| r.map(|chal| chal.helper))
                .collect();
            (resets, found)
        };
        assert_eq!(
            answers(&recovered, &mut rng),
            answers(&memory, &mut rng),
            "seed {seed}: the recovered server answers differently"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    for answer in NOTABLE.iter().chain([&"a checkpoint that reclaimed slots"]) {
        assert!(seen.contains(answer), "no {answer} answer in {seen:?}");
    }
}

/// Kill mid-journal-write: the torn final record is dropped, every
/// previously acknowledged enrollment survives, and the full protocol
/// (challenge + signature) still works after recovery.
#[test]
fn torn_tail_crash_recovery_end_to_end() {
    let dir = scratch_dir("torn-tail");
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0xDEAD);

    let mut server: AuthenticationServer =
        AuthenticationServer::recover(params.clone(), &dir).unwrap();
    let mut bios = Vec::new();
    for u in 0..5 {
        let bio = params.sketch().line().random_vector(24, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }
    drop(server);

    // Tear the tail: the last enrollment's frame loses its final bytes,
    // as if the process died inside the write().
    let journal = dir.join("journal.fel");
    let len = std::fs::metadata(&journal).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .unwrap();
    file.set_len(len - 11).unwrap();
    drop(file);

    let mut server: AuthenticationServer =
        AuthenticationServer::recover(params.clone(), &dir).unwrap();
    assert_eq!(server.user_count(), 4, "torn user-4 must be dropped");

    // Survivors identify end-to-end.
    for (u, bio) in bios.iter().take(4).enumerate() {
        let reading: Vec<i64> = bio.iter().map(|&x| x + 57).collect();
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp).unwrap().identity(),
            Some(format!("user-{u}").as_str())
        );
    }
    // The torn user is gone — and can re-enroll cleanly.
    let reading: Vec<i64> = bios[4].iter().map(|&x| x + 57).collect();
    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
    assert_eq!(
        server.begin_identification(&probe, &mut rng).unwrap_err(),
        ProtocolError::NoMatch
    );
    server
        .enroll(device.enroll("user-4", &bios[4], &mut rng).unwrap())
        .unwrap();
    assert_eq!(server.user_count(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash between snapshot commit and journal reset: the journal tail
/// duplicates snapshot contents; idempotent replay must not double-count.
#[test]
fn snapshot_journal_overlap_replays_idempotently() {
    let dir = scratch_dir("overlap");
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x0F0F);
    let donor = {
        let bio = params.sketch().line().random_vector(4, &mut rng);
        device.enroll("donor", &bio, &mut rng).unwrap().public_key
    };

    // Build a store whose journal holds the same enrollments the
    // snapshot holds (what a crash between rename and journal reset
    // leaves behind).
    let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
    let mut records = Vec::new();
    for u in 0..6 {
        let (record, _) = synthetic_record(&params, &donor, &format!("user-{u}"), 6, &mut rng);
        store.append(LogEventRef::Enroll(&record)).unwrap();
        records.push(record);
    }
    drop(store);
    // Hand-write the snapshot while leaving the journal untouched.
    let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
    let journal_bytes = std::fs::read(dir.join("journal.fel")).unwrap();
    store.compact_records(&records).unwrap();
    std::fs::write(dir.join("journal.fel"), &journal_bytes).unwrap();
    drop(store);

    let server: AuthenticationServer = AuthenticationServer::recover(params.clone(), &dir).unwrap();
    assert_eq!(server.user_count(), 6, "overlap must not duplicate users");
    assert_eq!(server.record_slots(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint + churn keeps the on-disk footprint and in-memory tables
/// bounded by the live population on the durable sharded server.
#[test]
fn shared_server_churn_with_checkpoints_stays_bounded() {
    let dir = scratch_dir("churn");
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0xC1C1);
    let donor = {
        let bio = params.sketch().line().random_vector(4, &mut rng);
        device.enroll("donor", &bio, &mut rng).unwrap().public_key
    };

    let server = SharedServer::<EpochIndex>::durable(params.clone(), 2, &dir).unwrap();
    // A persistent base population…
    for u in 0..5 {
        let (record, _) = synthetic_record(&params, &donor, &format!("base-{u}"), 8, &mut rng);
        server.enroll(record).unwrap();
    }
    // …plus heavy transient churn, checkpointing every few rounds.
    for round in 0..25 {
        let (record, _) = synthetic_record(&params, &donor, &format!("tmp-{round}"), 8, &mut rng);
        server.enroll(record).unwrap();
        server.revoke(&format!("tmp-{round}")).unwrap();
        if round % 5 == 4 {
            server.checkpoint().unwrap();
            assert_eq!(server.journal_len(), 0);
        }
    }
    server.checkpoint().unwrap();
    assert_eq!(server.user_count(), 5);

    // Recover and confirm the snapshot holds exactly the live records.
    drop(server);
    let recovered = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
    assert_eq!(recovered.user_count(), 5);
    assert_eq!(recovered.journal_len(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Columnar round-trip: enroll (+ random revocations) → checkpoint
    /// → recover — which bulk-loads the snapshot into a pre-sized
    /// arena — → `identify_batch` issues challenges for exactly the
    /// same probes, resolving to the same enrolled records.
    #[test]
    fn checkpoint_recover_preserves_identify_batch(
        users in 1usize..20,
        dim in 1usize..8,
        seed in any::<u64>(),
        removal_mask in any::<u32>(),
    ) {

        let dir = scratch_dir("arena-roundtrip");
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let donor = {
            let bio = params.sketch().line().random_vector(4, &mut rng);
            device.enroll("donor", &bio, &mut rng).unwrap().public_key
        };

        let mut original: AuthenticationServer =
            AuthenticationServer::recover(params.clone(), &dir).unwrap();
        let mut bios = Vec::new();
        for u in 0..users {
            let (record, bio) =
                synthetic_record(&params, &donor, &format!("user-{u}"), dim, &mut rng);
            original.enroll(record).unwrap();
            bios.push(bio);
        }
        for u in 0..users {
            if removal_mask & (1 << (u % 32)) != 0 {
                original.revoke(&format!("user-{u}")).unwrap();
            }
        }
        // Checkpoint: compacts tombstones and writes the snapshot the
        // recovery below bulk-loads.
        original.checkpoint().unwrap();

        let mut probes: Vec<Vec<i64>> = bios
            .iter()
            .map(|bio| genuine_probe(&params, bio, &mut rng))
            .collect();
        let stranger = params.sketch().line().random_vector(dim, &mut rng);
        probes.push(genuine_probe(&params, &stranger, &mut rng));

        let expected_users = original.user_count();
        let expected: Vec<Option<_>> = original
            .identify_batch(&probes, &mut rng)
            .into_iter()
            .map(|r| r.ok().map(|c| c.helper))
            .collect();
        drop(original); // crash

        let mut recovered: AuthenticationServer =
            AuthenticationServer::recover(params.clone(), &dir).unwrap();
        prop_assert_eq!(recovered.user_count(), expected_users);

        let got: Vec<Option<_>> = recovered
            .identify_batch(&probes, &mut rng)
            .into_iter()
            .map(|r| r.ok().map(|c| c.helper))
            .collect();
        // Same probes match, resolving to the same records (helper data
        // is unique per enrollment); session ids legitimately differ.
        prop_assert_eq!(expected, got);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Recovery over sealed segments: the snapshot and the journal tail are
// the only durable record, and every row they hold goes back in through
// the one enroll path — so a recovered index seals where the original
// did.
// ---------------------------------------------------------------------------

/// An epoch-index server whose head seals at 8 rows, so small test
/// populations actually produce sealed segments — the default seal
/// point is 65 536 rows.
fn small_epoch_server(params: &SystemParams) -> AuthenticationServer<EpochIndex> {
    let t = params.sketch().threshold();
    let ka = params.sketch().line().interval_len();
    AuthenticationServer::with_index(
        params.clone(),
        EpochIndex::with_seal_rows(t, ka, params.filter_config(), 8),
    )
}

/// Kill *after* a checkpoint with a journal tail on top (enrolls and a
/// revocation of a row inside a sealed segment), on a default-threshold
/// index that has sealed one segment: recovery replays the snapshot and
/// then the tail, answers `identify_batch` as the uncrashed server does,
/// the revoked user stays revoked, and the recovered index holds as
/// many sealed segments as the never-restarted one.
#[test]
fn journal_tail_replays_over_imported_segments() {
    const SEAL: usize = 65_536; // the default seal point at this dimension
    const DIM: usize = 16;
    let dir = scratch_dir("sealed-tail");
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let donor = {
        let bio = params.sketch().line().random_vector(4, &mut rng);
        device.enroll("donor", &bio, &mut rng).unwrap().public_key
    };

    let mut server: AuthenticationServer =
        AuthenticationServer::recover(params.clone(), &dir).unwrap();
    // Every 4 096th user and the last few are probed later.
    let mut bios = Vec::new();
    let mut enroll = |server: &mut AuthenticationServer, u: usize| {
        let (record, bio) = synthetic_record(&params, &donor, &format!("user-{u}"), DIM, &mut rng);
        server.enroll(record).unwrap();
        if u % 4096 == 2 || u >= SEAL {
            bios.push(bio);
        }
    };
    for u in 0..SEAL + 16 {
        enroll(&mut server, u);
    }
    server.checkpoint().unwrap();
    // Journal tail: four more enrollments plus a revocation of user-2,
    // whose row lives inside the sealed segment.
    for u in SEAL + 16..SEAL + 20 {
        enroll(&mut server, u);
    }
    server.revoke("user-2").unwrap();
    assert!(server.store().unwrap().journal_len() > 0);
    assert_eq!(server.index().segments().len(), 1);

    let mut probes: Vec<Vec<i64>> = bios
        .iter()
        .map(|bio| genuine_probe(&params, bio, &mut rng))
        .collect();
    let stranger = params.sketch().line().random_vector(DIM, &mut rng);
    probes.push(genuine_probe(&params, &stranger, &mut rng));
    let answers = |server: &mut AuthenticationServer, rng: &mut StdRng| {
        let challenges = server.identify_batch(&probes, rng);
        let helpers = challenges.into_iter().map(|r| r.ok().map(|c| c.helper));
        helpers.collect::<Vec<_>>()
    };
    let expected = answers(&mut server, &mut rng);
    assert_eq!(expected[0], None, "revoked user-2 is not identified");
    let expected_users = server.user_count();
    let expected_segments = server.index().segments().len();
    drop(server); // crash with snapshot + journal tail

    let mut recovered: AuthenticationServer =
        AuthenticationServer::recover(params.clone(), &dir).unwrap();
    assert_eq!(recovered.user_count(), expected_users);
    assert_eq!(recovered.index().segments().len(), expected_segments);
    assert_eq!(answers(&mut recovered, &mut rng), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Single-bit damage at rest, one bit at a time: every bit of both
// artifact headers, of every journal frame — its length word too, which
// no CRC covers, so the scan looks for an intact frame behind a frame
// that overruns — of the snapshot's record count, and of every snapshot
// frame, length word included. On a version-2 store and on the
// committed version-1 fixture.
// ---------------------------------------------------------------------------

/// Bytes of an artifact header: magic ‖ version ‖ kind ‖ fingerprint.
const HEADER: usize = 15;

/// Byte ranges `len ‖ crc32 ‖ payload` of the `count` frames that start
/// at `bytes[start]`.
fn frame_ranges(bytes: &[u8], start: usize, count: usize) -> Vec<std::ops::Range<usize>> {
    let mut r = Reader::new(&bytes[start..]);
    (0..count)
        .map(|_| {
            let from = start + r.position();
            r.get_framed().unwrap();
            from..start + r.position()
        })
        .collect()
}

/// Calls `check(damaged, bit)` with each bit of `pristine[range]`
/// flipped in turn, one at a time.
fn for_each_flip(
    pristine: &[u8],
    range: std::ops::Range<usize>,
    mut check: impl FnMut(&[u8], usize),
) {
    let mut damaged = pristine.to_vec();
    for bit in range.start * 8..range.end * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        check(&damaged, bit);
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Flips every bit of the `FileStore` directory `dir` — a snapshot of
/// `rows` records and a journal of `events` frames — one at a time.
/// `refused` attempts the whole recovery the store belongs to and says
/// whether it failed.
///
/// A journal header flip is refused at `FileStore::open`. A journal
/// frame that is not the last: refused, the file left as found. The
/// last frame: indistinguishable from a torn write — cut off, and the
/// history loses exactly its last event — except that a length word
/// shrunk short of the file's end leaves bytes no frame accounts for,
/// and is refused like a middle frame. Any snapshot flip (written
/// atomically, so damage is never a torn write) fails the recovery with
/// both files byte-identical. No flip can turn one format version into
/// the other: `0x0001` and `0x0002` differ in two bits.
fn sweep_store(
    dir: &Path,
    fp: Fingerprint,
    rows: usize,
    events: usize,
    refused: &dyn Fn() -> bool,
) {
    let journal_path = dir.join("journal.fel");
    let snapshot_path = dir.join("snapshot.fes");
    let journal = std::fs::read(&journal_path).unwrap();
    let snapshot = std::fs::read(&snapshot_path).unwrap();
    let history = FileStore::open(dir, fp).unwrap().load().unwrap();
    assert_eq!(history.len(), rows + events);

    for_each_flip(&journal, 0..HEADER, |damaged, bit| {
        std::fs::write(&journal_path, damaged).unwrap();
        assert!(
            FileStore::open(dir, fp).is_err(),
            "journal header bit {bit}"
        );
        assert_eq!(std::fs::read(&journal_path).unwrap(), damaged, "bit {bit}");
    });
    let frames = frame_ranges(&journal, HEADER, events);
    assert_eq!(frames[events - 1].end, journal.len());
    for (i, frame) in frames.iter().enumerate() {
        let last = i == frames.len() - 1;
        let length_word = frame.start * 8..(frame.start + 4) * 8;
        for_each_flip(&journal, frame.clone(), |damaged, bit| {
            std::fs::write(&journal_path, damaged).unwrap();
            match FileStore::open(dir, fp) {
                Err(_) if !last || length_word.contains(&bit) => {
                    assert_eq!(std::fs::read(&journal_path).unwrap(), damaged, "bit {bit}");
                }
                Ok(mut store) if last => {
                    assert_eq!(
                        store.torn_bytes_discarded(),
                        frame.len() as u64,
                        "bit {bit}"
                    );
                    assert_eq!(
                        store.load().unwrap(),
                        history[..history.len() - 1],
                        "bit {bit}"
                    );
                }
                other => panic!("journal frame {i} bit {bit}: {:?}", other.map(|_| ())),
            }
        });
    }
    std::fs::write(&journal_path, &journal).unwrap();

    let frames = frame_ranges(&snapshot, HEADER + 8, rows);
    assert_eq!(frames[rows - 1].end, snapshot.len());
    // The header and the `u64` count, then each frame whole.
    for range in std::iter::once(0..HEADER + 8).chain(frames) {
        for_each_flip(&snapshot, range, |damaged, bit| {
            std::fs::write(&snapshot_path, damaged).unwrap();
            assert!(refused(), "snapshot bit {bit}");
            assert_eq!(std::fs::read(&snapshot_path).unwrap(), damaged, "bit {bit}");
            assert_eq!(std::fs::read(&journal_path).unwrap(), journal, "bit {bit}");
        });
    }
    std::fs::write(&snapshot_path, &snapshot).unwrap();
}

#[test]
fn single_bit_flips_at_rest_are_detected() {
    let dir = scratch_dir("bitflips");
    let params = SystemParams::insecure_test_defaults();
    let fp = params.fingerprint();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0xB17F);
    let donor = {
        let bio = params.sketch().line().random_vector(4, &mut rng);
        device.enroll("donor", &bio, &mut rng).unwrap().public_key
    };

    // Snapshot of 10 users, then a journal tail of four events ending
    // in an enroll.
    let mut server = small_epoch_server(&params);
    server
        .attach_store(Box::new(FileStore::open(&dir, fp).unwrap()))
        .unwrap();
    let mut bios = Vec::new();
    let mut enroll = |server: &mut AuthenticationServer<EpochIndex>, u: usize| {
        let (record, bio) = synthetic_record(&params, &donor, &format!("user-{u}"), 4, &mut rng);
        server.enroll(record).unwrap();
        bios.push(bio);
    };
    for u in 0..10 {
        enroll(&mut server, u);
    }
    server.checkpoint().unwrap();
    enroll(&mut server, 10);
    server.revoke("user-2").unwrap();
    enroll(&mut server, 11);
    enroll(&mut server, 12);
    assert!(!server.index().segments().is_empty());
    let mut rng = StdRng::seed_from_u64(0xB180);
    let probes: Vec<Vec<i64>> = bios
        .iter()
        .map(|bio| genuine_probe(&params, bio, &mut rng))
        .collect();
    let answers: Vec<Option<usize>> = probes
        .iter()
        .map(|p| server.find(p, None, 1).pop())
        .collect();
    let users = server.user_count();
    drop(server);
    for file in ["journal.fel", "snapshot.fes"] {
        assert_eq!(format_version(&dir.join(file)), 2, "{file}");
    }

    sweep_store(&dir, fp, 10, 4, &|| {
        AuthenticationServer::<EpochIndex>::recover(params.clone(), &dir).is_err()
    });

    // Everything restored: the undamaged store recovers and answers as
    // before.
    let recovered: AuthenticationServer<EpochIndex> =
        AuthenticationServer::recover(params.clone(), &dir).unwrap();
    assert_eq!(recovered.user_count(), users);
    let got: Vec<Option<usize>> = probes
        .iter()
        .map(|p| recovered.find(p, None, 1).pop())
        .collect();
    assert_eq!(got, answers);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bit 31 of a middle frame's length word makes that frame run past
/// end-of-file, just as a torn final write does. The intact frame behind
/// it says otherwise: the store is refused and the file left as found,
/// where cutting it at the damaged frame would lose the acknowledged
/// frame behind.
#[test]
fn journal_length_word_flip_in_a_middle_frame_is_refused() {
    let dir = scratch_dir("length-word");
    let params = SystemParams::insecure_test_defaults();
    let fp = params.fingerprint();
    let mut rng = StdRng::seed_from_u64(0x1E27);
    let mut store = FileStore::open(&dir, fp).unwrap();
    for u in 0..3 {
        let (record, _) = synthetic_record(&params, &[7; 24], &format!("user-{u}"), 4, &mut rng);
        store.append(LogEventRef::Enroll(&record)).unwrap();
    }
    drop(store);

    let path = dir.join("journal.fel");
    let mut journal = std::fs::read(&path).unwrap();
    let frames = frame_ranges(&journal, 15, 3);
    assert_eq!(frames[2].end, journal.len());
    journal[frames[1].start] ^= 0x80; // the length word is big-endian
    std::fs::write(&path, &journal).unwrap();
    assert!(FileStore::open(&dir, fp).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), journal);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// A store written before format version 2, as committed bytes:
// `tests/fixtures/v1-store` is a two-shard `SharedServer::durable` store
// at the paper's parameters and dimension 16, written by the build
// before the record row packed its sketch. Twelve users were enrolled
// from `V1_FIXTURE_SEED` (user-5, in a snapshot, and user-8, in a
// journal tail, each carry a `−ka/2` coordinate), a checkpoint was
// taken after the first eight, and the journal tails hold the last four
// enrolls and the revocation of user-2.
// ---------------------------------------------------------------------------

const V1_FIXTURE_SEED: u64 = 58;
const V1_FIXTURE_USERS: usize = 12;
const V1_FIXTURE_REVOKED: usize = 2;

/// The fixture's records regenerated from its seed, and one more drawn
/// after them.
fn v1_fixture_records(params: &SystemParams) -> Vec<EnrollmentRecord> {
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(V1_FIXTURE_SEED);
    (0..=V1_FIXTURE_USERS)
        .map(|u| {
            let bio = params.sketch().line().random_vector(16, &mut rng);
            device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap()
        })
        .collect()
}

/// A scratch copy of the fixture (no `lock.pid`: none is committed).
fn v1_fixture_copy(tag: &str) -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-store");
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(from.join("shards.meta"), dir.join("shards.meta")).unwrap();
    for shard in ["shard-000", "shard-001"] {
        std::fs::create_dir_all(dir.join(shard)).unwrap();
        for file in ["journal.fel", "snapshot.fes"] {
            std::fs::copy(from.join(shard).join(file), dir.join(shard).join(file)).unwrap();
        }
    }
    dir
}

/// The format version in an artifact's header.
fn format_version(path: &Path) -> u16 {
    let bytes = std::fs::read(path).unwrap();
    u16::from_be_bytes([bytes[4], bytes[5]])
}

/// Each of `records`' ids: the helper its challenge carries, or `None`
/// when the server does not know it.
fn challenge_helpers(
    server: &SharedServer,
    records: &[EnrollmentRecord],
) -> Vec<Option<fuzzy_id::protocol::WireHelper>> {
    let mut rng = StdRng::seed_from_u64(1);
    records
        .iter()
        .map(|r| match server.begin_verification(&r.id, &mut rng) {
            Ok(challenge) => Some(challenge.helper),
            Err(ProtocolError::UnknownUser(_)) => None,
            Err(e) => panic!("{}: {e:?}", r.id),
        })
        .collect()
}

#[test]
fn a_version_1_store_recovers_and_checkpoints_to_version_2() {
    let params = SystemParams::paper_defaults();
    let records = v1_fixture_records(&params);
    let dir = v1_fixture_copy("v1-fixture");
    let shards = ["shard-000", "shard-001"].map(|s| dir.join(s));
    for shard in &shards {
        for file in ["journal.fel", "snapshot.fes"] {
            assert_eq!(format_version(&shard.join(file)), 1);
        }
    }

    // Recovered: every live user's challenge carries the enrolled
    // helper byte for byte (the −ka/2 coordinates of user-5 and user-8
    // included), and the revoked user is gone.
    let server = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
    assert_eq!(server.user_count(), V1_FIXTURE_USERS - 1);
    let mut expected: Vec<_> = records.iter().map(|r| Some(r.helper.clone())).collect();
    expected[V1_FIXTURE_REVOKED] = None;
    expected[V1_FIXTURE_USERS] = None;
    assert_eq!(challenge_helpers(&server, &records), expected);
    for u in [5, 8] {
        assert!(records[u].helper.sketch.inner.contains(&-200), "user-{u}");
    }

    // An enroll lands in its shard's version-1 journal as a version-1
    // frame: `len ‖ crc ‖ tag` and the row with `u32` lengths and `i64`s.
    let lens = shards
        .clone()
        .map(|s| std::fs::metadata(s.join("journal.fel")).unwrap().len());
    let extra = &records[V1_FIXTURE_USERS];
    server.enroll(extra.clone()).unwrap();
    let grown: Vec<u64> = (0..2)
        .map(|i| {
            std::fs::metadata(shards[i].join("journal.fel"))
                .unwrap()
                .len()
                - lens[i]
        })
        .collect();
    let v1_frame = 8 + 1 + 4 + extra.id.len() + 4 + extra.public_key.len() + 4 + 8 * 16;
    let v1_frame = (v1_frame + 4 + 32 + 4 + extra.helper.seed.len()) as u64;
    assert!(
        grown == [v1_frame, 0] || grown == [0, v1_frame],
        "{grown:?}"
    );
    for shard in &shards {
        assert_eq!(format_version(&shard.join("journal.fel")), 1);
    }
    expected[V1_FIXTURE_USERS] = Some(extra.helper.clone());
    assert_eq!(challenge_helpers(&server, &records), expected);

    // The checkpoint rewrites both artifacts of both shards at version
    // 2, and the journals take version-2 frames from then on: a revoke
    // is `len ‖ crc ‖ tag ‖ len(id) ‖ id`.
    server.checkpoint().unwrap();
    for shard in &shards {
        for file in ["journal.fel", "snapshot.fes"] {
            assert_eq!(format_version(&shard.join(file)), 2, "{}", file);
        }
        assert_eq!(
            std::fs::metadata(shard.join("journal.fel")).unwrap().len(),
            HEADER as u64
        );
    }
    server.revoke(&records[0].id).unwrap();
    let grown = shards
        .clone()
        .map(|s| std::fs::metadata(s.join("journal.fel")).unwrap().len());
    let v2_frame = HEADER as u64 + 10 + records[0].id.len() as u64;
    assert!(grown.contains(&v2_frame), "{grown:?}");
    expected[0] = None;

    // A second recovery answers as the first server did.
    drop(server);
    let server = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
    assert_eq!(server.user_count(), V1_FIXTURE_USERS - 1);
    assert_eq!(challenge_helpers(&server, &records), expected);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn single_bit_flips_in_a_version_1_store_are_detected() {
    let params = SystemParams::paper_defaults();
    let fp = params.fingerprint();
    let dir = v1_fixture_copy("v1-bitflips");
    // (snapshot rows, journal events) of each shard.
    let shards = [("shard-000", 4, 2), ("shard-001", 4, 3)];
    for (shard, rows, events) in shards {
        sweep_store(&dir.join(shard), fp, rows, events, &|| {
            SharedServer::<EpochIndex>::recover(params.clone(), &dir).is_err()
        });
    }
    // Restored, the fixture recovers whole.
    let server = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
    assert_eq!(server.user_count(), V1_FIXTURE_USERS - 1);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}
