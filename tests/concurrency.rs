//! Concurrency integration: one shared authentication server, many
//! devices enrolling, identifying, verifying and revoking in parallel —
//! exercised on both the seed-compatible single-shard configuration and
//! the sharded configurations (per-shard locks, batched
//! identification).

use fuzzy_id::core::{EpochIndex, EpochRead, FilterConfig, IndexReader, SketchIndex};
use fuzzy_id::protocol::concurrent::SharedServer;
use fuzzy_id::protocol::{BiometricDevice, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy(bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
    bio.iter()
        .map(|&x| x + rng.gen_range(-90i64..=90))
        .collect()
}

/// Every user identifies 3 times concurrently against `server`.
fn run_identification_storm<I: EpochRead + Send + Sync>(server: SharedServer<I>, seed: u64) {
    let params = server.params().clone();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    let users = 12usize;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(200, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    std::thread::scope(|scope| {
        for round in 0..3u64 {
            for (u, bio) in bios.iter().enumerate() {
                let server = server.clone();
                let device = device.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round * 1000 + u as u64);
                    let reading = noisy(bio, &mut rng);
                    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                    let chal = server.begin_identification(&probe, &mut rng).unwrap();
                    let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                    let outcome = server.finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                });
            }
        }
    });
}

#[test]
fn parallel_identification_storm_single_shard() {
    // The seed-compatible configuration: one shard.
    run_identification_storm(
        SharedServer::new(SystemParams::insecure_test_defaults()),
        7_000,
    );
}

#[test]
fn parallel_identification_storm_sharded() {
    // Four server shards, each its own epoch engine and lock.
    run_identification_storm(
        SharedServer::<EpochIndex>::with_shards(SystemParams::insecure_test_defaults(), 4),
        7_001,
    );
}

#[test]
fn interleaved_sessions_do_not_cross_talk() {
    // Open all challenges first, answer them in reverse order: every
    // session must still resolve to its own user — across shard
    // session-namespaces.
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 3);
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7_100);

    let users = 6usize;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(150, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    let mut open = Vec::new();
    for (u, bio) in bios.iter().enumerate() {
        let reading = noisy(bio, &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        open.push((u, reading, chal));
    }
    // Sessions must be globally unique even though three shards issue
    // them independently.
    let mut sessions: Vec<u64> = open.iter().map(|(_, _, c)| c.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions.len(), users);

    for (u, reading, chal) in open.into_iter().rev() {
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        let outcome = server.finish_identification(&resp).unwrap();
        assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
    }
}

#[test]
fn enrollment_and_identification_interleave() {
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 4);
    let device = BiometricDevice::new(params.clone());

    // Seed population.
    let mut rng = StdRng::seed_from_u64(7_200);
    let mut bios = Vec::new();
    for u in 0..4 {
        let bio = params.sketch().line().random_vector(150, &mut rng);
        server
            .enroll(device.enroll(&format!("seed-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    std::thread::scope(|scope| {
        // Writers: enroll 8 new users.
        for w in 0..8 {
            let server = server.clone();
            let device = device.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(8_000 + w);
                let bio = device.params().sketch().line().random_vector(150, &mut rng);
                server
                    .enroll(device.enroll(&format!("new-{w}"), &bio, &mut rng).unwrap())
                    .unwrap();
            });
        }
        // Readers: identify seed users while writers run.
        for (u, bio) in bios.iter().enumerate() {
            let server = server.clone();
            let device = device.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9_000 + u as u64);
                let reading = noisy(bio, &mut rng);
                let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                let chal = server.begin_identification(&probe, &mut rng).unwrap();
                let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                assert!(server.finish_identification(&resp).unwrap().is_identified());
            });
        }
    });
    assert_eq!(server.user_count(), 12);
}

#[test]
fn concurrent_batches_from_many_frontends() {
    // Several frontend threads each submit a whole batch; all batches
    // resolve correctly and sessions never collide.
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 4);
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7_300);

    let users = 9usize;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(120, &mut rng);
        server
            .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
            .unwrap();
        bios.push(bio);
    }

    std::thread::scope(|scope| {
        for frontend in 0..3u64 {
            let server = server.clone();
            let device = device.clone();
            let bios = &bios;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(10_000 + frontend);
                let picks: Vec<usize> = (0..users).filter(|u| u % 3 == frontend as usize).collect();
                let mut readings = Vec::new();
                let mut batch = Vec::new();
                for &u in &picks {
                    let reading = noisy(&bios[u], &mut rng);
                    batch.push(device.probe_sketch(&reading, &mut rng).unwrap());
                    readings.push(reading);
                }
                let results = server.identify_batch(&batch, &mut rng);
                for ((result, reading), &u) in results.iter().zip(&readings).zip(&picks) {
                    let chal = result.as_ref().expect("genuine probe matches");
                    let resp = device.respond(reading, chal, &mut rng).unwrap();
                    let outcome = server.finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                }
            });
        }
    });
}

/// Reset's "exactly one match" rule under churn: one biometric enrolled
/// under three ids, a writer that keeps revoking whichever of them holds
/// the lowest slot and re-enrolling it (with a checkpoint now and then,
/// so the numbering moves too), and a reader whose every `reset` must
/// come back ambiguous — at least two of the three records match at
/// every instant. A hit revoked between the lock-free sweep and the lock
/// has to send the shard back to a rescan; dropping it from the tally
/// would leave one match standing and reset a user.
#[test]
fn reset_stays_ambiguous_while_matches_are_revoked_and_re_enrolled() {
    use fuzzy_id::protocol::ProtocolError;

    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::new(params.clone());
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7_400);
    let bio = params.sketch().line().random_vector(32, &mut rng);
    let records: Vec<_> = ["x", "y", "z"]
        .iter()
        .map(|id| device.enroll(id, &bio, &mut rng).unwrap())
        .collect();
    for record in &records {
        server.enroll(record.clone()).unwrap();
    }
    let probe = device.probe_sketch(&bio, &mut rng).unwrap();

    let answers = std::thread::scope(|scope| {
        let resets = scope.spawn(|| {
            let answers: Vec<_> = (0..10_000).map(|_| server.reset(&probe)).collect();
            answers
        });
        // Enrollment order cycles x, y, z: the id in the lowest slot is
        // always the next one. The writer runs until the resets are
        // done, however they end.
        for round in (0usize..).take_while(|_| !resets.is_finished()) {
            let record = &records[round % 3];
            server.revoke(&record.id).unwrap();
            server.enroll(record.clone()).unwrap();
            if round % 1_024 == 1_023 {
                server.checkpoint().unwrap();
            }
        }
        resets.join().expect("reset panicked")
    });
    let wrong: Vec<_> = answers
        .into_iter()
        .filter(|answer| *answer != Err(ProtocolError::AmbiguousMatch))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of 10 000 resets: {:?}",
        wrong.len(),
        &wrong[..wrong.len().min(3)]
    );
    assert_eq!(server.user_count(), 3);
}

/// The head's publication rule under a live race (DESIGN.md
/// "Publication invariant"): one writer appends — across hundreds of
/// seals, revoking some rows while they are still in the head — and
/// readers that never take a lock must see
///
/// * every row whose `insert` returned (read-your-writes: `done` is
///   bumped after the insert and any revoke of that row, and a lookup
///   that starts after observing it must find — or, revoked, not
///   find — the row), and
/// * nothing that is not written yet: a hit on a row the writer has not
///   started is impossible, and a probe of all zeros — what an unwritten
///   slot holds — never matches, because no row has a coordinate near 0.
///
/// Row `i` is a pattern only row `i` matches. The writer waits for the
/// readers every few rows, so lookups and inserts interleave for the
/// whole run rather than by scheduling luck.
#[test]
fn readers_see_every_finished_insert_and_nothing_unwritten() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const ROWS: usize = 30_000;
    const DIM: usize = 64;
    let (t, ka) = (10u64, 4096u64);
    // Base-64 digits of `i`, each mapped to 200, 240, … 2 720: distinct
    // digits are ≥ 40 > t apart (also around the ring), every value is
    // > t away from 0.
    let pattern = |i: usize| -> Vec<i64> {
        (0..DIM)
            .map(|d| 200 + 40 * ((i >> (6 * (d % 3))) & 63) as i64)
            .collect()
    };
    let revoked = |i: usize| i % 7 == 3;

    // Seal every 96 rows (mid-group: 96 = 64 + 32): 312 seals, each a
    // head handed over while the readers sweep it. One row in seven is
    // revoked, and stays a tombstone in its segment.
    let mut index = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 96);
    let reader = index.reader();
    let (started, done, checks) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );

    static PHASE: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
    static WRITER: AtomicUsize = AtomicUsize::new(0);
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(20));
        eprintln!(
            "WATCHDOG phases {:?} {:?} writer {:?}",
            PHASE[0], PHASE[1], WRITER
        );
        std::process::abort();
    });
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|seed| {
                let reader = reader.clone();
                let (started, done, checks) = (&started, &done, &checks);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let zeros = vec![0i64; DIM];
                    loop {
                        PHASE[seed as usize].store(1, Ordering::SeqCst);
                        let finished = done.load(Ordering::Acquire);
                        if finished > 0 {
                            let j = rng.gen_range(0..finished);
                            let expect = (!revoked(j)).then_some(j);
                            assert_eq!(reader.find_first(&pattern(j)), expect, "finished row {j}");
                        }
                        // A row at or past `done` may be in flight: it
                        // is found whole or not at all, and never
                        // before the writer started it.
                        PHASE[seed as usize].store(2, Ordering::SeqCst);
                        let k = (finished + rng.gen_range(0..3usize)).min(ROWS - 1);
                        let batch = reader.find_first_batch(&[pattern(k), zeros.clone()]);
                        PHASE[seed as usize].store(3, Ordering::SeqCst);
                        let begun = started.load(Ordering::Acquire);
                        if let Some(id) = batch[0] {
                            assert_eq!(id, k, "pattern {k} matched another row");
                            assert!(id < begun, "row {id} seen before its insert began");
                        }
                        assert_eq!(batch[1], None, "an unwritten row was visible");
                        checks.fetch_add(1, Ordering::Release);
                        if finished == ROWS {
                            PHASE[seed as usize].store(9, Ordering::SeqCst);
                            break;
                        }
                    }
                })
            })
            .collect();
        // A reader that stopped early failed an assertion; the scope
        // re-raises it once the writer stops too.
        let alive = || readers.iter().all(|r| !r.is_finished());
        for i in (0..ROWS).take_while(|_| alive()) {
            started.store(i + 1, Ordering::Release);
            WRITER.store(i * 10 + 1, Ordering::SeqCst);
            assert_eq!(index.insert(&pattern(i)), i);
            WRITER.store(i * 10 + 2, Ordering::SeqCst);
            if revoked(i) {
                assert!(index.remove(i));
            }
            done.store(i + 1, Ordering::Release);
            WRITER.store(i * 10 + 3, Ordering::SeqCst);
            if i % 128 == 0 {
                let seen = checks.load(Ordering::Acquire);
                while checks.load(Ordering::Acquire) == seen && alive() {
                    std::hint::spin_loop();
                }
            }
        }
    });
    assert_eq!((index.segments().len(), index.staging_rows()), (312, 48));
    assert_eq!(index.len(), (0..ROWS).filter(|&i| !revoked(i)).count());
}

/// The head's publication rule at the paper shape (`t = 100`,
/// `ka = 400`, `dim = 64`), where the prefilter plane holds the cells
/// of all 64 coordinates and is their only home: a row's column bytes
/// and its plane bits — in a block that the row opened, or in one
/// still open — must both be in place before the row count that shows
/// the row. One writer appends across dozens of seals and many more
/// 64-row groups, revoking some rows while they are still in the head,
/// and lock-free readers must find every finished row and never a
/// half-written one: `torn(k)` is row `k` as it decodes with its cells
/// unwritten — its group's plane words, or in the first group the
/// staging, still zero, so each coordinate is its offset, 10 for `+110`
/// and 90 for `−110` — and it matches no row whose low 16 bits are not
/// all set, none of the rows here, so only a row read with its cells
/// missing could match it.
///
/// Row `i` is the only row `pattern(i)` matches: each coordinate is
/// ±110 by one of the low 16 bits of `i`, and the two values are
/// 180 > t apart, in cells 1 and 2 of the four. Phase 1 turns a row
/// away on the first coordinate whose cell the probe rules out, so
/// both phases and the open group's row-by-row path are exercised.
#[test]
fn readers_see_every_finished_insert_at_the_paper_shape() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    const ROWS: usize = 30_000;
    const DIM: usize = 64;
    const PLANE: usize = 64;
    let (t, ka) = (100u64, 400u64);
    let pattern = |i: usize| -> Vec<i64> {
        (0..DIM)
            .map(|d| if (i >> (d % 16)) & 1 == 1 { 110 } else { -110 })
            .collect()
    };
    let torn = |i: usize| -> Vec<i64> {
        let mut row = pattern(i);
        row[..PLANE]
            .iter_mut()
            .for_each(|v| *v = v.rem_euclid(ka as i64) % 100);
        row
    };
    let revoked = |i: usize| i % 7 == 3;

    // Seal every 352 rows (5½ groups): 85 seals, each a head handed
    // over mid-group while the readers sweep it.
    let mut index = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 352);
    let reader = index.reader();
    let (started, done, checks) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    // Set once the writer stops, finished or not, so that a reader
    // outlives a sibling's failed assertion by one lookup at most.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|seed| {
                let reader = reader.clone();
                let (started, done, checks, stop) = (&started, &done, &checks, &stop);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        if finished > 0 {
                            let j = rng.gen_range(0..finished);
                            let expect = (!revoked(j)).then_some(j);
                            assert_eq!(reader.find_first(&pattern(j)), expect, "finished row {j}");
                        }
                        // A row at or past `done` may be in flight: it
                        // is found whole or not at all, and never
                        // before the writer started it.
                        let k = (finished + rng.gen_range(0..3usize)).min(ROWS - 1);
                        let batch = reader.find_first_batch(&[pattern(k), torn(k)]);
                        let begun = started.load(Ordering::Acquire);
                        if let Some(id) = batch[0] {
                            assert_eq!(id, k, "pattern {k} matched another row");
                            assert!(id < begun, "row {id} seen before its insert began");
                        }
                        assert_eq!(
                            batch[1], None,
                            "row {k} was visible without its plane bytes"
                        );
                        checks.fetch_add(1, Ordering::Release);
                        if finished == ROWS || stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                })
            })
            .collect();
        // A reader that stopped early failed an assertion; the scope
        // re-raises it once the writer stops too.
        let alive = || readers.iter().all(|r| !r.is_finished());
        for i in (0..ROWS).take_while(|_| alive()) {
            started.store(i + 1, Ordering::Release);
            assert_eq!(index.insert(&pattern(i)), i);
            if revoked(i) {
                assert!(index.remove(i));
            }
            done.store(i + 1, Ordering::Release);
            if i % 32 == 0 {
                let seen = checks.load(Ordering::Acquire);
                while checks.load(Ordering::Acquire) == seen && alive() {
                    std::hint::spin_loop();
                }
            }
        }
        stop.store(true, Ordering::Release);
    });
    assert_eq!((index.segments().len(), index.staging_rows()), (85, 80));
    assert_eq!(index.len(), (0..ROWS).filter(|&i| !revoked(i)).count());
}

/// `enroll_unique` is atomic across shards: four threads enroll one
/// biometric under four ids at once, released together by a barrier,
/// round after round on a four-shard server. Each round exactly one id
/// is admitted and the other three are refused as duplicates of it. A
/// check that swept the other shards before taking the home shard's
/// journal would let a match enrolled elsewhere in between through.
#[test]
fn racing_unique_enrolls_of_one_biometric_admit_exactly_one() {
    use fuzzy_id::protocol::ProtocolError;
    use std::sync::Barrier;

    const THREADS: usize = 4;
    const ROUNDS: usize = 300;
    let params = SystemParams::insecure_test_defaults();
    let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 4);
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(7_700);
    // rounds[r][t]: round r's biometric, enrolled once, under thread t's id.
    let rounds: Vec<Vec<_>> = (0..ROUNDS)
        .map(|r| {
            let bio = params.sketch().line().random_vector(64, &mut rng);
            let record = device.enroll("", &bio, &mut rng).unwrap();
            (0..THREADS)
                .map(|t| {
                    let mut record = record.clone();
                    record.id = format!("round-{r}-thread-{t}");
                    record
                })
                .collect()
        })
        .collect();

    let barrier = Barrier::new(THREADS);
    let outcomes: Vec<Vec<_>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (server, barrier, rounds) = (&server, &barrier, &rounds);
                scope.spawn(move || {
                    rounds
                        .iter()
                        .map(|round| {
                            barrier.wait();
                            server.enroll_unique(round[t].clone())
                        })
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("enroll_unique panicked"))
            .collect()
    });

    let mut wrong = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        let answers: Vec<_> = outcomes.iter().map(|thread| &thread[r]).collect();
        let admitted: Vec<_> = (0..THREADS).filter(|&t| answers[t].is_ok()).collect();
        let exactly_one = match admitted[..] {
            [winner] => answers.iter().enumerate().all(|(t, answer)| {
                t == winner
                    || *answer == &Err(ProtocolError::DuplicateBiometric(round[winner].id.clone()))
            }),
            _ => false,
        };
        if !exactly_one {
            wrong.push((r, answers));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {ROUNDS} rounds did not admit exactly one id: {:?}",
        wrong.len(),
        &wrong[..wrong.len().min(2)]
    );
    assert_eq!(server.user_count(), ROUNDS);
}
