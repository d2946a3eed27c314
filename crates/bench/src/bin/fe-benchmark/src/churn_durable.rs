//! `churn_durable`: writes beside reads on a durable server, and the
//! only restart. `SharedServer::durable` journals every enroll and
//! revoke with **no fsync per event** (its default; appends reach the
//! OS, not the disk).
//!
//! Phase `churn`: a writer paced at 1 000 ops/s, three enrolls to one
//! revoke, beside a closed-loop reader of impostor probes. Phase
//! `bulk`: 30 000 unpaced enrolls on one thread. Phase `restart`:
//! `checkpoint()`, drop, `SharedServer::recover`, then a fixed probe set
//! must answer as it did before the restart; the recovery is timed
//! three times.

use crate::gen::{self, Population, Probe, Stream};
use crate::load::{closed_loop, closed_loop_while, open_loop, Phase, Schedule, Verdict};
use crate::onion::{self, Answer, Levels, Standalone};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{layers, stats, Ctx};
use fe_core::{EpochIndex, SketchIndex};
use fe_protocol::concurrent::SharedServer;
use fe_protocol::store::{EnrollmentStore, FileStore, LogEventRef};
use fe_protocol::{EnrollmentRecord, ProtocolError, SystemParams, WireHelper};
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const POPULATION: usize = 100_000;
const WRITE_RATE: u64 = 1_000;
/// One write in this many is a revoke of a preloaded record.
const REVOKE_EVERY: u64 = 4;
/// Unpaced enrolls of the `bulk` phase, timed in blocks of
/// [`BULK_BLOCK`].
const BULK_ENROLLS: usize = 30_000;
const BULK_BLOCK: usize = 2_000;
const RESTART_PROBES: usize = 512;
/// `SharedServer::recover` calls the `restart` phase times.
const RECOVERIES: usize = 3;
const IMPOSTORS: usize = 1024;
/// Durable enrolls the traced pass records spans around.
const TRACED_ENROLLS: usize = 2_000;
/// Share of the run the `churn` phase measures; `bulk` and `restart`
/// are fixed amounts of work.
const CHURN: f64 = 0.75;
const WARM_UP: f64 = 0.0625;

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list the store directory")
        .map(|entry| {
            let entry = entry.expect("read a directory entry");
            let meta = entry.metadata().expect("stat a store file");
            if meta.is_dir() {
                dir_bytes(&entry.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// An impostor lookup, the reader's operation.
fn lookup(
    server: &SharedServer,
    population: &Population,
    probe: &Probe,
    rng: &mut StdRng,
    phase: &mut Phase,
) -> Duration {
    let start = Instant::now();
    let answer: Answer = server.begin_identification(&probe.sketch, rng).into();
    let latency = start.elapsed();
    onion::close(server, &answer);
    phase.count(1, answer.check(probe, population));
    latency
}

/// A write either goes through or is a failed operation.
fn outcome(result: Result<(), ProtocolError>) -> Verdict {
    match result {
        Ok(()) => Verdict::Ok,
        Err(_) => Verdict::Error,
    }
}

/// The writer's `i`-th operation: a revoke of the next preloaded record
/// every [`REVOKE_EVERY`]th time, else an enroll of a fresh one.
fn write(server: &SharedServer, fresh: &mut Vec<EnrollmentRecord>, i: u64) -> Verdict {
    outcome(if i % REVOKE_EVERY == REVOKE_EVERY - 1 {
        server.revoke(&format!("user-{}", i / REVOKE_EVERY))
    } else {
        server.enroll(fresh.pop().expect("a record per enroll was generated"))
    })
}

/// What each probe of the restart set resolved to: the matched record's
/// helper data, or nothing.
fn answers(
    server: &SharedServer,
    population: &Population,
    probes: &[Probe],
    rng: &mut StdRng,
    checks: &mut Phase,
) -> Vec<Option<WireHelper>> {
    probes
        .iter()
        .map(|probe| {
            let answer: Answer = server.begin_identification(&probe.sketch, rng).into();
            checks.count(1, answer.check(probe, population));
            onion::close(server, &answer);
            match answer {
                Answer::Challenge(challenge) => Some(challenge.helper),
                _ => None,
            }
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let params = SystemParams::paper_defaults();
    let mut report = Report::new(ctx);
    report.note(
        "journal appends are flushed to the OS, never fsynced (the SharedServer::durable default)",
    );
    let rows = ctx.population(POPULATION);
    let dir: PathBuf = ctx
        .out_dir()
        .join(format!("store-{}-{}", ctx.seed, std::process::id()));
    let mut standalone = ctx.trace.then(|| Standalone::new(&params, rows));
    let (server, population) = onion::set_up(ctx, &mut report, || {
        let _ = std::fs::remove_dir_all(&dir);
        let server = SharedServer::<EpochIndex>::durable(params.clone(), 2, &dir)
            .expect("open a durable server");
        let population = Population::build(&params, rows, ctx.seed, |record| {
            if let Some(standalone) = standalone.as_mut() {
                standalone.insert(&record);
            }
            server.enroll(record).expect("preload enroll");
        });
        (server, population)
    });

    // A traced run keeps most of its time for the traced pass.
    let churn = ctx.phase(if ctx.trace { CHURN / 3.0 } else { CHURN });
    let writes = (churn.as_secs() + 1) * WRITE_RATE;
    assert!(
        (writes / REVOKE_EVERY) as usize <= rows,
        "the churn phase would run out of records to revoke"
    );
    // Every record a write will enroll, generated before any clock runs.
    let mut rng = gen::stream(ctx.seed, Stream::Churn, 0);
    let mut fresh: Vec<EnrollmentRecord> = (0..writes as usize + BULK_ENROLLS + TRACED_ENROLLS)
        .map(|i| population.synth_record(format!("fresh-{i}"), &mut rng))
        .collect();
    let mut rng = gen::stream(ctx.seed, Stream::Probes, 0);
    let impostors = population.probe_mix(IMPOSTORS, 0, &mut rng);
    let restart_probes = population.probe_mix(RESTART_PROBES, 2, &mut rng);
    let mut challenges = gen::stream(ctx.seed, Stream::Server, 0);

    closed_loop(ctx.phase(WARM_UP), |i, phase| {
        let probe = &impostors[i as usize % impostors.len()];
        lookup(&server, &population, probe, &mut challenges, phase)
    });

    // Phase `churn`: the writer on its schedule, the reader flat out
    // until the writer is through.
    let writing = AtomicBool::new(true);
    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let phase = open_loop(churn, Schedule::per_second(WRITE_RATE), |i| {
                write(&server, &mut fresh, i)
            });
            writing.store(false, Ordering::SeqCst);
            phase
        });
        let read = closed_loop_while(
            |_| writing.load(Ordering::SeqCst),
            |i, phase| {
                let probe = &impostors[i as usize % impostors.len()];
                lookup(&server, &population, probe, &mut challenges, phase)
            },
        );
        (writer.join().expect("the writer panicked"), read)
    });
    let (written, read) = (written.finish(), read.finish());
    report.count(&written);
    report.count(&read);
    report.set("loadgen.ops_per_s", read.ops_per_s());
    report.set("churn.write_p50_us", written.p50_us());
    report.loadgen(&read, Some(&written));

    // Phase `bulk`: unpaced enrolls through the journal, in blocks.
    let mut bulk_rates = Vec::new();
    let mut bulk = Phase::default();
    for _ in 0..BULK_ENROLLS / BULK_BLOCK {
        let start = Instant::now();
        for _ in 0..BULK_BLOCK {
            let record = fresh.pop().expect("a record per enroll was generated");
            bulk.count(1, outcome(server.enroll(record)));
        }
        bulk_rates.push(BULK_BLOCK as f64 / start.elapsed().as_secs_f64());
    }
    report.count(&bulk);
    report.set("churn.write_ops_per_s", stats::median(bulk_rates));

    // Phase `restart`.
    let mut checks = Phase::default();
    let mut ask = |server: &SharedServer| {
        answers(
            server,
            &population,
            &restart_probes,
            &mut challenges,
            &mut checks,
        )
    };
    let before = ask(&server);
    server.checkpoint().expect("checkpoint");
    let live = server.user_count();
    report.set(
        "churn.disk_bytes_per_record",
        dir_bytes(&dir) as f64 / live as f64,
    );
    let mut server = Some(server);
    let mut recover_s = Vec::new();
    for _ in 0..RECOVERIES {
        drop(server.take());
        let start = Instant::now();
        server = Some(
            SharedServer::<EpochIndex>::recover(params.clone(), &dir)
                .expect("recover the durable server"),
        );
        recover_s.push(start.elapsed().as_secs_f64());
    }
    report.set("churn.recover_s", stats::median(recover_s));
    let server = server.expect("the recovered server");
    let after = ask(&server);
    let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
    let lost = u64::from(server.user_count() != live);
    report.count(&checks);
    report.count_checks(RESTART_PROBES as u64 + 1, changed + lost);
    if changed + lost > 0 {
        report.note(format!(
            "restart changed {changed} of {RESTART_PROBES} answers; users {live} -> {}",
            server.user_count()
        ));
    }

    if let Some(standalone) = standalone.as_mut() {
        traced(
            ctx,
            &mut report,
            &server,
            &population,
            standalone,
            &mut fresh,
            &dir,
        );
    }
    drop(server);
    std::fs::remove_dir_all(&dir).expect("remove the store directory");
    report
}

/// The traced pass: reader lookups replayed on the standalone index;
/// durable enrolls with the journal append and the index insert
/// replayed inside them; and the store and record codec on their own.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    server: &SharedServer,
    population: &Population,
    standalone: &mut Standalone,
    fresh: &mut Vec<EnrollmentRecord>,
    dir: &Path,
) {
    let params = &population.params;
    let mut rng = gen::stream(ctx.seed, Stream::Layers, 0);
    standalone.finish(report, population, &mut rng);
    let impostors = population.probe_mix(IMPOSTORS, 0, &mut rng);
    let mut checks = Phase::default();
    let mut tr = Tracer::new();
    {
        let mut levels = Levels {
            client: None,
            scheduler: None,
            server,
            index: &standalone.reader,
            population,
            rng: gen::stream(ctx.seed, Stream::Server, 1),
        };
        onion::traced_pass(ctx, report, &mut tr, "protocol.server.begin", |tr, i| {
            let probe = &impostors[i as usize % impostors.len()];
            levels.request(tr, &mut checks, i, probe).0
        });
    }

    // Durable enrolls, the journal append and the index insert replayed
    // inside each on a store and an index of their own.
    let layer_dir = dir.with_extension("layers");
    let _ = std::fs::remove_dir_all(&layer_dir);
    let mut store = FileStore::open(&layer_dir, params.fingerprint()).expect("open a file store");
    let records = fresh.split_off(fresh.len() - TRACED_ENROLLS);
    for (i, record) in records.iter().enumerate() {
        let i = i as u64;
        let id = tr.open("protocol.server.enroll", None, i);
        let result = server.enroll(record.clone());
        tr.close(id);
        checks.count(1, outcome(result));
        tr.replay("protocol.store.append", id, i, || {
            store
                .append(LogEventRef::Enroll(record))
                .expect("append to the journal")
        });
        tr.replay("core.index.insert", id, i, || {
            standalone.index.insert(&record.helper.sketch.inner)
        });
    }
    drop(store);
    report.count(&checks);

    layers::file_store(report, params, &layer_dir, &records);
    layers::record_codec(report, &records[0]);
    onion::report_trace(ctx, report, &tr, "protocol.server.begin", standalone.rows());
}
