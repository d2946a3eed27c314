//! `scan_inproc`: no socket and no scheduler — a two-shard
//! `SharedServer` over a million records called directly, nine
//! impostors to one genuine user. `core::index` does nearly all of the
//! work; 72 MB of cells and plane do not fit where the 10⁵ workloads'
//! 7 MB do.
//!
//! Phase `single`: one caller, closed-loop `begin_identification`; the
//! second core is free for the index's own parallel sweep. Phase
//! `batch`: two callers, closed-loop `identify_batch` of 32 probes.

use crate::gen::{self, Population, Probe, Stream};
use crate::load::{closed_loop, Phase};
use crate::onion::{self, Answer, Levels, Standalone, BATCH};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Ctx;
use fe_core::EpochIndex;
use fe_protocol::concurrent::SharedServer;
use fe_protocol::SystemParams;
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

const POPULATION: usize = 1_000_000;
const BATCH_CALLERS: u64 = 2;
const PROBES: usize = 4096;
const GENUINE_EVERY: usize = 10;
const WARM_UP: f64 = 0.0625;

fn single(
    server: &SharedServer,
    population: &Population,
    probes: &[Probe],
    rng: &mut StdRng,
    length: Duration,
) -> Phase {
    closed_loop(length, |i, phase| {
        let probe = &probes[i as usize % probes.len()];
        let start = Instant::now();
        let answer: Answer = server.begin_identification(&probe.sketch, rng).into();
        let latency = start.elapsed();
        onion::close(server, &answer);
        phase.count(1, answer.check(probe, population));
        latency
    })
    .finish()
}

fn batch(
    ctx: &Ctx,
    server: &SharedServer,
    population: &Population,
    probes: &[Probe],
    length: Duration,
) -> Phase {
    let batches: Vec<&[Probe]> = probes.chunks_exact(BATCH).collect();
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..BATCH_CALLERS)
            .map(|lane| {
                let batches = &batches;
                scope.spawn(move || {
                    let mut rng = gen::stream(ctx.seed, Stream::Server, 1 + lane);
                    closed_loop(length, |i, phase| {
                        // Callers walk the batches from different ends.
                        let turn = i as usize * BATCH_CALLERS as usize + lane as usize;
                        let probes = batches[turn % batches.len()];
                        let sketches: Vec<Vec<i64>> =
                            probes.iter().map(|p| p.sketch.clone()).collect();
                        let start = Instant::now();
                        let results = server.identify_batch(&sketches, &mut rng);
                        let latency = start.elapsed();
                        for (result, probe) in results.into_iter().zip(probes) {
                            let answer = Answer::from(result);
                            phase.count(1, answer.check(probe, population));
                            onion::close(server, &answer);
                        }
                        latency
                    })
                })
            })
            .collect();
        for caller in callers {
            phase.absorb(caller.join().expect("a caller panicked"));
        }
    });
    phase.finish()
}

pub fn run(ctx: &Ctx) -> Report {
    let params = SystemParams::paper_defaults();
    let mut report = Report::new(ctx);
    let rows = ctx.population(POPULATION);
    let mut standalone = ctx.trace.then(|| Standalone::new(&params, rows));
    let (server, population) = &onion::set_up(ctx, &mut report, || {
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 2);
        let population = Population::build(&params, rows, ctx.seed, |record| {
            if let Some(standalone) = standalone.as_mut() {
                standalone.insert(&record);
            }
            server.enroll(record).expect("preload enroll");
        });
        (server, population)
    });
    let mut rng = gen::stream(ctx.seed, Stream::Probes, 0);
    let probes = population.probe_mix(PROBES, GENUINE_EVERY, &mut rng);
    let mut challenges = gen::stream(ctx.seed, Stream::Server, 0);
    // A traced run keeps most of its time for the traced pass.
    let share = if ctx.trace { 0.125 } else { 0.5 };
    let warm_up = ctx.phase(WARM_UP);
    single(server, population, &probes, &mut challenges, warm_up);
    let one = single(
        server,
        population,
        &probes,
        &mut challenges,
        ctx.phase(share),
    );
    let many = batch(ctx, server, population, &probes, ctx.phase(share));
    report.count(&one);
    report.count(&many);
    report.set("loadgen.ops_per_s", many.ops_per_s());
    report.set("loadgen.batch_p50_us", many.p50_us());
    report.loadgen(&one, None);

    if let Some(standalone) = standalone.as_mut() {
        let mut layer_rng = gen::stream(ctx.seed, Stream::Layers, 0);
        standalone.finish(&mut report, population, &mut layer_rng);
        let mut levels = Levels {
            client: None,
            scheduler: None,
            server,
            index: &standalone.reader,
            population,
            rng: challenges,
        };
        let mut checks = Phase::default();
        let mut tr = Tracer::new();
        onion::traced_pass(
            ctx,
            &mut report,
            &mut tr,
            "protocol.server.begin",
            |tr, i| {
                let probe = &probes[i as usize % probes.len()];
                levels.request(tr, &mut checks, i, probe).0
            },
        );
        for (i, batch) in probes.chunks_exact(BATCH).take(64).enumerate() {
            onion::traced_batch(&mut tr, &mut checks, i as u64, batch, &mut levels);
        }
        report.count(&checks);
        onion::report_trace(
            ctx,
            &mut report,
            &tr,
            "protocol.server.begin",
            standalone.rows(),
        );
    }
    report
}
