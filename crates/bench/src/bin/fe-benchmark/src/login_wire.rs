//! `login_wire`: the full Fig. 3 identification over loopback TCP —
//! `probe_sketch → Client::identify → BiometricDevice::respond →
//! Client::finish_identification` — by genuine users only, through
//! `NetServer → ScheduledServer → SharedServer`. Closed loop, two
//! connections, one thread each. The thing a user waits for: the batch
//! window, the front door's thread hand-offs and the device's crypto
//! are nearly all of it and the sweep almost none.

use crate::gen::{self, Population, Probe, Stream};
use crate::load::{closed_loop, Phase, Verdict};
use crate::onion::{self, Answer, Levels, Standalone};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{layers, Ctx};
use fe_core::SecureSketch;
use fe_crypto::dsa::{DsaSignature, DsaVerifyingKey};
use fe_crypto::extractor::{HmacExtractor, StrongExtractor};
use fe_crypto::sig::SignatureScheme;
use fe_net::{Client, NetConfig, NetError, NetServer};
use fe_protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fe_protocol::{BiometricDevice, IdentOutcome, SystemParams};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const POPULATION: usize = 100_000;
/// Load connections, one thread each; no more than the box has cores.
const CONNECTIONS: u64 = 2;
/// Warm-up before the measured phase, as a share of the run.
const WARM_UP: f64 = 0.125;

/// The served system. The front door is declared first so that it
/// stops before the scheduler it feeds.
pub struct System {
    pub net: NetServer,
    pub scheduler: Arc<ScheduledServer>,
}

/// The shipped defaults behind a loopback listener: two epoch-index
/// shards, `SchedulerConfig::default()` with only the challenge seed
/// pinned, `NetConfig::default()`.
pub fn build(
    ctx: &Ctx,
    params: &SystemParams,
    mut standalone: Option<&mut Standalone>,
) -> (System, Population) {
    let config = SchedulerConfig {
        rng_seed: gen::stream_seed(ctx.seed, Stream::Scheduler, 0),
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(ScheduledServer::scan(params.clone(), 2, config));
    let population = Population::build(params, ctx.population(POPULATION), ctx.seed, |record| {
        if let Some(standalone) = standalone.as_deref_mut() {
            standalone.insert(&record);
        }
        scheduler.server().enroll(record).expect("preload enroll");
    });
    let net = NetServer::spawn(Arc::clone(&scheduler), "127.0.0.1:0", NetConfig::default())
        .expect("bind a loopback listener");
    (System { net, scheduler }, population)
}

/// One user at one device: a connection, the device, and the streams
/// its readings and nonces come from.
struct Terminal<'a> {
    client: Client,
    device: BiometricDevice,
    population: &'a Population,
    readings: StdRng,
    nonces: StdRng,
}

impl<'a> Terminal<'a> {
    fn connect(ctx: &Ctx, system: &System, population: &'a Population, lane: u64) -> Terminal<'a> {
        Terminal {
            client: Client::connect(system.net.local_addr(), &population.params)
                .expect("connect to the front door"),
            device: BiometricDevice::new(population.params.clone()),
            population,
            readings: gen::stream(ctx.seed, Stream::Probes, lane),
            nonces: gen::stream(ctx.seed, Stream::Device, lane),
        }
    }

    /// A user walks up: who, and what the sensor reads.
    fn arrival(&mut self) -> (usize, Vec<i64>) {
        let g = self.readings.gen_range(0..self.population.genuine.len());
        (g, self.population.genuine_reading(g, &mut self.readings))
    }

    /// One whole login, timed from the sketch to the outcome.
    fn login(&mut self) -> (Duration, Verdict) {
        let (g, reading) = self.arrival();
        let start = Instant::now();
        let outcome = self
            .device
            .probe_sketch(&reading, &mut self.nonces)
            .map_err(NetError::Protocol)
            .and_then(|probe| self.client.identify(probe))
            .and_then(|challenge| {
                self.device
                    .respond(&reading, &challenge, &mut self.nonces)
                    .map_err(NetError::Protocol)
            })
            .and_then(|response| self.client.finish_identification(&response));
        (start.elapsed(), judge(self.population, g, outcome))
    }
}

/// A login is right only when the server names the user who logged in.
fn judge(population: &Population, g: usize, outcome: Result<IdentOutcome, NetError>) -> Verdict {
    match outcome {
        Ok(outcome) if outcome.identity() == Some(&population.genuine[g].id) => Verdict::Ok,
        Ok(_) => Verdict::Wrong,
        Err(NetError::Remote(e)) if e.is_overloaded() => Verdict::Shed,
        Err(_) => Verdict::Error,
    }
}

/// Closed-loop logins on [`CONNECTIONS`] connections for `length`.
fn load(ctx: &Ctx, system: &System, population: &Population, length: Duration) -> Phase {
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                scope.spawn(move || {
                    let mut terminal = Terminal::connect(ctx, system, population, lane);
                    closed_loop(length, |_, phase| {
                        let (latency, verdict) = terminal.login();
                        phase.count(1, verdict);
                        latency
                    })
                })
            })
            .collect();
        for thread in threads {
            phase.absorb(thread.join().expect("a load thread panicked"));
        }
    });
    phase.finish()
}

pub fn run(ctx: &Ctx) -> Report {
    let params = SystemParams::paper_defaults();
    let mut report = Report::new(ctx);
    let mut standalone = ctx
        .trace
        .then(|| Standalone::new(&params, ctx.population(POPULATION)));
    let (system, population) = &onion::set_up(ctx, &mut report, || {
        build(ctx, &params, standalone.as_mut())
    });
    // A traced run keeps most of its time for the traced pass.
    let measured = if ctx.trace { 0.25 } else { 1.0 };
    load(ctx, system, population, ctx.phase(WARM_UP));
    let phase = load(ctx, system, population, ctx.phase(measured));
    report.count(&phase);
    report.set("loadgen.ops_per_s", phase.ops_per_s());
    report.loadgen(&phase, None);
    onion::scheduler_counters(&mut report, &system.scheduler);
    onion::net_counters(&mut report, system.net.metrics());

    if let Some(standalone) = standalone.as_mut() {
        traced(ctx, &mut report, system, population, standalone);
    }
    report
}

/// The traced pass: logins one at a time on one connection, each level
/// of each login replayed on the same reading, and the leaves on their
/// own.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    system: &System,
    population: &Population,
    standalone: &mut Standalone,
) {
    let params = &population.params;
    let mut rng = gen::stream(ctx.seed, Stream::Layers, 0);
    standalone.finish(report, population, &mut rng);

    let mut terminal = Terminal::connect(ctx, system, population, CONNECTIONS);
    let mut connection = Client::connect(system.net.local_addr(), params).expect("connect");
    let server = system.scheduler.server();
    let dsa = params.dsa();
    let fe = params.fuzzy_extractor();
    let extractor = HmacExtractor::new(params.key_len());
    let keys: Vec<DsaVerifyingKey> = population
        .genuine
        .iter()
        .map(|user| DsaVerifyingKey::from_bytes(&user.record.public_key))
        .collect();
    let mut levels = Levels {
        client: Some(&mut connection),
        scheduler: Some(&system.scheduler),
        server,
        index: &standalone.reader,
        population,
        rng: gen::stream(ctx.seed, Stream::Server, 0),
    };
    let mut checks = Phase::default();
    let mut tr = Tracer::new();
    let mut sample = None;

    onion::traced_pass(ctx, report, &mut tr, "login", |tr, i| {
        let Some(tr) = tr else {
            let (latency, verdict) = terminal.login();
            checks.count(1, verdict);
            return latency;
        };
        let (g, reading) = terminal.arrival();
        let device = &terminal.device;
        let nonces = &mut terminal.nonces;

        // The login as the user sees it, every step a real span.
        let root = tr.open("login", None, i);
        let (probe_span, sketch) = tr.within("protocol.device.probe", root, i, || {
            device.probe_sketch(&reading, nonces).expect("probe sketch")
        });
        let probe = Probe {
            sketch,
            expect: Some(g),
        };
        let (identify_span, answer) = levels.identify(tr, &mut checks, Some(root), i, &probe);
        let Answer::Challenge(challenge) = answer else {
            tr.close(root);
            return tr.duration(root);
        };
        let (respond_span, response) = tr.within("protocol.device.respond", root, i, || {
            device
                .respond(&reading, &challenge, nonces)
                .expect("a genuine reading reproduces its key")
        });
        let (finish_span, outcome) = tr.within("net.server.finish", root, i, || {
            levels.wire().finish_identification(&response)
        });
        tr.close(root);
        checks.count(1, judge(population, g, outcome));

        // Each step again, level by level, on the same inputs.
        tr.replay("core.sketch.sketch", probe_span, i, || {
            params.sketch().sketch(&reading, nonces).expect("sketch")
        });
        levels.replay_inner(tr, &mut checks, identify_span, i, &probe);

        let (rep_span, key) = tr.replay("core.sketch.rep", respond_span, i, || {
            fe.reproduce(&reading, &challenge.helper).expect("Rep")
        });
        let encoded = fe_core::encode_i64_vector(&population.genuine[g].bio);
        tr.replay("crypto.extract", rep_span, i, || {
            extractor.extract(&encoded, &challenge.helper.seed)
        });
        let (_, (signing_key, _)) = tr.replay("crypto.keypair_from_seed", respond_span, i, || {
            dsa.keypair_from_seed(key.as_bytes())
        });
        tr.replay("crypto.dsa_sign", respond_span, i, || {
            dsa.sign(&signing_key, b"fe-benchmark: any forty bytes sign alike")
        });

        // Phase 2 in process needs a session of its own: open and
        // answer one off the clock, then time the server's check of it.
        let again = server
            .begin_identification(&probe.sketch, &mut levels.rng)
            .expect("the same probe matches again");
        let answer = device
            .respond(&reading, &again, nonces)
            .expect("a genuine reading reproduces its key");
        let (server_span, outcome) = tr.replay("protocol.server.finish", finish_span, i, || {
            server.finish_identification(&answer)
        });
        checks.count(1, judge(population, g, outcome.map_err(NetError::Protocol)));
        // Verification alone costs the same whatever the message says.
        let signature = DsaSignature::from_bytes(&answer.signature, params.dsa_params())
            .expect("a well-formed signature");
        tr.replay("crypto.dsa_verify", server_span, i, || {
            dsa.verify(&keys[g], b"fe-benchmark", &signature)
        });
        sample.get_or_insert((probe.sketch, challenge));
        tr.duration(root)
    });
    report.count(&checks);

    layers::device_and_crypto(report, params, &mut rng);
    if let Some((probe, challenge)) = &sample {
        layers::wire_codecs(report, probe, challenge);
    }
    report.set(
        "net.server.connect_us",
        onion::connect_us(system.net.local_addr(), params),
    );
    onion::report_trace(ctx, report, &tr, "login", standalone.rows());
}
