//! What the workloads share: set-up, answer checking, the
//! standalone index of the traced pass, and the onion of nested calls
//! one traced request is.

use crate::gen::{Population, Probe, DIM};
use crate::layers::median_us;
use crate::load::{Phase, Verdict};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{stats, Ctx};
use fe_core::{EpochIndex, EpochRead, EpochReader, IndexReader, SketchIndex};
use fe_net::{Client, ErrorCode, NetError, NetMetrics};
use fe_protocol::concurrent::SharedServer;
use fe_protocol::scheduler::ScheduledServer;
use fe_protocol::{EnrollmentRecord, IdentChallenge, ProtocolError, SystemParams};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// Probes per `identify_batch` call: the scheduler's `max_batch`.
pub const BATCH: usize = 32;
/// A traced pass replays at most this many requests.
pub const TRACED_REQUESTS: u64 = 2_000;

/// Resident bytes of this process: `VmRSS` of `/proc/self/status`,
/// which the kernel gives in kB whatever the page size.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:")?.split_whitespace().next())
        .and_then(|field| field.parse().ok())
        .expect("VmRSS in /proc/self/status");
    kib * 1024
}

/// Builds the system from nothing `ctx.setups()` times, dropping each
/// before the next, and returns the last one built, with the part of
/// its population the generator kept, for the run to measure. Reports
/// the two end-to-end metrics: `setup_s`, the median wall time of the
/// builds, and resident bytes per record from the first build (the only
/// one that starts from a heap nothing was freed into).
pub fn set_up<T>(
    ctx: &Ctx,
    report: &mut Report,
    mut build: impl FnMut() -> (T, Population),
) -> (T, Population) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..ctx.setups() {
        drop(last.take());
        let before = rss_bytes();
        let start = Instant::now();
        let (system, population) = build();
        walls.push(start.elapsed().as_secs_f64());
        if walls.len() == 1 {
            let grown = rss_bytes().saturating_sub(before);
            report.set(
                "rss_bytes_per_record",
                grown as f64 / population.records as f64,
            );
        }
        last = Some((system, population));
    }
    report.set("setup_s", stats::median(walls));
    last.expect("at least one set-up")
}

/// What came back for one identification, whichever way it travelled.
pub enum Answer {
    Challenge(IdentChallenge),
    NoMatch,
    Shed,
    Error,
}

/// Any error is a failed request; the first one of a run is also shown,
/// so that a failing run says why.
pub fn error(what: impl std::fmt::Display) -> Answer {
    static FIRST: std::sync::Once = std::sync::Once::new();
    FIRST.call_once(|| eprintln!("fe-benchmark: a request failed: {what}"));
    Answer::Error
}

impl From<Result<IdentChallenge, ProtocolError>> for Answer {
    fn from(result: Result<IdentChallenge, ProtocolError>) -> Answer {
        match result {
            Ok(challenge) => Answer::Challenge(challenge),
            Err(ProtocolError::NoMatch) => Answer::NoMatch,
            Err(ProtocolError::Overloaded) => Answer::Shed,
            Err(other) => error(other),
        }
    }
}

impl From<Result<IdentChallenge, fe_net::WireError>> for Answer {
    fn from(result: Result<IdentChallenge, fe_net::WireError>) -> Answer {
        match result {
            Ok(challenge) => Answer::Challenge(challenge),
            Err(e) if e.code == ErrorCode::NoMatch => Answer::NoMatch,
            Err(e) if e.code == ErrorCode::Overloaded => Answer::Shed,
            Err(other) => error(other),
        }
    }
}

impl From<Result<IdentChallenge, NetError>> for Answer {
    fn from(result: Result<IdentChallenge, NetError>) -> Answer {
        match result {
            Ok(challenge) => Answer::Challenge(challenge),
            Err(NetError::Remote(wire)) => Err(wire).into(),
            Err(other) => error(other),
        }
    }
}

impl Answer {
    /// Whether this is the answer the generator knows is right: a
    /// genuine probe must get the challenge that carries *its* user's
    /// helper data, an impostor must get `NO_MATCH`.
    pub fn check(&self, probe: &Probe, population: &Population) -> Verdict {
        match (self, probe.expect) {
            (Answer::Challenge(challenge), Some(g))
                if challenge.helper == population.genuine[g].record.helper =>
            {
                Verdict::Ok
            }
            (Answer::NoMatch, None) => Verdict::Ok,
            (Answer::Challenge(_) | Answer::NoMatch, _) => Verdict::Wrong,
            (Answer::Shed, _) => Verdict::Shed,
            (Answer::Error, _) => Verdict::Error,
        }
    }

    pub fn session(&self) -> Option<u64> {
        match self {
            Answer::Challenge(challenge) => Some(challenge.session),
            _ => None,
        }
    }
}

/// Closes the challenge an identification left open, off the timed
/// path (sessions never expire on their own).
pub fn close(server: &SharedServer, answer: &Answer) {
    if let Some(session) = answer.session() {
        server.cancel_session(session);
    }
}

/// A standalone `EpochIndex` holding the same rows as the server, for
/// the innermost level of the onion.
pub struct Standalone {
    pub index: EpochIndex,
    pub reader: EpochReader,
    rows: usize,
}

impl Standalone {
    pub fn new(params: &SystemParams, rows: usize) -> Standalone {
        let scheme = params.sketch();
        let mut index = EpochIndex::with_filter(
            scheme.threshold(),
            scheme.line().interval_len(),
            params.filter_config(),
        );
        // A reserve this large defers publishing to `flush`, as the
        // server's own recovery does.
        index.reserve(rows, DIM);
        let reader = index.reader();
        Standalone {
            index,
            reader,
            rows: 0,
        }
    }

    pub fn insert(&mut self, record: &EnrollmentRecord) {
        self.index.insert(&record.helper.sketch.inner);
        self.rows += 1;
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Publishes the rows and reads the index's own gauges, then times
    /// single inserts, removes and a `maintain` on rows it takes out
    /// again.
    pub fn finish(&mut self, report: &mut Report, population: &Population, rng: &mut StdRng) {
        self.index.flush();
        report.set(
            "core.index.heap_bytes_per_record",
            self.index.heap_bytes() as f64 / self.rows as f64,
        );
        report.set("core.index.segments", self.index.segments().len() as f64);
        report.set("core.index.staging_rows", self.index.staging_rows() as f64);

        let extra: Vec<Vec<i64>> = (0..512).map(|_| population.impostor_probe(rng)).collect();
        let mut ids = Vec::with_capacity(extra.len());
        let mut next = extra.iter();
        let insert_us = median_us(extra.len(), 1, || {
            ids.push(
                self.index
                    .insert(next.next().expect("one row per repetition")),
            );
        });
        report.set("core.index.insert_us", insert_us);
        let mut next = ids.iter();
        let remove_us = median_us(ids.len(), 1, || {
            self.index
                .remove(*next.next().expect("one id per repetition"));
        });
        report.set("core.index.remove_us", remove_us);
        let start = Instant::now();
        self.index.maintain();
        report.set(
            "core.index.maintain_us",
            start.elapsed().as_secs_f64() * 1e6,
        );
    }
}

/// The levels one identification can be issued at, outermost first;
/// a workload leaves out the ones it does not go through.
pub struct Levels<'a> {
    pub client: Option<&'a mut Client>,
    pub scheduler: Option<&'a ScheduledServer>,
    pub server: &'a SharedServer,
    pub index: &'a EpochReader,
    pub population: &'a Population,
    /// Draws the challenges of the in-process server level.
    pub rng: StdRng,
}

#[derive(Clone, Copy, PartialEq)]
enum Level {
    Wire,
    Scheduler,
    Server,
}

impl Level {
    fn span(self) -> &'static str {
        match self {
            Level::Wire => "net.server.identify",
            Level::Scheduler => "protocol.scheduler.identify",
            Level::Server => "protocol.server.begin",
        }
    }
}

impl Levels<'_> {
    fn present(&self) -> impl Iterator<Item = Level> {
        let wire = self.client.is_some().then_some(Level::Wire);
        let scheduler = self.scheduler.is_some().then_some(Level::Scheduler);
        wire.into_iter().chain(scheduler).chain([Level::Server])
    }

    fn call(&mut self, level: Level, probe: &Probe) -> Answer {
        match level {
            Level::Wire => self.wire().identify(probe.sketch.clone()).into(),
            Level::Scheduler => self
                .scheduler
                .expect("scheduler level is present")
                .identify(probe.sketch.clone())
                .into(),
            Level::Server => self
                .server
                .begin_identification(&probe.sketch, &mut self.rng)
                .into(),
        }
    }

    /// The connection of the wire level.
    pub fn wire(&mut self) -> &mut Client {
        self.client.as_deref_mut().expect("wire level is present")
    }

    /// One identification request of a traced pass: with no tracer just
    /// the outermost level, as the workload issues it; with one, that
    /// level as a real span and every level beneath it replayed.
    /// Returns how long the outermost call took and its answer, checked
    /// and with its challenge closed.
    pub fn request(
        &mut self,
        tr: Option<&mut Tracer>,
        checks: &mut Phase,
        request: u64,
        probe: &Probe,
    ) -> (Duration, Answer) {
        let Some(tr) = tr else {
            let level = self.present().next().expect("the server level");
            self.warm(level, probe);
            let start = Instant::now();
            let answer = self.call(level, probe);
            let latency = start.elapsed();
            checks.count(1, answer.check(probe, self.population));
            close(self.server, &answer);
            return (latency, answer);
        };
        let (span, answer) = self.identify(tr, checks, None, request, probe);
        close(self.server, &answer);
        self.replay_inner(tr, checks, span, request, probe);
        (tr.duration(span), answer)
    }

    /// Called directly, the server is nearly all sweep, and the last
    /// thing a traced request swept was the standalone copy. A workload's
    /// own requests sweep the same rows back to back; one untimed call
    /// puts the next one in that state. Traced and untraced requests of
    /// a traced pass both get it, so that their medians compare.
    fn warm(&mut self, level: Level, probe: &Probe) {
        if level == Level::Server {
            let warm = self.call(level, probe);
            close(self.server, &warm);
        }
    }

    /// The outermost level as a real span under `parent`. Returns the
    /// span and the checked answer, its challenge still open.
    pub fn identify(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Phase,
        parent: Option<usize>,
        request: u64,
        probe: &Probe,
    ) -> (usize, Answer) {
        let level = self.present().next().expect("the server level");
        self.warm(level, probe);
        let id = tr.open(level.span(), parent, request);
        let answer = self.call(level, probe);
        tr.close(id);
        checks.count(1, answer.check(probe, self.population));
        (id, answer)
    }

    /// Every level beneath the outermost, each replayed on the same
    /// probe inside the level above it, down to the standalone index.
    /// Every answer is checked and its challenge closed.
    pub fn replay_inner(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Phase,
        outermost: usize,
        request: u64,
        probe: &Probe,
    ) {
        let mut above = outermost;
        for level in self.present().skip(1) {
            let (id, answer) = tr.replay(level.span(), above, request, || self.call(level, probe));
            checks.count(1, answer.check(probe, self.population));
            close(self.server, &answer);
            above = id;
        }
        let name = match probe.expect {
            Some(_) => "core.index.find_first_hit",
            None => "core.index.find_first_miss",
        };
        // The level above has just swept the server's rows twice or more;
        // sweep the standalone copy once off the clock so that the two
        // calls being subtracted find their rows equally warm.
        self.index.find_first(&probe.sketch);
        let (_, row) = tr.replay(name, above, request, || {
            self.index.find_first(&probe.sketch)
        });
        let agrees = row.is_some() == probe.expect.is_some();
        checks.count(1, if agrees { Verdict::Ok } else { Verdict::Wrong });
    }
}

/// One traced `identify_batch` of [`BATCH`] probes on the server, with
/// the standalone index's batch sweep replayed inside it.
pub fn traced_batch(
    tr: &mut Tracer,
    checks: &mut Phase,
    request: u64,
    probes: &[Probe],
    levels: &mut Levels<'_>,
) {
    let sketches: Vec<Vec<i64>> = probes.iter().map(|p| p.sketch.clone()).collect();
    // As in `Levels::identify`: each timed sweep follows an untimed one
    // of the same rows.
    let mut results = levels.server.identify_batch(&sketches, &mut levels.rng);
    let id = tr.open("protocol.server.batch32", None, request);
    results.extend(levels.server.identify_batch(&sketches, &mut levels.rng));
    tr.close(id);
    for (result, probe) in results.into_iter().zip(probes.iter().cycle()) {
        let answer = Answer::from(result);
        checks.count(1, answer.check(probe, levels.population));
        close(levels.server, &answer);
    }
    levels.index.find_first_batch(&sketches);
    let (_, rows) = tr.replay("core.index.batch32", id, request, || {
        levels.index.find_first_batch(&sketches)
    });
    for (row, probe) in rows.iter().zip(probes) {
        let agrees = row.is_some() == probe.expect.is_some();
        checks.count(1, if agrees { Verdict::Ok } else { Verdict::Wrong });
    }
}

/// Runs `request(i)`, which returns how long the request took, one at a
/// time and in pairs on the same input, once untraced and once traced,
/// for up to three quarters of the run or [`TRACED_REQUESTS`] pairs, so
/// that both kinds see the same stretch of the host's time. Reports the
/// median of the whole request either way and their ratio.
pub fn traced_pass(
    ctx: &Ctx,
    report: &mut Report,
    tr: &mut Tracer,
    root: &'static str,
    mut request: impl FnMut(Option<&mut Tracer>, u64) -> Duration,
) {
    let mut untraced = Vec::new();
    let start = Instant::now();
    let mut traced = 0;
    while start.elapsed() < ctx.phase(0.75) && traced < TRACED_REQUESTS {
        // The second request on one input is the faster by up to a fifth
        // (measured; see the README), so which kind goes first alternates.
        let order = if traced % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_tracer in order {
            if with_tracer {
                request(Some(tr), traced);
            } else {
                untraced.push(request(None, traced).as_secs_f64() * 1e6);
            }
        }
        traced += 1;
    }
    let untraced_p50 = stats::median(untraced);
    let traced_p50 = tr.layers().get(root).map_or(0.0, |layer| layer.p50_us);
    report.set("loadgen.untraced_p50_us", untraced_p50);
    report.set("loadgen.traced_p50_us", traced_p50);
    report.set(
        "loadgen.trace_overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
    );
    report.set("loadgen.traced_requests", traced as f64);
}

/// Copies the traced medians into the per-layer metrics and writes the
/// spans to `trace-<workload>-<seed>.json` in the output directory.
/// The budget is the sum of the median self times of every kind of span
/// in the tree under `root`: what the layers of one request add up to.
pub fn report_trace(ctx: &Ctx, report: &mut Report, tr: &Tracer, root: &str, rows: usize) {
    let layers = tr.layers();
    let own = |name: &str| layers.get(name).map_or(0.0, |layer| layer.self_p50_us);
    let whole = |name: &str| layers.get(name).map_or(0.0, |layer| layer.p50_us);
    let per_probe = BATCH as f64;
    for (metric, value) in [
        ("net.server.identify_self_us", own("net.server.identify")),
        ("net.server.finish_self_us", own("net.server.finish")),
        (
            "protocol.scheduler.lone_self_us",
            own("protocol.scheduler.identify"),
        ),
        (
            "protocol.server.begin_self_us",
            own("protocol.server.begin"),
        ),
        (
            "protocol.server.finish_self_us",
            own("protocol.server.finish"),
        ),
        (
            "protocol.server.enroll_self_us",
            own("protocol.server.enroll"),
        ),
        (
            "protocol.server.batch32_self_us_per_probe",
            own("protocol.server.batch32") / per_probe,
        ),
        (
            "core.index.find_first_hit_us",
            whole("core.index.find_first_hit"),
        ),
        (
            "core.index.find_first_miss_us",
            whole("core.index.find_first_miss"),
        ),
        (
            "core.index.batch32_us_per_probe",
            whole("core.index.batch32") / per_probe,
        ),
        ("protocol.device.probe_us", whole("protocol.device.probe")),
        (
            "protocol.device.respond_us",
            whole("protocol.device.respond"),
        ),
        (
            "protocol.device.respond_self_us",
            own("protocol.device.respond"),
        ),
        ("core.sketch.sketch_us", whole("core.sketch.sketch")),
        ("core.sketch.rep_us", whole("core.sketch.rep")),
        ("core.sketch.rep_self_us", own("core.sketch.rep")),
        ("crypto.extract_us", whole("crypto.extract")),
        (
            "crypto.keypair_from_seed_us",
            whole("crypto.keypair_from_seed"),
        ),
        ("crypto.dsa_sign_us", whole("crypto.dsa_sign")),
        ("crypto.dsa_verify_us", whole("crypto.dsa_verify")),
        ("loadgen.login_self_us", own("login")),
    ] {
        if value > 0.0 {
            report.set(metric, value);
        }
    }
    let miss_us = whole("core.index.find_first_miss");
    if miss_us > 0.0 {
        report.set("core.index.rows_per_us", rows as f64 / miss_us);
    }
    let spans = tr.spans();
    let mut budget = std::collections::BTreeSet::new();
    for span in spans {
        let mut top = span;
        while let Some(parent) = top.parent {
            top = &spans[parent];
        }
        if top.name == root {
            budget.insert(span.name);
        }
    }
    // A probe either hits or misses: only the commoner of the two sweeps
    // belongs in the budget of the typical request.
    let count = |name: &str| layers.get(name).map_or(0, |layer| layer.count);
    let (hit, miss) = ("core.index.find_first_hit", "core.index.find_first_miss");
    budget.remove(if count(hit) < count(miss) { hit } else { miss });
    report.set(
        "loadgen.budget_sum_us",
        budget.iter().map(|name| own(name)).sum(),
    );

    let path = ctx
        .out_dir()
        .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"comparable\": {}",
        ctx.workload, ctx.seed, report.comparable
    );
    let file = std::fs::File::create(&path).expect("create the trace file");
    let mut out = std::io::BufWriter::new(file);
    tr.write_json(&mut out, &header)
        .and_then(|()| std::io::Write::flush(&mut out))
        .expect("write the trace file");
    report.note(format!(
        "{} spans written to {}",
        tr.spans().len(),
        path.display()
    ));
}

/// The scheduler's own counters, read through its public `metrics()`.
pub fn scheduler_counters(report: &mut Report, scheduler: &ScheduledServer) {
    let metrics = scheduler.metrics();
    report.set(
        "protocol.scheduler.batch_mean",
        metrics.batch_size.snapshot().mean(),
    );
    report.set(
        "protocol.scheduler.queue_depth_p50",
        metrics.queue_depth.snapshot().p50 as f64,
    );
    report.set(
        "protocol.scheduler.latency_p50_us",
        metrics.latency_us.snapshot().p50 as f64,
    );
    report.set(
        "protocol.scheduler.size_flushes",
        metrics.size_flushes() as f64,
    );
    report.set(
        "protocol.scheduler.deadline_flushes",
        metrics.deadline_flushes() as f64,
    );
    report.set("protocol.scheduler.shed", metrics.shed() as f64);
}

/// The front door's own counters.
pub fn net_counters(report: &mut Report, metrics: &NetMetrics) {
    report.set("net.server.requests", metrics.requests() as f64);
    report.set("net.server.responses_err", metrics.responses_err() as f64);
    report.set("net.server.shed", metrics.shed() as f64);
}

/// `Client::connect` (TCP connect + handshake), median of a few.
pub fn connect_us(addr: std::net::SocketAddr, params: &SystemParams) -> f64 {
    stats::median((0..5).map(|_| {
        let start = Instant::now();
        let client = Client::connect(addr, params).expect("connect to the front door");
        let elapsed = start.elapsed();
        drop(client);
        elapsed.as_secs_f64() * 1e6
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Stream};

    /// The checks fire: a right answer passes, and an answer that is
    /// right for somebody else, or for nobody, is counted as wrong.
    #[test]
    fn wrong_answers_are_failures() {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::with_shards(params.clone(), 2);
        let population = Population::build(&params, 64, 7, |record| {
            server.enroll(record).expect("enroll");
        });
        let mut rng = gen::stream(7, Stream::Probes, 0);
        let genuine = Probe {
            sketch: population.genuine_probe(3, &mut rng),
            expect: Some(3),
        };
        let impostor = Probe {
            sketch: population.impostor_probe(&mut rng),
            expect: None,
        };
        let mut ask = |probe: &Probe| -> Answer {
            let answer = server.begin_identification(&probe.sketch, &mut rng).into();
            close(&server, &answer);
            answer
        };
        assert_eq!(ask(&genuine).check(&genuine, &population), Verdict::Ok);
        assert_eq!(ask(&impostor).check(&impostor, &population), Verdict::Ok);
        let mislabeled = |expect| Probe {
            sketch: genuine.sketch.clone(),
            expect,
        };
        // The server names user 3; the generator expected user 4, or nobody.
        let someone_else = mislabeled(Some(4));
        assert_eq!(
            ask(&someone_else).check(&someone_else, &population),
            Verdict::Wrong
        );
        let nobody = mislabeled(None);
        assert_eq!(ask(&nobody).check(&nobody, &population), Verdict::Wrong);
        // An impostor the generator expected to match.
        let stranger = Probe {
            sketch: impostor.sketch.clone(),
            expect: Some(0),
        };
        assert_eq!(ask(&stranger).check(&stranger, &population), Verdict::Wrong);
        assert_eq!(Answer::Shed.check(&genuine, &population), Verdict::Shed);
        assert_eq!(Answer::Error.check(&genuine, &population), Verdict::Error);
    }
}
