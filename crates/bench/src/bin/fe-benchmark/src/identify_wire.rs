//! `identify_wire`: `Identify` only, nine impostors to one genuine
//! user, over one loopback connection. The server path without any
//! client crypto.
//!
//! Phase `open`: an open loop slow enough that every request is alone
//! in the scheduler — what a lone request pays, which is the batch
//! window. Phase `sat`: a closed window of 32 requests in flight on a
//! pipelined connection with a sender and a receiver thread — the only
//! place the scheduler's micro-batches fill and the multi-probe sweep
//! runs behind the wire.

use crate::gen::{self, Population, Probe, Stream};
use crate::load::{open_loop, Phase, Schedule};
use crate::login_wire::{build, System, POPULATION};
use crate::onion::{self, Answer, Levels, Standalone, BATCH};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{layers, Ctx};
use fe_net::envelope::{self, ResponseBody};
use fe_net::frame::{read_frame, write_frame};
use fe_net::handshake::client_handshake;
use fe_net::{Client, DEFAULT_MAX_FRAME};
use fe_protocol::wire::Message;
use fe_protocol::SystemParams;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate of the `open` phase. The scheduler holds a lone request
/// for its 2 ms window, so requests 4 ms apart never share a batch; at
/// 1 000/s two or three would share each window and the median would
/// be about half the window, not what a lone request pays.
const OPEN_RATE: u64 = 250;
/// Distinct probes cycled through; one in `GENUINE_EVERY` is genuine.
const PROBES: usize = 4096;
const GENUINE_EVERY: usize = 10;
const WARM_UP: f64 = 0.0625;

/// Phase `sat` on one pipelined connection: the sender writes an
/// `Identify` frame whenever one of [`BATCH`] credits is free (a full
/// micro-batch in flight), the receiver reads the replies — the server
/// sends them in request order — checks each and returns its credit.
fn saturate(system: &System, population: &Population, probes: &[Probe], length: Duration) -> Phase {
    let mut stream = TcpStream::connect(system.net.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("set nodelay");
    client_handshake(
        &mut stream,
        &population.params.fingerprint(),
        DEFAULT_MAX_FRAME,
    )
    .expect("handshake");
    let mut replies = stream.try_clone().expect("clone the socket");

    let (credit_tx, credits) = mpsc::channel();
    for _ in 0..BATCH {
        credit_tx.send(()).expect("receiver holds the other end");
    }
    // Sender → receiver, in send order: when each request went out.
    // Closing it ends the phase.
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut sessions = Vec::new();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0u64.. {
                credits.recv().expect("receiver returns credits");
                if start.elapsed() >= length {
                    break;
                }
                let probe = probes[i as usize % probes.len()].sketch.clone();
                let request = envelope::encode_request(i, &Message::Identify { probe });
                sent_tx.send(Instant::now()).expect("receiver is reading");
                write_frame(&mut stream, &request, DEFAULT_MAX_FRAME).expect("write a request");
            }
        });

        for (i, sent) in sent_rx.iter().enumerate() {
            let payload = read_frame(&mut replies, DEFAULT_MAX_FRAME).expect("read a reply");
            let now = Instant::now();
            let (id, response) = envelope::decode_response(&payload).expect("decode a reply");
            assert_eq!(id, i as u64, "the front door answered out of order");
            let answer: Answer = match response {
                Ok(ResponseBody::Challenge(challenge)) => Answer::Challenge(challenge),
                Ok(other) => onion::error(format_args!("identify answered with {other:?}")),
                Err(wire) => Err(wire).into(),
            };
            let verdict = answer.check(&probes[i % probes.len()], population);
            phase.record(now - sent, verdict);
            sessions.extend(answer.session());
            // The sender may have left already; its credits are then moot.
            let _ = credit_tx.send(());
        }
    });
    phase.seconds = start.elapsed().as_secs_f64();
    // Challenges issued to genuine probes are closed off the clock.
    for session in sessions {
        system.scheduler.server().cancel_session(session);
    }
    phase.finish()
}

/// Phase `open`: requests on a fixed schedule, each timed from its due
/// time, through the blocking `Client`. At [`OPEN_RATE`] no two are ever
/// in flight, so one thread is sender and receiver both. (A split
/// sender/receiver pair is not used here for a reason the README gives:
/// the server's sockets leave Nagle's algorithm on, and a pipelining
/// client that once has two requests in flight then gets every reply
/// one request late, which made this phase's median bimodal.)
fn lone(system: &System, population: &Population, probes: &[Probe], length: Duration) -> Phase {
    let mut client = Client::connect(system.net.local_addr(), &population.params).expect("connect");
    let server = system.scheduler.server();
    open_loop(length, Schedule::per_second(OPEN_RATE), |i| {
        let probe = &probes[i as usize % probes.len()];
        let answer: Answer = client.identify(probe.sketch.clone()).into();
        // Closing the challenge follows the reply, inside this request's
        // own interval and long before the next is due.
        onion::close(server, &answer);
        answer.check(probe, population)
    })
    .finish()
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
    let mut rng = gen::stream(ctx.seed, Stream::Probes, 0);
    let probes = population.probe_mix(PROBES, GENUINE_EVERY, &mut rng);
    // A traced run keeps most of its time for the traced pass.
    let share = if ctx.trace { 0.125 } else { 0.5 };
    saturate(system, population, &probes, ctx.phase(WARM_UP));
    // `sat` goes first so that the scheduler's counters, which cannot be
    // reset, describe it (and its warm-up) alone.
    let sat = saturate(system, population, &probes, ctx.phase(share));
    onion::scheduler_counters(&mut report, &system.scheduler);
    let open = lone(system, population, &probes, ctx.phase(share));
    onion::net_counters(&mut report, system.net.metrics());
    report.count(&sat);
    report.count(&open);
    report.set("loadgen.ops_per_s", sat.ops_per_s());
    report.set("loadgen.sat_p50_us", sat.p50_us());
    report.loadgen(&open, Some(&open));

    if let Some(standalone) = standalone.as_mut() {
        traced(ctx, &mut report, system, population, standalone, &probes);
    }
    report
}

/// The traced pass: lone `Identify` requests, each replayed through the
/// scheduler, the server and the standalone index; a batch of 32 on the
/// server as the `sat` phase drives it; and the codecs on their own.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    system: &System,
    population: &Population,
    standalone: &mut Standalone,
    probes: &[Probe],
) {
    let params = &population.params;
    let mut rng = gen::stream(ctx.seed, Stream::Layers, 0);
    standalone.finish(report, population, &mut rng);

    let mut connection = Client::connect(system.net.local_addr(), params).expect("connect");
    let server = system.scheduler.server();
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
    onion::traced_pass(ctx, report, &mut tr, "net.server.identify", |tr, i| {
        let probe = &probes[i as usize % probes.len()];
        let (latency, answer) = levels.request(tr, &mut checks, i, probe);
        if let Answer::Challenge(challenge) = answer {
            sample.get_or_insert((probe.sketch.clone(), challenge));
        }
        latency
    });
    for (i, batch) in probes.chunks_exact(BATCH).take(64).enumerate() {
        onion::traced_batch(&mut tr, &mut checks, i as u64, batch, &mut levels);
    }
    report.count(&checks);

    if let Some((probe, challenge)) = &sample {
        layers::wire_codecs(report, probe, challenge);
    }
    report.set(
        "net.server.connect_us",
        onion::connect_us(system.net.local_addr(), params),
    );
    onion::report_trace(ctx, report, &tr, "net.server.identify", standalone.rows());
}
