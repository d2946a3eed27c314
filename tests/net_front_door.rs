//! Networked front door integration: the full server op surface over
//! real loopback sockets, and the transport's behaviour under a hostile
//! peer — truncated frames, lying length prefixes, corrupted checksums,
//! mid-frame disconnects, mismatched handshakes. The invariant
//! throughout: a protocol-level failure is *answered*, a transport-level
//! violation closes *that connection* — and the server itself never
//! panics, never hangs, and keeps serving everyone else.

use fuzzy_id::net::envelope;
use fuzzy_id::net::frame::{read_frame, write_frame, FRAME_HEADER};
use fuzzy_id::net::handshake::{self, client_handshake, HandshakeStatus, NET_VERSION};
use fuzzy_id::net::{
    Client, ErrorCode, NetConfig, NetError, NetServer, ResponseBody, DEFAULT_MAX_FRAME,
};
use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::wire::Message;
use fuzzy_id::protocol::{BiometricDevice, IdentOutcome, SystemParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 16;

/// A served stack: params, a scheduler with the given admission queue,
/// and a front door on an ephemeral loopback port.
fn stack(
    queue_capacity: usize,
    config: NetConfig,
    seed: u64,
) -> (
    SystemParams,
    Arc<ScheduledServer>,
    NetServer,
    BiometricDevice,
    StdRng,
) {
    let params = SystemParams::insecure_test_defaults();
    let scheduler = Arc::new(ScheduledServer::scan(
        params.clone(),
        1,
        SchedulerConfig {
            queue_capacity,
            rng_seed: seed,
            ..SchedulerConfig::default()
        },
    ));
    let server = NetServer::spawn(Arc::clone(&scheduler), "127.0.0.1:0", config)
        .expect("bind ephemeral front door");
    let device = BiometricDevice::new(params.clone());
    let rng = StdRng::seed_from_u64(seed);
    (params, scheduler, server, device, rng)
}

/// Connects a raw socket and completes the handshake — the launch pad
/// for every hostile-bytes scenario below.
fn handshaken(server: &NetServer, params: &SystemParams) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    client_handshake(&mut stream, &params.fingerprint(), DEFAULT_MAX_FRAME).expect("handshake");
    stream
}

/// Asserts the server closed our connection: the next frame read ends
/// in `ConnectionClosed` (clean EOF) or an IO error (RST) — never data,
/// never a hang.
fn assert_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_frame(stream, DEFAULT_MAX_FRAME) {
        Ok(payload) => panic!(
            "expected closed connection, got a {}-byte frame",
            payload.len()
        ),
        Err(NetError::ConnectionClosed | NetError::Io(_) | NetError::BadFrame(_)) => {}
        Err(other) => panic!("expected closed connection, got {other}"),
    }
}

/// The server stays healthy after an abuse scenario: a fresh client can
/// still complete a full identify round trip.
fn assert_still_serving(server: &NetServer, params: &SystemParams) {
    let mut client = Client::connect(server.local_addr(), params).expect("fresh connect");
    let mut rng = StdRng::seed_from_u64(0xA11A);
    let device = BiometricDevice::new(params.clone());
    let bio = params.sketch().line().random_vector(DIM, &mut rng);
    let probe = device.probe_sketch(&bio, &mut rng).expect("probe");
    // Nobody enrolled with this biometric: NO_MATCH is the healthy answer.
    match client.identify(probe) {
        Err(NetError::Remote(e)) if e.code == ErrorCode::NoMatch => {}
        other => panic!("expected NO_MATCH from a healthy server, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Full op surface, end to end.
// ---------------------------------------------------------------------

#[test]
fn every_server_op_roundtrips_over_the_wire() {
    let (params, _sched, server, device, mut rng) = stack(1024, NetConfig::default(), 0xE2E);
    let mut client = Client::connect(server.local_addr(), &params).unwrap();

    // enroll + identify + finish: the paper's Fig. 3 flow, over TCP.
    let alice_bio = params.sketch().line().random_vector(DIM, &mut rng);
    let bob_bio = params.sketch().line().random_vector(DIM, &mut rng);
    client
        .enroll(device.enroll("alice", &alice_bio, &mut rng).unwrap())
        .unwrap();
    client
        .enroll(device.enroll("bob", &bob_bio, &mut rng).unwrap())
        .unwrap();

    let reading: Vec<i64> = alice_bio.iter().map(|&x| x + 3).collect();
    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
    let challenge = client.identify(probe.clone()).unwrap();
    let response = device.respond(&reading, &challenge, &mut rng).unwrap();
    let outcome = client.finish_identification(&response).unwrap();
    assert_eq!(outcome.identity(), Some("alice"));

    // enroll_unique: a duplicate biometric is refused with the typed code.
    let dup = device.enroll("alice-again", &alice_bio, &mut rng).unwrap();
    match client.enroll_unique(dup) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::DuplicateBiometric),
        other => panic!("expected DUPLICATE_BIOMETRIC, got {other:?}"),
    }

    // authenticate_claimed: right and wrong claimants.
    assert!(client.authenticate_claimed("alice", probe.clone()).unwrap());
    assert!(!client.authenticate_claimed("bob", probe.clone()).unwrap());
    match client.authenticate_claimed("nobody", probe.clone()) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownUser),
        other => panic!("expected UNKNOWN_USER, got {other:?}"),
    }

    // check_local_uniqueness: alice's probe collides with alice, not bob.
    assert!(!client
        .check_local_uniqueness(probe.clone(), vec!["alice".into()])
        .unwrap());
    assert!(client
        .check_local_uniqueness(probe.clone(), vec!["bob".into()])
        .unwrap());

    // reset: exactly one match resolves to the user id.
    assert_eq!(client.reset(probe.clone()).unwrap(), "alice");

    // identify_batch: matches and misses position-aligned in one frame.
    let stranger = params.sketch().line().random_vector(DIM, &mut rng);
    let miss = device.probe_sketch(&stranger, &mut rng).unwrap();
    let verdicts = client
        .identify_batch(vec![probe.clone(), miss.clone()])
        .unwrap();
    assert_eq!(verdicts.len(), 2);
    assert!(verdicts[0].is_ok());
    assert_eq!(verdicts[1].as_ref().unwrap_err().code, ErrorCode::NoMatch);

    // revoke: alice disappears; her probe stops matching; a second
    // revoke reports UNKNOWN_USER.
    client.revoke("alice").unwrap();
    match client.identify(probe) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::NoMatch),
        other => panic!("expected NO_MATCH after revocation, got {other:?}"),
    }
    match client.revoke("alice") {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownUser),
        other => panic!("expected UNKNOWN_USER, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn verification_failure_is_a_typed_wire_error() {
    let (params, _sched, server, device, mut rng) = stack(1024, NetConfig::default(), 0xBAD5);
    let mut client = Client::connect(server.local_addr(), &params).unwrap();
    let bio = params.sketch().line().random_vector(DIM, &mut rng);
    client
        .enroll(device.enroll("carol", &bio, &mut rng).unwrap())
        .unwrap();
    let probe = device.probe_sketch(&bio, &mut rng).unwrap();
    let challenge = client.identify(probe).unwrap();
    let mut response = device.respond(&bio, &challenge, &mut rng).unwrap();
    // Tamper with the signature: the server must answer BAD_SIGNATURE
    // (the paper's MITM case), not drop the connection.
    response.signature[0] ^= 0xFF;
    match client.finish_identification(&response) {
        Ok(IdentOutcome::Rejected) => {}
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadSignature),
        other => panic!("expected a rejection, got {other:?}"),
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Backpressure on the wire.
// ---------------------------------------------------------------------

#[test]
fn overload_is_shed_as_wire_responses_not_dropped_connections() {
    // queue_capacity 1: with a long batch window and pipelined requests,
    // most submissions must shed.
    let params = SystemParams::insecure_test_defaults();
    let scheduler = Arc::new(ScheduledServer::scan(
        params.clone(),
        1,
        SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(50),
            queue_capacity: 1,
            workers: 1,
            rng_seed: 0x5EED,
        },
    ));
    let server =
        NetServer::spawn(Arc::clone(&scheduler), "127.0.0.1:0", NetConfig::default()).unwrap();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let bio = params.sketch().line().random_vector(DIM, &mut rng);
    let probe = device.probe_sketch(&bio, &mut rng).unwrap();

    // Pipeline a burst through a raw socket: no waiting between sends.
    let mut stream = handshaken(&server, &params);
    let mut read_half = stream.try_clone().unwrap();
    const BURST: u64 = 32;
    for id in 0..BURST {
        let req = envelope::encode_request(
            id,
            &Message::Identify {
                probe: probe.clone(),
            },
        );
        write_frame(&mut stream, &req, DEFAULT_MAX_FRAME).unwrap();
    }
    let mut shed = 0u64;
    let mut answered = 0u64;
    for expect in 0..BURST {
        let payload = read_frame(&mut read_half, DEFAULT_MAX_FRAME).unwrap();
        let (id, response) = envelope::decode_response(&payload).unwrap();
        assert_eq!(id, expect, "responses must arrive in request order");
        answered += 1;
        match response {
            // Admitted requests resolve NO_MATCH (nobody is enrolled);
            // everything the queue refused must say OVERLOADED.
            Err(e) if e.code == ErrorCode::NoMatch => {}
            Err(e) if e.code == ErrorCode::Overloaded => shed += 1,
            other => panic!("expected NO_MATCH or OVERLOADED, got {other:?}"),
        }
    }
    assert_eq!(answered, BURST, "every request gets a response");
    assert!(
        shed > 0,
        "a 1-deep admission queue under a {BURST}-request burst must shed"
    );
    assert!(server.metrics().shed() >= shed);

    // The connection is still usable after being shed on.
    let req = envelope::encode_request(BURST, &Message::Revoke { id: "ghost".into() });
    write_frame(&mut stream, &req, DEFAULT_MAX_FRAME).unwrap();
    let payload = read_frame(&mut read_half, DEFAULT_MAX_FRAME).unwrap();
    let (_, response) = envelope::decode_response(&payload).unwrap();
    assert_eq!(response.unwrap_err().code, ErrorCode::UnknownUser);
    server.shutdown();
}

#[test]
fn pipelined_replies_do_not_wait_for_the_next_request() {
    // Two requests in flight, then silence: both replies must come back
    // before a third request is sent. With Nagle's algorithm on at the
    // server, the second reply is held until the first is acknowledged,
    // and a client with nothing to send acknowledges on its delayed-ACK
    // timer (40 ms or more) — every reply arrives one request late.
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0x9A61E);
    let mut stream = handshaken(&server, &params);
    stream.set_nodelay(true).unwrap();
    let mut read_half = stream.try_clone().unwrap();
    // Revocations of an unknown user are answered without a batch
    // window, so a round is network time alone. A new connection
    // acknowledges at once for its first segments; the median over
    // many rounds looks past that.
    const ROUNDS: u64 = 31;
    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        let start = std::time::Instant::now();
        for id in [2 * round, 2 * round + 1] {
            let req = envelope::encode_request(id, &Message::Revoke { id: "ghost".into() });
            write_frame(&mut stream, &req, DEFAULT_MAX_FRAME).unwrap();
        }
        for expect in [2 * round, 2 * round + 1] {
            let payload = read_frame(&mut read_half, DEFAULT_MAX_FRAME).unwrap();
            let (id, response) = envelope::decode_response(&payload).unwrap();
            assert_eq!(id, expect);
            assert_eq!(response.unwrap_err().code, ErrorCode::UnknownUser);
        }
        rounds.push(start.elapsed());
    }
    rounds.sort();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "a pair of pipelined replies took {median:?} (median of {ROUNDS}): \
         the second is waiting for an acknowledgement"
    );
    server.shutdown();
}

#[test]
fn a_response_over_the_frame_limit_is_answered_with_an_error() {
    // A batch whose request fits `max_frame` and whose response does not:
    // seven genuine probes are 943 bytes going in and seven challenges
    // about 1.5 KiB coming out. The request's id gets a CODEC answer and
    // the connection goes on serving.
    const MAX_FRAME: usize = 1024;
    let config = NetConfig {
        max_frame: MAX_FRAME,
        ..NetConfig::default()
    };
    let (params, scheduler, server, device, mut rng) = stack(64, config, 0x0B16);
    let bio = params.sketch().line().random_vector(DIM, &mut rng);
    let record = device.enroll("alice", &bio, &mut rng).unwrap();
    scheduler.server().enroll(record).unwrap();
    let probe = device.probe_sketch(&bio, &mut rng).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    client_handshake(&mut stream, &params.fingerprint(), MAX_FRAME).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let request = envelope::encode_request(
        41,
        &Message::IdentifyBatch {
            probes: vec![probe.clone(); 7],
        },
    );
    assert!(request.len() <= MAX_FRAME);
    write_frame(&mut stream, &request, MAX_FRAME).unwrap();
    let payload = read_frame(&mut stream, MAX_FRAME).expect("an answer within a second");
    let (id, response) = envelope::decode_response(&payload).unwrap();
    assert_eq!(id, 41);
    let err = response.unwrap_err();
    assert_eq!(err.code, ErrorCode::Codec);
    assert_eq!(err.detail, "response exceeds the frame limit");
    assert_eq!(server.metrics().responses_err(), 1);
    assert_eq!(server.metrics().responses_ok(), 0);
    assert_eq!(server.metrics().fatal_frames(), 0);

    // Same connection, next request: served.
    let request = envelope::encode_request(42, &Message::Identify { probe });
    write_frame(&mut stream, &request, MAX_FRAME).unwrap();
    let payload = read_frame(&mut stream, MAX_FRAME).unwrap();
    let (id, response) = envelope::decode_response(&payload).unwrap();
    assert_eq!(id, 42);
    assert!(matches!(response, Ok(ResponseBody::Challenge(_))));
    assert_eq!(server.metrics().responses_ok(), 1);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Hostile handshakes.
// ---------------------------------------------------------------------

#[test]
fn wrong_fingerprint_is_rejected_with_both_sides_values() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF1);
    let ours = fuzzy_id::core::codec::Fingerprint([0xAB; 8]);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    match client_handshake(&mut stream, &ours, DEFAULT_MAX_FRAME) {
        Err(NetError::FingerprintMismatch { ours: o, theirs }) => {
            assert_eq!(o, ours);
            assert_eq!(theirs, params.fingerprint());
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    assert_still_serving(&server, &params);
}

#[test]
fn wrong_version_is_rejected() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF2);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = handshake::encode_hello(&params.fingerprint());
    hello[4..6].copy_from_slice(&(NET_VERSION + 1).to_be_bytes());
    write_frame(&mut stream, &hello, DEFAULT_MAX_FRAME).unwrap();
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    let (version, status, _) = handshake::decode_reply(&reply).unwrap();
    assert_eq!(status, HandshakeStatus::VersionMismatch);
    assert_eq!(
        version, NET_VERSION,
        "the reply carries the server's version"
    );
    assert_closed(&mut stream);
    assert_still_serving(&server, &params);
}

#[test]
fn garbage_hello_closes_without_a_reply() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF3);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, b"GET / HTTP/1.1\r\n\r\n", DEFAULT_MAX_FRAME).unwrap();
    assert_closed(&mut stream);
    assert_still_serving(&server, &params);
}

// ---------------------------------------------------------------------
// Hostile framing after a valid handshake.
// ---------------------------------------------------------------------

#[test]
fn truncated_frame_then_disconnect_kills_only_that_connection() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF4);
    let mut stream = handshaken(&server, &params);
    // A frame header promising 100 bytes, followed by 10 and a FIN.
    let mut partial = Vec::new();
    partial.extend_from_slice(&100u32.to_be_bytes());
    partial.extend_from_slice(&0u32.to_be_bytes());
    partial.extend_from_slice(&[0u8; 10]);
    stream.write_all(&partial).unwrap();
    drop(stream);
    assert_still_serving(&server, &params);
}

#[test]
fn oversized_length_prefix_is_fatal_to_the_connection() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF5);
    let mut stream = handshaken(&server, &params);
    let mut huge = Vec::new();
    huge.extend_from_slice(&u32::MAX.to_be_bytes());
    huge.extend_from_slice(&0u32.to_be_bytes());
    stream.write_all(&huge).unwrap();
    assert_closed(&mut stream);
    assert_still_serving(&server, &params);
}

#[test]
fn crc_corruption_is_fatal_to_the_connection() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF6);
    let mut stream = handshaken(&server, &params);
    let mut framed = Vec::new();
    write_frame(
        &mut framed,
        &envelope::encode_request(0, &Message::Revoke { id: "x".into() }),
        DEFAULT_MAX_FRAME,
    )
    .unwrap();
    framed[FRAME_HEADER] ^= 0x01; // flip one payload bit; CRC now lies
    stream.write_all(&framed).unwrap();
    assert_closed(&mut stream);
    assert_still_serving(&server, &params);
}

#[test]
fn envelope_too_short_for_an_id_is_fatal() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF7);
    let mut stream = handshaken(&server, &params);
    write_frame(&mut stream, &[1, 2, 3], DEFAULT_MAX_FRAME).unwrap();
    assert_closed(&mut stream);
    assert_still_serving(&server, &params);
}

#[test]
fn malformed_message_behind_a_valid_id_is_answered_not_fatal() {
    let (params, _sched, server, _device, _rng) = stack(64, NetConfig::default(), 0xF8);
    let mut stream = handshaken(&server, &params);
    let mut payload = 7u64.to_be_bytes().to_vec();
    payload.extend_from_slice(b"not a wire message at all");
    write_frame(&mut stream, &payload, DEFAULT_MAX_FRAME).unwrap();
    let response = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    let (id, verdict) = envelope::decode_response(&response).unwrap();
    assert_eq!(id, 7);
    assert_eq!(verdict.unwrap_err().code, ErrorCode::Malformed);

    // Same connection, response-only tag as a request: also answered.
    let outcome = envelope::encode_request(8, &Message::Outcome(IdentOutcome::Rejected));
    write_frame(&mut stream, &outcome, DEFAULT_MAX_FRAME).unwrap();
    let response = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    let (id, verdict) = envelope::decode_response(&response).unwrap();
    assert_eq!(id, 8);
    assert_eq!(verdict.unwrap_err().code, ErrorCode::Malformed);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Connection lifecycle.
// ---------------------------------------------------------------------

#[test]
fn idle_connections_are_reaped() {
    let (params, _sched, server, _device, _rng) = stack(
        64,
        NetConfig {
            idle_timeout: Duration::from_millis(100),
            poll_tick: Duration::from_millis(10),
            ..NetConfig::default()
        },
        0xF9,
    );
    let mut stream = handshaken(&server, &params);
    // Say nothing; the server must hang up on us.
    assert_closed(&mut stream);
    assert!(server.metrics().idle_closed() >= 1);
    // Active connections keep working longer than the idle window as
    // long as they keep talking.
    let mut client = Client::connect(server.local_addr(), &params).unwrap();
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(60));
        match client.revoke("nobody") {
            Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownUser),
            other => panic!("expected UNKNOWN_USER, got {other:?}"),
        }
    }
    server.shutdown();
}

/// The accept loop sleeps in `accept`, not on the poll tick: with a
/// two-second tick and the loop long idle, a connect, handshake and one
/// request finish well inside one tick.
#[test]
fn a_connection_is_served_without_waiting_for_the_accept_tick() {
    let (params, _sched, server, _device, _rng) = stack(
        64,
        NetConfig {
            poll_tick: Duration::from_secs(2),
            ..NetConfig::default()
        },
        0xFB,
    );
    std::thread::sleep(Duration::from_millis(200));
    let start = Instant::now();
    let mut client = Client::connect(server.local_addr(), &params).expect("connect");
    match client.revoke("nobody") {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownUser),
        other => panic!("expected UNKNOWN_USER, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "connect + handshake + one request took {elapsed:?}"
    );
    drop(client);
    server.shutdown();
}

/// Nothing waits for the tick: the socket's read timeout is the idle
/// window, so with a five-second tick a 100 ms window still closes the
/// connection in about 100 ms.
#[test]
fn idle_connections_are_reaped_within_the_idle_window() {
    let (params, _sched, server, _device, _rng) = stack(
        64,
        NetConfig {
            idle_timeout: Duration::from_millis(100),
            poll_tick: Duration::from_secs(5),
            ..NetConfig::default()
        },
        0xFC,
    );
    let mut stream = handshaken(&server, &params);
    let start = Instant::now();
    assert_closed(&mut stream);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "a 100 ms idle window closed its connection after {elapsed:?}"
    );
    assert_eq!(server.metrics().idle_closed(), 1);
    assert_eq!(server.metrics().fatal_frames(), 0);
    server.shutdown();
}

/// Shutdown shuts each connection's read half, so a reader blocked in
/// `read` returns at once instead of at its next tick.
#[test]
fn shutdown_does_not_wait_for_the_poll_tick() {
    let (params, _sched, server, _device, _rng) = stack(
        64,
        NetConfig {
            poll_tick: Duration::from_secs(5),
            ..NetConfig::default()
        },
        0xFD,
    );
    let mut stream = handshaken(&server, &params);
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown with one idle connection took {elapsed:?}"
    );
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(
        matches!(
            read_frame(&mut stream, DEFAULT_MAX_FRAME),
            Err(NetError::ConnectionClosed)
        ),
        "the client sees a clean end of stream"
    );
}

/// A peer that pipelines requests and never reads its replies: the
/// server reads no faster than the peer takes answers, so at most the
/// connection's 64 queued replies and the one its reader holds are
/// dispatched and unanswered, and a peer that takes no reply bytes for
/// the idle window is closed — its writer's stalled write cannot wedge
/// shutdown.
#[test]
fn a_peer_that_stops_reading_holds_bounded_memory_and_cannot_wedge_shutdown() {
    let (params, _sched, server, _device, _rng) = stack(
        64,
        NetConfig {
            idle_timeout: Duration::from_secs(1),
            ..NetConfig::default()
        },
        0x5104,
    );
    let stream = handshaken(&server, &params);
    let mut frames = Vec::new();
    for id in 0..300_000u64 {
        let req = envelope::encode_request(id, &Message::Revoke { id: "ghost".into() });
        write_frame(&mut frames, &req, DEFAULT_MAX_FRAME).unwrap();
    }
    let mut write_half = stream.try_clone().unwrap();
    // Ends when the server closes the connection.
    let writer = std::thread::spawn(move || write_half.write_all(&frames).is_err());
    std::thread::sleep(Duration::from_secs(1));
    let m = server.metrics();
    let unanswered = m.requests() - m.responses_ok() - m.responses_err();
    assert!(
        unanswered <= 65,
        "{unanswered} requests dispatched and unanswered for a peer that reads nothing \
         ({} dispatched)",
        m.requests()
    );
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let start = Instant::now();
        server.shutdown();
        let _ = done.send(start.elapsed());
    });
    let elapsed = stopped
        .recv_timeout(Duration::from_secs(3))
        .expect("shutdown wedged behind a peer that stopped reading");
    assert!(
        elapsed < Duration::from_secs(3),
        "shutdown took {elapsed:?}"
    );
    assert!(writer.join().unwrap(), "the server closed the connection");
    drop(stream);
}

/// The idle window is the socket's read timeout, which cannot be zero:
/// a zero window is refused up front instead of closing every
/// connection before its hello.
#[test]
fn a_zero_idle_timeout_is_refused() {
    let params = SystemParams::insecure_test_defaults();
    let scheduler = Arc::new(ScheduledServer::scan(params, 1, SchedulerConfig::default()));
    let config = NetConfig {
        idle_timeout: Duration::ZERO,
        ..NetConfig::default()
    };
    let err = NetServer::spawn(scheduler, "127.0.0.1:0", config).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn shutdown_closes_connections_and_stops_accepting() {
    let (params, _sched, server, _device, _rng) = stack(
        64,
        NetConfig {
            poll_tick: Duration::from_millis(10),
            ..NetConfig::default()
        },
        0xFA,
    );
    let addr = server.local_addr();
    let mut stream = handshaken(&server, &params);
    server.shutdown(); // blocks until every server thread has exited
    assert_closed(&mut stream);
    // The listener is gone: a fresh connection cannot handshake.
    assert!(
        Client::connect(addr, &params).is_err(),
        "connected to a server that shut down"
    );
}
