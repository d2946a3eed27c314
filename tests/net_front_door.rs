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
use fuzzy_id::net::server::apply;
use fuzzy_id::net::{
    Client, ErrorCode, NetConfig, NetError, NetServer, ResponseBody, WireError, DEFAULT_MAX_FRAME,
};
use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::wire::Message;
use fuzzy_id::protocol::{
    BiometricDevice, IdentChallenge, IdentOutcome, ProtocolError, SystemParams,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
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

/// An answer as the op set's three paths are compared: the body, or the
/// wire error code.
type Answer = Result<ResponseBody, ErrorCode>;

fn code(e: ProtocolError) -> ErrorCode {
    WireError::from_protocol(&e).code
}

/// One seeded script of every unscheduled op, run through `op`; returns
/// the answers in order. `op` also takes the `Identify` that opens each
/// `Response`'s session, whose challenge is left out of the answers
/// (its session id and nonce are the scheduler's draws).
fn op_script(op: &mut dyn FnMut(Message) -> Answer) -> Vec<Answer> {
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x0B5E);
    let line = params.sketch().line();
    let (alice, bob, stranger) = (
        line.random_vector(DIM, &mut rng),
        line.random_vector(DIM, &mut rng),
        line.random_vector(DIM, &mut rng),
    );
    let mut enroll = |id: &str, bio: &[i64]| device.enroll(id, bio, &mut rng).unwrap();
    let (a, b, again, twin) = (
        enroll("alice", &alice),
        enroll("bob", &bob),
        enroll("alice-again", &alice),
        enroll("alice-twin", &alice),
    );
    let probe = device.probe_sketch(&alice, &mut rng).unwrap();
    let miss = device.probe_sketch(&stranger, &mut rng).unwrap();
    let pair = || vec!["alice".to_owned(), "bob".to_owned()];
    let claim = |id: &str| Message::AuthenticateClaimed {
        id: id.into(),
        probe: probe.clone(),
    };

    let mut answers = vec![
        op(Message::Enroll(a)),
        op(Message::Enroll(b)),
        op(Message::EnrollUnique(again)),
        op(Message::Reset {
            probe: probe.clone(),
        }),
        op(Message::Reset {
            probe: miss.clone(),
        }),
        op(claim("alice")),
        op(claim("bob")),
        op(claim("nobody")),
        op(Message::CheckLocalUniqueness {
            probe: probe.clone(),
            ids: pair(),
        }),
        op(Message::CheckLocalUniqueness {
            probe: miss,
            ids: pair(),
        }),
    ];
    for forge in [false, true] {
        let Ok(ResponseBody::Challenge(challenge)) = op(Message::Identify {
            probe: probe.clone(),
        }) else {
            panic!("alice's probe opens a session");
        };
        let mut response = device.respond(&alice, &challenge, &mut rng).unwrap();
        if forge {
            response.signature[0] ^= 0xFF;
        }
        answers.push(op(Message::Response(response)));
    }
    answers.extend([
        op(Message::Enroll(twin)),
        op(Message::Reset { probe }),
        op(Message::Revoke {
            id: "alice-twin".into(),
        }),
        op(Message::Revoke {
            id: "alice-twin".into(),
        }),
    ]);
    answers
}

/// The one op set: the seeded script answers alike, op for op, through
/// the named `SharedServer` methods, through `apply`, and through
/// `Client` over the wire, each on its own stack built alike; and
/// `apply` refuses the scheduled and the response-only tags.
#[test]
fn the_op_set_answers_alike_by_name_by_apply_and_over_the_wire() {
    let seed = 0x0B5E7;
    let (_, by_name, _door, ..) = stack(1024, NetConfig::default(), seed);
    let named = op_script(&mut |msg| {
        let server = by_name.server();
        match msg {
            Message::Identify { probe } => by_name.identify(probe).map(ResponseBody::Challenge),
            Message::Enroll(record) => server.enroll(record).map(|()| ResponseBody::Empty),
            Message::EnrollUnique(record) => {
                server.enroll_unique(record).map(|()| ResponseBody::Empty)
            }
            Message::Revoke { id } => server.revoke(&id).map(|()| ResponseBody::Empty),
            Message::Reset { probe } => server.reset(&probe).map(ResponseBody::UserId),
            Message::AuthenticateClaimed { id, probe } => server
                .authenticate_claimed(&id, &probe)
                .map(ResponseBody::Flag),
            Message::CheckLocalUniqueness { probe, ids } => server
                .check_local_uniqueness(&probe, &ids)
                .map(ResponseBody::Flag),
            Message::Response(response) => server
                .finish_identification(&response)
                .map(ResponseBody::Outcome),
            other => panic!("not in the script: {other:?}"),
        }
        .map_err(code)
    });

    let (_, by_apply, _door, ..) = stack(1024, NetConfig::default(), seed);
    let applied = op_script(&mut |msg| {
        match msg {
            Message::Identify { probe } => by_apply.identify(probe).map(ResponseBody::Challenge),
            op => apply(by_apply.server(), op),
        }
        .map_err(code)
    });

    let (params, _sched, door, ..) = stack(1024, NetConfig::default(), seed);
    let mut client = Client::connect(door.local_addr(), &params).unwrap();
    let wired = op_script(&mut |msg| {
        match msg {
            Message::Identify { probe } => client.identify(probe).map(ResponseBody::Challenge),
            Message::Enroll(record) => client.enroll(record).map(|()| ResponseBody::Empty),
            Message::EnrollUnique(record) => {
                client.enroll_unique(record).map(|()| ResponseBody::Empty)
            }
            Message::Revoke { id } => client.revoke(&id).map(|()| ResponseBody::Empty),
            Message::Reset { probe } => client.reset(probe).map(ResponseBody::UserId),
            Message::AuthenticateClaimed { id, probe } => client
                .authenticate_claimed(&id, probe)
                .map(ResponseBody::Flag),
            Message::CheckLocalUniqueness { probe, ids } => client
                .check_local_uniqueness(probe, ids)
                .map(ResponseBody::Flag),
            Message::Response(response) => client
                .finish_identification(&response)
                .map(ResponseBody::Outcome),
            other => panic!("not in the script: {other:?}"),
        }
        .map_err(|e| match e {
            NetError::Remote(e) => e.code,
            other => panic!("a transport failure: {other}"),
        })
    });

    use ResponseBody::{Empty, Flag, Outcome, UserId};
    let expected: Vec<Answer> = vec![
        Ok(Empty),
        Ok(Empty),
        Err(ErrorCode::DuplicateBiometric),
        Ok(UserId("alice".into())),
        Err(ErrorCode::NoMatch),
        Ok(Flag(true)),
        Ok(Flag(false)),
        Err(ErrorCode::UnknownUser),
        Ok(Flag(false)),
        Ok(Flag(true)),
        Ok(Outcome(IdentOutcome::Identified("alice".into()))),
        Ok(Outcome(IdentOutcome::Rejected)),
        Ok(Empty),
        Err(ErrorCode::AmbiguousMatch),
        Ok(Empty),
        Err(ErrorCode::UnknownUser),
    ];
    assert_eq!(named, expected, "the named methods");
    assert_eq!(applied, named, "apply against the named methods");
    assert_eq!(wired, named, "Client against the named methods");

    let params = SystemParams::insecure_test_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    let bio = params.sketch().line().random_vector(DIM, &mut rng);
    let record = BiometricDevice::new(params.clone())
        .enroll("carol", &bio, &mut rng)
        .unwrap();
    let challenge = IdentChallenge {
        session: 1,
        helper: record.helper,
        challenge: 2,
    };
    for scheduled in [
        Message::Identify { probe: bio.clone() },
        Message::IdentifyBatch { probes: vec![bio] },
        Message::Challenge(challenge),
        Message::Outcome(IdentOutcome::Rejected),
    ] {
        let answer = apply(by_apply.server(), scheduled.clone()).map_err(code);
        assert_eq!(answer, Err(ErrorCode::Malformed), "{scheduled:?}");
    }
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

/// A full scheduler batch at the paper's dimension over default frames:
/// 32 genuine probes of 5 000 coordinates are 1.28 MB going in, past the
/// 1 MiB limit, so the client sends them as two requests of 26 and 6,
/// and every answer comes back in order with its user's helper; a login
/// on the same connection goes through. The 32 users are real sketches
/// behind one enrolled user's public key, so no per-user key is made.
#[test]
fn a_full_batch_at_the_paper_dimension_fits_default_frames() {
    const N: usize = 5_000;
    let params = SystemParams::paper_defaults();
    let max_batch = SchedulerConfig::default().max_batch;
    let config = SchedulerConfig {
        rng_seed: 0x22A,
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(ScheduledServer::scan(params.clone(), 1, config));
    let server = NetServer::spawn(Arc::clone(&scheduler), "127.0.0.1:0", NetConfig::default())
        .expect("bind ephemeral front door");
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x22A);
    let line = params.sketch().line();
    let mut client = Client::connect(server.local_addr(), &params).unwrap();

    let alice_bio = line.random_vector(N, &mut rng);
    let alice = device.enroll("alice", &alice_bio, &mut rng).unwrap();
    let mut users = Vec::new();
    for u in 0..max_batch {
        use fuzzy_id::core::{HelperData, RobustData, SecureSketch};
        let bio = line.random_vector(N, &mut rng);
        let (mut tag, mut seed) = (vec![0; 32], vec![0; 32]);
        rng.fill_bytes(&mut tag);
        rng.fill_bytes(&mut seed);
        let mut record = alice.clone();
        record.id = format!("user-{u}");
        record.helper = HelperData {
            sketch: RobustData {
                inner: params.sketch().sketch(&bio, &mut rng).unwrap(),
                tag,
            },
            seed,
        };
        scheduler.server().enroll(record.clone()).unwrap();
        users.push((record, bio));
    }
    client.enroll(alice).unwrap();

    let probe = device.probe_sketch(&alice_bio, &mut rng).unwrap();
    let challenge = client.identify(probe).unwrap();
    let response = device.respond(&alice_bio, &challenge, &mut rng).unwrap();
    let outcome = client.finish_identification(&response).unwrap();
    assert_eq!(outcome.identity(), Some("alice"));

    let probes: Vec<Vec<i64>> = users
        .iter()
        .map(|(_, bio)| device.probe_sketch(bio, &mut rng).unwrap())
        .collect();
    let answered = server.metrics().responses_ok();
    let verdicts = client.identify_batch(probes).unwrap();
    assert_eq!(server.metrics().responses_ok() - answered, 2, "26 + 6");
    assert_eq!(verdicts.len(), max_batch);
    for ((record, _), verdict) in users.iter().zip(&verdicts) {
        let challenge = verdict.as_ref().expect("a genuine probe matches");
        assert_eq!(challenge.helper, record.helper, "{}", record.id);
    }
    server.shutdown();
}

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

/// Shutdown bounds the drain by one deadline, an idle window from its
/// start, not each send: a peer that reads its replies in bursts, with
/// pauses longer than the accept loop's poll tick, still gets every
/// reply queued for it, while a peer that reads nothing beside it is
/// released by the same deadline, within the 3 s bound.
#[test]
fn shutdown_drains_a_slow_reader_and_releases_a_silent_one() {
    // Batches of one enrolled user's probe: each reply is thousands of
    // challenges, so a few requests, all read before shutdown, queue
    // more reply bytes than the sockets' buffers take.
    const BATCHES: u64 = 16;
    const PROBES: usize = 2_000;
    const MAX_FRAME: usize = 8 << 20;
    let (params, scheduler, server, device, mut rng) = stack(
        1 << 16,
        NetConfig {
            idle_timeout: Duration::from_secs(2),
            max_frame: MAX_FRAME,
            ..NetConfig::default()
        },
        0x510E,
    );
    let bio = params.sketch().line().random_vector(DIM, &mut rng);
    let record = device.enroll("alice", &bio, &mut rng).unwrap();
    scheduler.server().enroll(record).unwrap();
    let probe = device.probe_sketch(&bio, &mut rng).unwrap();
    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    client_handshake(&mut slow, &params.fingerprint(), MAX_FRAME).unwrap();
    let mut frames = Vec::new();
    for id in 0..BATCHES {
        let probes = vec![probe.clone(); PROBES];
        let req = envelope::encode_request(id, &Message::IdentifyBatch { probes });
        write_frame(&mut frames, &req, MAX_FRAME).unwrap();
    }
    let mut write_half = slow.try_clone().unwrap();
    std::thread::spawn(move || write_half.write_all(&frames));
    let start = Instant::now();
    while server.metrics().requests() < BATCHES {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the batches were not all read"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The silent peer, as in the test above; a second's wait fills its
    // buffers, while the slow peer's stalled send is still inside its
    // idle window.
    let silent = handshaken(&server, &params);
    let mut frames = Vec::new();
    for id in 0..300_000u64 {
        let req = envelope::encode_request(id, &Message::Revoke { id: "ghost".into() });
        write_frame(&mut frames, &req, DEFAULT_MAX_FRAME).unwrap();
    }
    let mut write_half = silent.try_clone().unwrap();
    let silent_writer = std::thread::spawn(move || write_half.write_all(&frames).is_err());
    std::thread::sleep(Duration::from_secs(1));

    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let start = Instant::now();
        server.shutdown();
        let _ = done.send(start.elapsed());
    });
    // Bursts of at most 512 KiB, 40 ms apart, to the end of the stream:
    // about 0.7 s for the 7 MiB of replies, inside the drain deadline,
    // while a send to this peer can wait longer than a poll tick.
    let mut replies = Vec::new();
    let mut burst = vec![0; 512 << 10];
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loop {
        std::thread::sleep(Duration::from_millis(40));
        match std::io::Read::read(&mut slow, &mut burst) {
            Ok(0) => break,
            Ok(n) => replies.extend_from_slice(&burst[..n]),
            Err(e) => panic!(
                "the slow peer's stream broke after {} bytes: {e}",
                replies.len()
            ),
        }
    }
    let mut replies = &replies[..];
    for expect in 0..BATCHES {
        let payload = read_frame(&mut replies, MAX_FRAME)
            .unwrap_or_else(|e| panic!("reply {expect} of {BATCHES} missing: {e}"));
        let (id, response) = envelope::decode_response(&payload).unwrap();
        assert_eq!(id, expect);
        let Ok(ResponseBody::Batch(items)) = response else {
            panic!("reply {expect}: {response:?}");
        };
        assert_eq!(items.len(), PROBES);
        assert!(items.iter().all(Result::is_ok), "reply {expect}");
    }
    assert!(replies.is_empty());
    let elapsed = stopped
        .recv_timeout(Duration::from_secs(3))
        .expect("shutdown wedged behind a peer that stopped reading");
    assert!(
        elapsed < Duration::from_secs(3),
        "shutdown took {elapsed:?}"
    );
    assert!(
        silent_writer.join().unwrap(),
        "the server closed the connection"
    );
    drop(silent);
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
