//! Networked passwordless login — the TCP front door end to end.
//!
//! Everything the other examples do in-process, over a real socket: a
//! `NetServer` wraps the scheduled authentication server, a `Client`
//! connects with a handshake that pins the transport version *and* the
//! system-parameter fingerprint, and the full identification protocol —
//! probe → challenge → signed response → verdict — runs through framed,
//! CRC-checked wire messages (the byte-level contract is `PROTOCOL.md`).
//!
//! The demo:
//! 1. serves an enrolled population on `127.0.0.1` (ephemeral port),
//! 2. logs users in over concurrent client connections,
//! 3. shows a client on *different system parameters* being refused at
//!    the handshake — fail-fast, instead of a career of silent
//!    `NO_MATCH`es,
//! 4. floods a tiny admission queue through one pipelined connection
//!    and counts the wire-level `OVERLOADED` sheds — backpressure
//!    reaches the caller as an answer, never a dropped connection,
//! 5. prints the front door's own counters and shuts down cleanly.
//!
//! Run with: `cargo run --release --example networked_login`

use fuzzy_id::net::envelope;
use fuzzy_id::net::frame::{read_frame, write_frame};
use fuzzy_id::net::handshake::client_handshake;
use fuzzy_id::net::{Client, ErrorCode, NetConfig, NetError, NetServer, DEFAULT_MAX_FRAME};
use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::wire::Message;
use fuzzy_id::protocol::{BiometricDevice, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut rng = StdRng::seed_from_u64(11);

    // ---- 1. serve -----------------------------------------------------
    let scheduler = Arc::new(ScheduledServer::scan(
        params.clone(),
        2,
        SchedulerConfig {
            max_batch: 8,
            ..SchedulerConfig::default()
        },
    ));
    let server = NetServer::spawn(Arc::clone(&scheduler), "127.0.0.1:0", NetConfig::default())?;
    let addr = server.local_addr();
    println!(
        "front door listening on {addr} (params fingerprint {:?})",
        params.fingerprint()
    );

    let users = 16;
    let dim = 64;
    println!("enrolling {users} users over the wire…");
    let mut enroll_client = Client::connect(addr, &params)?;
    let mut bios = Vec::new();
    for u in 0..users {
        let bio = params.sketch().line().random_vector(dim, &mut rng);
        enroll_client.enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng)?)?;
        bios.push(bio);
    }
    drop(enroll_client);

    // ---- 2. concurrent logins ----------------------------------------
    let clients = 4usize;
    let logins_per_client = 4usize;
    println!("login storm: {clients} connections × {logins_per_client} logins…");
    std::thread::scope(|scope| {
        for c in 0..clients {
            let device = device.clone();
            let params = params.clone();
            let bios = &bios;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(2000 + c as u64);
                let mut client = Client::connect(addr, &params).expect("connect");
                for l in 0..logins_per_client {
                    let u = (c * logins_per_client + l) % bios.len();
                    let reading: Vec<i64> = bios[u]
                        .iter()
                        .map(|&x| x + rng.gen_range(-80i64..=80))
                        .collect();
                    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                    let chal = client.identify(probe).unwrap();
                    let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                    let outcome = client.finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                }
                // An impostor on the same connection: a typed NO_MATCH
                // response, not a dropped connection.
                let stranger = params.sketch().line().random_vector(dim, &mut rng);
                let probe = device.probe_sketch(&stranger, &mut rng).unwrap();
                match client.identify(probe) {
                    Err(NetError::Remote(e)) if e.code == ErrorCode::NoMatch => {}
                    other => panic!("expected NO_MATCH, got {other:?}"),
                }
            });
        }
    });
    println!(
        "  {} logins verified over {} connections",
        clients * logins_per_client,
        clients
    );

    // ---- 3. parameter mismatch fails fast at the handshake ------------
    // Same sketch, same DSA group — but a different extracted key
    // length changes the fingerprint, and that is enough to refuse.
    let other_params = SystemParams::new(
        fuzzy_id::core::ChebyshevSketch::paper_defaults(),
        16,
        fuzzy_id::crypto::dsa::DsaParams::insecure_512().clone(),
    );
    match Client::connect(addr, &other_params) {
        Err(NetError::FingerprintMismatch { ours, theirs }) => {
            println!("mismatched client refused at handshake: ours {ours:?} ≠ server {theirs:?}");
        }
        other => panic!("expected a fingerprint rejection, got {other:?}"),
    }

    // ---- 4. overload storms shed on the wire --------------------------
    // A second front door over a 2-slot admission queue with a long
    // batch window; a pipelined burst must mostly shed — every shed an
    // OVERLOADED *response* on a connection that stays up.
    println!("backpressure: pipelining 16 requests into a 2-slot queue…");
    let tiny = Arc::new(ScheduledServer::scan(
        params.clone(),
        1,
        SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(1500),
            queue_capacity: 2,
            workers: 1,
            ..SchedulerConfig::default()
        },
    ));
    tiny.server()
        .enroll(device.enroll("lone-user", &bios[0], &mut rng)?)?;
    let tiny_door = NetServer::spawn(Arc::clone(&tiny), "127.0.0.1:0", NetConfig::default())?;

    let probe = device.probe_sketch(&bios[0], &mut rng)?;
    let mut stream = TcpStream::connect(tiny_door.local_addr())?;
    client_handshake(&mut stream, &params.fingerprint(), DEFAULT_MAX_FRAME)?;
    let mut read_half = stream.try_clone()?;
    let burst = 16u64;
    for id in 0..burst {
        let req = envelope::encode_request(
            id,
            &Message::Identify {
                probe: probe.clone(),
            },
        );
        write_frame(&mut stream, &req, DEFAULT_MAX_FRAME)?;
    }
    let (mut served, mut shed) = (0u64, 0u64);
    for expect in 0..burst {
        let payload = read_frame(&mut read_half, DEFAULT_MAX_FRAME)?;
        let (id, response) = envelope::decode_response(&payload)?;
        assert_eq!(id, expect, "responses arrive in request order");
        match response {
            Ok(_) => served += 1,
            Err(e) if e.code == ErrorCode::Overloaded => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(served + shed, burst);
    assert!(shed > 0, "a 2-slot queue must shed under a 16-deep burst");
    println!("  {served} served, {shed} shed as wire-level OVERLOADED; connection survived");
    assert_eq!(tiny_door.metrics().shed(), shed);

    // ---- 5. telemetry + clean shutdown --------------------------------
    let m = server.metrics();
    println!("front door telemetry:");
    println!(
        "  {} connections accepted ({} active), {} requests, {} ok / {} err responses",
        m.accepted(),
        m.active(),
        m.requests(),
        m.responses_ok(),
        m.responses_err()
    );
    println!(
        "  sheds {}, handshake rejections {}, idle closes {}, fatal frames {}",
        m.shed(),
        m.handshake_failures(),
        m.idle_closed(),
        m.fatal_frames()
    );
    tiny_door.shutdown();
    server.shutdown();
    println!("networked login demo: OK");
    Ok(())
}
