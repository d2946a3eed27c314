//! Full protocol run over the binary wire codec: every message crosses
//! an encode → decode boundary, as it does between a deployed client
//! and server (`tests/net_front_door.rs` adds the sockets).

use fuzzy_id::protocol::wire::{decode, encode, Message};
use fuzzy_id::protocol::{AuthenticationServer, BiometricDevice, IdentOutcome, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn end_to_end_over_wire() {
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x31_7e);

    // --- Enrollment over the wire ---
    let bio = params.sketch().line().random_vector(300, &mut rng);
    let record = device.enroll("alice", &bio, &mut rng).unwrap();
    let bytes = encode(&Message::Enroll(record));
    match decode(&bytes).unwrap() {
        Message::Enroll(r) => server.enroll(r).unwrap(),
        other => panic!("expected Enroll, got {other:?}"),
    }
    assert_eq!(server.user_count(), 1);

    // --- Identification over the wire ---
    let reading: Vec<i64> = bio
        .iter()
        .map(|&x| x + rng.gen_range(-80i64..=80))
        .collect();
    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
    // (probe travels as part of an outer request in a real deployment;
    // here the server consumes it directly)
    let challenge = server.begin_identification(&probe, &mut rng).unwrap();
    let bytes = encode(&Message::Challenge(challenge));
    let challenge = match decode(&bytes).unwrap() {
        Message::Challenge(c) => c,
        other => panic!("expected Challenge, got {other:?}"),
    };
    let response = device.respond(&reading, &challenge, &mut rng).unwrap();
    let bytes = encode(&Message::Response(response));
    let response = match decode(&bytes).unwrap() {
        Message::Response(r) => r,
        other => panic!("expected Response, got {other:?}"),
    };
    let outcome = server.finish_identification(&response).unwrap();
    assert_eq!(outcome.identity(), Some("alice"));

    // --- Outcome notification back to the device ---
    let bytes = encode(&Message::Outcome(outcome));
    assert!(matches!(
        decode(&bytes).unwrap(),
        Message::Outcome(IdentOutcome::Identified(id)) if id == "alice"
    ));
}

#[test]
fn bitflips_on_the_wire_never_panic_and_never_authenticate() {
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x31_7f);

    let bio = params.sketch().line().random_vector(200, &mut rng);
    server
        .enroll(device.enroll("bob", &bio, &mut rng).unwrap())
        .unwrap();

    let reading: Vec<i64> = bio.iter().map(|&x| x + 40).collect();
    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
    let challenge = server.begin_identification(&probe, &mut rng).unwrap();
    let response = device.respond(&reading, &challenge, &mut rng).unwrap();
    let good_bytes = encode(&Message::Response(response));

    // Flip every byte position in turn; the server must never identify a
    // user from a corrupted response (and must never panic).
    let mut identified = 0;
    for i in 0..good_bytes.len() {
        let mut bad = good_bytes.clone();
        bad[i] ^= 0x40;
        match decode(&bad) {
            Err(_) => {} // framing caught it
            Ok(Message::Response(r)) => {
                // Same session id? The signature check must fail (the
                // session is consumed on first use, so re-issue first).
                if let Ok(IdentOutcome::Identified(_)) = server.finish_identification(&r) {
                    identified += 1
                }
            }
            Ok(_) => {} // decoded as another message type: ignored
        }
    }
    // The *original* response consumed the session only if some mutant
    // reused it first; either way no corrupted message may authenticate.
    assert_eq!(identified, 0, "a corrupted response authenticated");
}

#[test]
fn adversarial_byte_tampering_on_link() {
    // A MITM flipping bits inside the *encoded* challenge must be caught
    // by framing or by the robust sketch on the device.
    let params = SystemParams::insecure_test_defaults();
    let device = BiometricDevice::new(params.clone());
    let mut server = AuthenticationServer::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x31_80);

    let bio = params.sketch().line().random_vector(200, &mut rng);
    server
        .enroll(device.enroll("carol", &bio, &mut rng).unwrap())
        .unwrap();
    let reading: Vec<i64> = bio.iter().map(|&x| x - 33).collect();
    let probe = device.probe_sketch(&reading, &mut rng).unwrap();

    let evil = |mut bytes: Vec<u8>| {
        // Flip a byte in the middle of the helper data payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        bytes
    };
    let challenge = server.begin_identification(&probe, &mut rng).unwrap();
    let bytes = evil(encode(&Message::Challenge(challenge)));
    match decode(&bytes) {
        Err(_) => {} // framing rejected
        Ok(Message::Challenge(c)) => {
            // Robust sketch must reject on the device.
            assert!(device.respond(&reading, &c, &mut rng).is_err());
        }
        Ok(other) => panic!("unexpected message {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Golden vectors: one pinned encoding of every message tag, response
// kind and handshake payload. PROTOCOL.md is the prose; these are the
// bytes. A change here is a wire-format change and needs a version bump.
// ---------------------------------------------------------------------

mod golden {
    use fuzzy_id::core::codec::Fingerprint;
    use fuzzy_id::core::{HelperData, RobustData};
    use fuzzy_id::net::envelope::{
        decode_request, decode_response, encode_request, encode_response, Response, ResponseBody,
    };
    use fuzzy_id::net::handshake::{
        decode_hello, decode_reply, encode_hello, encode_reply, HandshakeStatus, NET_VERSION,
    };
    use fuzzy_id::net::{ErrorCode, WireError};
    use fuzzy_id::protocol::wire::{decode, encode, Message};
    use fuzzy_id::protocol::{
        EnrollmentRecord, IdentChallenge, IdentOutcome, IdentResponse, WireHelper,
    };

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn helper() -> WireHelper {
        HelperData {
            sketch: RobustData {
                inner: vec![-200, 137, 0],
                tag: vec![0xaa; 4],
            },
            seed: vec![1, 2, 3],
        }
    }

    fn empty_helper() -> WireHelper {
        HelperData {
            sketch: RobustData {
                inner: Vec::new(),
                tag: Vec::new(),
            },
            seed: Vec::new(),
        }
    }

    fn challenge() -> IdentChallenge {
        IdentChallenge {
            session: 77,
            helper: helper(),
            challenge: u64::MAX,
        }
    }

    /// Every message tag 0–10, in tag order.
    fn messages() -> Vec<(Message, &'static str)> {
        vec![
            (
                Message::Identify {
                    probe: vec![1, -2, 300],
                },
                "4645494400000100000003\
                 0000000000000001fffffffffffffffe000000000000012c",
            ),
            (
                Message::Identify { probe: Vec::new() },
                "4645494400000100000000",
            ),
            (
                Message::Enroll(EnrollmentRecord {
                    id: "alice".into(),
                    public_key: vec![9, 8, 7],
                    helper: helper(),
                }),
                "4645494401000100000005616c6963650000000309080700000003ffffffffff\
                 ffff380000000000000089000000000000000000000004aaaaaaaa0000000301\
                 0203",
            ),
            (
                Message::Challenge(challenge()),
                "46454944020001000000000000004dffffffffffffffff00000003ffffffffff\
                 ffff380000000000000089000000000000000000000004aaaaaaaa0000000301\
                 0203",
            ),
            (
                Message::Response(IdentResponse {
                    session: 3,
                    signature: vec![0xde, 0xad],
                    nonce: 5,
                }),
                "464549440300010000000000000003000000000000000500000002dead",
            ),
            (
                Message::Outcome(IdentOutcome::Identified("alice".into())),
                "464549440400010100000005616c696365",
            ),
            (Message::Outcome(IdentOutcome::Rejected), "4645494404000100"),
            (
                Message::EnrollUnique(EnrollmentRecord {
                    id: String::new(),
                    public_key: Vec::new(),
                    helper: empty_helper(),
                }),
                "464549440500010000000000000000000000000000000000000000",
            ),
            (
                Message::Reset {
                    probe: vec![i64::MIN, 0],
                },
                "464549440600010000000280000000000000000000000000000000",
            ),
            (
                Message::AuthenticateClaimed {
                    id: "bob".into(),
                    probe: vec![7],
                },
                "4645494407000100000003626f62000000010000000000000007",
            ),
            (
                Message::CheckLocalUniqueness {
                    probe: vec![5],
                    ids: vec!["a".into(), String::new(), "c".into()],
                },
                "4645494408000100000001000000000000000500000003000000016100000000\
                 0000000163",
            ),
            (
                Message::CheckLocalUniqueness {
                    probe: Vec::new(),
                    ids: Vec::new(),
                },
                "464549440800010000000000000000",
            ),
            (
                Message::Revoke {
                    id: "user-7".into(),
                },
                "4645494409000100000006757365722d37",
            ),
            (
                Message::IdentifyBatch {
                    probes: vec![vec![1, 2], Vec::new(), vec![3]],
                },
                "464549440a000100000003000000020000000000000001000000000000000200\
                 000000000000010000000000000003",
            ),
            (
                Message::IdentifyBatch { probes: Vec::new() },
                "464549440a000100000000",
            ),
        ]
    }

    /// Every response kind 0–5 and an error envelope, under one id.
    fn responses() -> Vec<(Response, &'static str)> {
        let no_match = WireError {
            code: ErrorCode::NoMatch,
            detail: "no enrolled record".into(),
        };
        vec![
            (Ok(ResponseBody::Empty), "01020304050607080000"),
            (
                Ok(ResponseBody::Challenge(challenge())),
                "0102030405060708000146454944020001000000000000004dffffffffffffff\
                 ff00000003ffffffffffffff3800000000000000890000000000000000000000\
                 04aaaaaaaa00000003010203",
            ),
            (
                Ok(ResponseBody::Outcome(IdentOutcome::Identified(
                    "alice".into(),
                ))),
                "01020304050607080002464549440400010100000005616c696365",
            ),
            (
                Ok(ResponseBody::Outcome(IdentOutcome::Rejected)),
                "010203040506070800024645494404000100",
            ),
            (
                Ok(ResponseBody::UserId("reset-winner".into())),
                "010203040506070800030000000c72657365742d77696e6e6572",
            ),
            (Ok(ResponseBody::Flag(true)), "0102030405060708000401"),
            (Ok(ResponseBody::Flag(false)), "0102030405060708000400"),
            (
                Ok(ResponseBody::Batch(vec![
                    Ok(challenge()),
                    Err(no_match.clone()),
                ])),
                "0102030405060708000500000002000000004246454944020001000000000000\
                 004dffffffffffffffff00000003ffffffffffffff3800000000000000890000\
                 00000000000000000004aaaaaaaa0000000301020301000000126e6f20656e72\
                 6f6c6c6564207265636f7264",
            ),
            (
                Ok(ResponseBody::Batch(Vec::new())),
                "0102030405060708000500000000",
            ),
            (
                Err(WireError {
                    code: ErrorCode::Overloaded,
                    detail: String::new(),
                }),
                "01020304050607080c00000000",
            ),
            (
                Err(no_match),
                "010203040506070801000000126e6f20656e726f6c6c6564207265636f7264",
            ),
        ]
    }

    const ID: u64 = 0x0102_0304_0506_0708;

    #[test]
    fn every_message_tag_encodes_to_its_pinned_bytes() {
        let mut wrong = Vec::new();
        for (msg, pinned) in messages() {
            let bytes = encode(&msg);
            if hex(&bytes) != pinned {
                wrong.push(format!("{msg:?}\n    {}", hex(&bytes)));
            }
            assert_eq!(decode(&bytes).unwrap(), msg);
        }
        assert!(wrong.is_empty(), "wire bytes moved:\n{}", wrong.join("\n"));
    }

    #[test]
    fn request_and_response_envelopes_encode_to_their_pinned_bytes() {
        let revoke = Message::Revoke {
            id: "user-7".into(),
        };
        let request = encode_request(7, &revoke);
        assert_eq!(
            hex(&request),
            "00000000000000074645494409000100000006757365722d37"
        );
        let (id, got) = decode_request(&request).unwrap();
        assert_eq!((id, got.unwrap()), (7, revoke));

        let mut wrong = Vec::new();
        for (response, pinned) in responses() {
            let bytes = encode_response(ID, &response);
            if hex(&bytes) != pinned {
                wrong.push(format!("{response:?}\n    {}", hex(&bytes)));
            }
            assert_eq!(decode_response(&bytes).unwrap(), (ID, response));
        }
        assert!(
            wrong.is_empty(),
            "envelope bytes moved:\n{}",
            wrong.join("\n")
        );
    }

    #[test]
    fn handshake_payloads_encode_to_their_pinned_bytes() {
        let fp = Fingerprint([0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
        let hello = encode_hello(&fp);
        assert_eq!(hex(&hello), "46454e4800011122334455667788");
        assert_eq!(decode_hello(&hello).unwrap(), (NET_VERSION, fp));
        for (status, pinned) in [
            (HandshakeStatus::Accepted, "46454e480001001122334455667788"),
            (
                HandshakeStatus::VersionMismatch,
                "46454e480001011122334455667788",
            ),
            (
                HandshakeStatus::FingerprintMismatch,
                "46454e480001021122334455667788",
            ),
        ] {
            let reply = encode_reply(status, &fp);
            assert_eq!(hex(&reply), pinned, "{status:?}");
            assert_eq!(decode_reply(&reply).unwrap(), (NET_VERSION, status, fp));
        }
    }

    /// The public key an `Enroll` carries is `g^x` for the `x` derived from
    /// `Gen`'s `R`: both are deterministic in a seeded RNG, so one record's
    /// key pins the whole device-side chain at the paper's 1024-bit DSA.
    #[test]
    fn an_enrolled_public_key_is_pinned() {
        use fuzzy_id::protocol::{BiometricDevice, SystemParams};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = SystemParams::paper_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(27);
        let bio = params.sketch().line().random_vector(64, &mut rng);
        let record = device.enroll("golden", &bio, &mut rng).unwrap();
        assert_eq!(
            hex(&record.public_key),
            "44ef0b7515e2fe2c0f81849f51f999470aafb522629a60be5ea0022fb17c5d5e\
             229e22e279e1d8670a1e6de21b397e3851ece15c1f6d5e8f8cc2937c9b5b358b\
             02f24d540292ffa80ac2b48f1c66a38f23b96138544a3a6de1f132d06fa2f20e\
             481b295b9d694e15ea8a88bb0cc0e90d8da7f7e825ff1bc80701b54e91d3c1a0"
        );
    }

    /// The helper data of the same enrollment: `Gen`'s sketch codes (each
    /// an `i16`, big-endian), its robust tag and its extractor seed. A
    /// change to any of them moves every stored record.
    #[test]
    fn an_enrolled_helper_is_pinned() {
        use fuzzy_id::protocol::{BiometricDevice, SystemParams};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = SystemParams::paper_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(27);
        let bio = params.sketch().line().random_vector(64, &mut rng);
        let helper = device.enroll("golden", &bio, &mut rng).unwrap().helper;
        let codes: Vec<u8> = helper
            .sketch
            .inner
            .iter()
            .flat_map(|&c| i16::try_from(c).unwrap().to_be_bytes())
            .collect();
        assert_eq!(
            hex(&codes),
            "006fff7b0076ffb3ffa2000fff96ffbaffa0ffba006bff7cffb40071ff97001f\
             ff55ff75ff92ffa2ffe6007d0090009eff78ff470071ff7cffde0014ff4f0091\
             ff8a00690041ff42ffafff7b00750048ff4fff55008000a2ffc7ff5a0023ff49\
             006800a6ffd9fffdff62007e00b6004a000affbdff79ff70ff93ff95ffd5003e"
        );
        assert_eq!(
            hex(&helper.sketch.tag),
            "4a9b32699b507f11fc37661f80cad22a3277cc09aa457d821d6710e7f674553d"
        );
        assert_eq!(
            hex(&helper.seed),
            "a9ae4ca4438d45ab05262c038e595dd2925b8e17807082d3b46ef65b834a84a8"
        );
    }
}
