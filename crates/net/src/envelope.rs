//! Request and response envelopes: what rides inside a transport frame
//! after the handshake.
//!
//! ```text
//! request:   u64 BE request id | fe-protocol wire message ("FEID"…)
//! response:  u64 BE request id | u8 status | body
//!   status 0 (OK): body = u8 kind | kind-specific payload
//!     kind 0 EMPTY     —
//!     kind 1 CHALLENGE wire Message::Challenge bytes
//!     kind 2 OUTCOME   wire Message::Outcome bytes
//!     kind 3 USER_ID   u32 BE len | UTF-8 bytes
//!     kind 4 FLAG      u8 (0 | 1)
//!     kind 5 BATCH     u32 BE count | count × item
//!       item: u8 status | u32 BE len | payload
//!         status 0: payload = wire Message::Challenge bytes
//!         else:     payload = UTF-8 error detail (status = error code)
//!   status ≠ 0 (error): status is an [`ErrorCode`];
//!     body = u32 BE len | UTF-8 detail
//! ```
//!
//! Request ids are chosen by the client (monotonic per connection) and
//! echoed verbatim; the server answers every request **in arrival
//! order**, so ids exist to let a pipelining client pair responses with
//! requests, not to allow reordering. The request body *is* a
//! [`fe_protocol::wire`] message — the front door adds no second
//! payload format.
//!
//! Decoding distinguishes two failure severities: an envelope too short
//! to carry a request id is connection-fatal ([`NetError::BadFrame`] —
//! there is nothing to address an error response to), while a malformed
//! *message* behind a valid id is returned as data so the server can
//! answer with [`ErrorCode::Malformed`] and keep the connection.

use crate::error::{ErrorCode, NetError, WireError};
use fe_core::codec::{CodecError, Reader, Writer};
use fe_protocol::wire::{self, Message};
use fe_protocol::{IdentChallenge, IdentOutcome, ProtocolError, UserId};

const KIND_EMPTY: u8 = 0;
const KIND_CHALLENGE: u8 = 1;
const KIND_OUTCOME: u8 = 2;
const KIND_USER_ID: u8 = 3;
const KIND_FLAG: u8 = 4;
const KIND_BATCH: u8 = 5;

/// The success payload of a response, self-describing via its kind
/// byte. Which kind answers which request is part of the wire contract
/// (`PROTOCOL.md` § *Operations*).
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Acknowledgement with no data (enroll, enroll-unique, revoke).
    Empty,
    /// An identification challenge (identify).
    Challenge(IdentChallenge),
    /// A final identification outcome (finish/respond).
    Outcome(IdentOutcome),
    /// A matched user id (reset).
    UserId(UserId),
    /// A yes/no verdict (authenticate-claimed, check-local-uniqueness).
    Flag(bool),
    /// Per-probe results of a batched identify, position-aligned.
    Batch(Vec<Result<IdentChallenge, WireError>>),
}

/// A decoded response: the success body or the peer-reported error.
pub type Response = Result<ResponseBody, WireError>;

/// Writes a request envelope where the caller's buffer will hold it.
pub(crate) fn put_request(w: &mut Writer, id: u64, msg: &Message) {
    w.put_u64(id);
    wire::put_message(w, msg);
}

/// Encodes a request envelope.
pub fn encode_request(id: u64, msg: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    put_request(&mut w, id, msg);
    w.into_bytes()
}

/// Everything up to the end of the payload: an embedded wire message
/// carries no length of its own, the frame around the envelope ends it.
fn rest<'a>(r: &mut Reader<'a>) -> &'a [u8] {
    r.get_raw(r.remaining()).expect("the bytes that remain")
}

/// Decodes a request envelope into its id and message.
///
/// # Errors
/// [`NetError::BadFrame`] when the envelope cannot even carry an id
/// (connection-fatal). A malformed message behind a valid id comes back
/// as `Ok((id, Err(_)))` so the caller can respond with
/// [`ErrorCode::Malformed`].
pub fn decode_request(payload: &[u8]) -> Result<(u64, Result<Message, ProtocolError>), NetError> {
    let mut r = Reader::new(payload);
    let id = r
        .get_u64()
        .map_err(|_| NetError::BadFrame("request envelope too short for an id"))?;
    Ok((id, wire::decode(rest(&mut r))))
}

fn put_error(w: &mut Writer, err: &WireError) {
    w.put_u8(err.code.as_u8());
    w.put_str(&err.detail);
}

/// Writes a response envelope where the caller's buffer will hold it.
/// Challenges and outcomes go in borrowed, through the arms
/// [`wire::encode`] uses.
pub(crate) fn put_response(w: &mut Writer, id: u64, response: &Response) {
    w.put_u64(id);
    let body = match response {
        Ok(body) => body,
        Err(e) => return put_error(w, e),
    };
    w.put_u8(0);
    match body {
        ResponseBody::Empty => w.put_u8(KIND_EMPTY),
        ResponseBody::Challenge(c) => {
            w.put_u8(KIND_CHALLENGE);
            wire::put_challenge(w, c);
        }
        ResponseBody::Outcome(o) => {
            w.put_u8(KIND_OUTCOME);
            wire::put_outcome(w, o);
        }
        ResponseBody::UserId(id) => {
            w.put_u8(KIND_USER_ID);
            w.put_str(id);
        }
        ResponseBody::Flag(v) => {
            w.put_u8(KIND_FLAG);
            w.put_u8(u8::from(*v));
        }
        ResponseBody::Batch(items) => {
            w.put_u8(KIND_BATCH);
            w.put_u32(items.len() as u32);
            // An item's length goes ahead of its challenge, so each is
            // encoded aside (one buffer for the batch) and copied in.
            let mut challenge = Writer::new();
            for item in items {
                match item {
                    Ok(c) => {
                        w.put_u8(0);
                        challenge.clear();
                        wire::put_challenge(&mut challenge, c);
                        w.put_bytes(challenge.as_slice());
                    }
                    Err(e) => put_error(w, e),
                }
            }
        }
    }
}

/// Encodes a response envelope.
pub fn encode_response(id: u64, response: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    put_response(&mut w, id, response);
    w.into_bytes()
}

/// A read the response envelope could not satisfy, as the fatal framing
/// error it is.
fn bad_frame(e: CodecError) -> NetError {
    NetError::BadFrame(match e {
        CodecError::TrailingBytes => "trailing bytes in response envelope",
        CodecError::Malformed(_) => "response string not utf-8",
        _ => "truncated response envelope",
    })
}

fn get_challenge(bytes: &[u8]) -> Result<IdentChallenge, NetError> {
    match wire::decode(bytes)? {
        Message::Challenge(c) => Ok(c),
        _ => Err(NetError::UnexpectedResponse("challenge payload expected")),
    }
}

fn get_error(r: &mut Reader<'_>, status: u8) -> Result<WireError, NetError> {
    let code = ErrorCode::from_u8(status).ok_or(NetError::BadFrame("unknown error code"))?;
    let detail = r.get_str().map_err(bad_frame)?;
    Ok(WireError { code, detail })
}

fn get_body(r: &mut Reader<'_>) -> Result<ResponseBody, NetError> {
    Ok(match r.get_u8().map_err(bad_frame)? {
        KIND_EMPTY => ResponseBody::Empty,
        KIND_CHALLENGE => ResponseBody::Challenge(get_challenge(rest(r))?),
        KIND_OUTCOME => match wire::decode(rest(r))? {
            Message::Outcome(o) => ResponseBody::Outcome(o),
            _ => return Err(NetError::UnexpectedResponse("outcome payload expected")),
        },
        KIND_USER_ID => ResponseBody::UserId(r.get_str().map_err(bad_frame)?),
        KIND_FLAG => match r.get_u8().map_err(bad_frame)? {
            0 => ResponseBody::Flag(false),
            1 => ResponseBody::Flag(true),
            _ => return Err(NetError::BadFrame("bad flag byte")),
        },
        KIND_BATCH => {
            let count = r.get_u32().map_err(bad_frame)? as usize;
            // Prealloc capped by the bytes actually present (5 bytes is
            // the smallest possible item).
            let mut items = Vec::with_capacity(count.min(r.remaining() / 5));
            for _ in 0..count {
                let status = r.get_u8().map_err(bad_frame)?;
                items.push(if status == 0 {
                    let len = r.get_u32().map_err(bad_frame)? as usize;
                    Ok(get_challenge(r.get_raw(len).map_err(bad_frame)?)?)
                } else {
                    Err(get_error(r, status)?)
                });
            }
            ResponseBody::Batch(items)
        }
        _ => return Err(NetError::BadFrame("unknown response kind")),
    })
}

/// Decodes a response envelope into its id and [`Response`].
///
/// # Errors
/// [`NetError::BadFrame`] on any structural violation (all reads are
/// bounds-checked; trailing bytes are rejected);
/// [`NetError::Protocol`] when an embedded wire message fails to
/// decode.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), NetError> {
    let mut r = Reader::new(payload);
    let id = r.get_u64().map_err(bad_frame)?;
    let response = match r.get_u8().map_err(bad_frame)? {
        0 => Ok(get_body(&mut r)?),
        status => Err(get_error(&mut r, status)?),
    };
    r.expect_end().map_err(bad_frame)?;
    Ok((id, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_protocol::{BiometricDevice, SystemParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_challenge() -> IdentChallenge {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let bio = params.sketch().line().random_vector(16, &mut rng);
        let record = device.enroll("envelope-user", &bio, &mut rng).unwrap();
        IdentChallenge {
            session: 42,
            helper: record.helper,
            challenge: 7,
        }
    }

    #[test]
    fn request_roundtrip() {
        let msg = Message::Identify {
            probe: vec![1, -5, 300],
        };
        let (id, got) = decode_request(&encode_request(77, &msg)).unwrap();
        assert_eq!(id, 77);
        assert_eq!(got.unwrap(), msg);
    }

    #[test]
    fn short_request_envelope_is_fatal() {
        for len in 0..8 {
            assert!(matches!(
                decode_request(&vec![0u8; len]).unwrap_err(),
                NetError::BadFrame(_)
            ));
        }
    }

    #[test]
    fn malformed_message_behind_valid_id_is_answerable() {
        let mut payload = 9u64.to_be_bytes().to_vec();
        payload.extend_from_slice(b"not a wire message");
        let (id, msg) = decode_request(&payload).unwrap();
        assert_eq!(id, 9);
        assert!(msg.is_err());
    }

    #[test]
    fn every_response_body_roundtrips() {
        let chal = sample_challenge();
        let bodies = vec![
            ResponseBody::Empty,
            ResponseBody::Challenge(chal.clone()),
            ResponseBody::Outcome(IdentOutcome::Identified("alice".into())),
            ResponseBody::Outcome(IdentOutcome::Rejected),
            ResponseBody::UserId("reset-winner".into()),
            ResponseBody::Flag(true),
            ResponseBody::Flag(false),
            ResponseBody::Batch(vec![
                Ok(chal.clone()),
                Err(WireError {
                    code: ErrorCode::NoMatch,
                    detail: "no enrolled record".into(),
                }),
                Err(WireError {
                    code: ErrorCode::Overloaded,
                    detail: String::new(),
                }),
            ]),
            ResponseBody::Batch(Vec::new()),
        ];
        for body in bodies {
            let response: Response = Ok(body);
            let bytes = encode_response(123_456, &response);
            let (id, got) = decode_response(&bytes).unwrap();
            assert_eq!(id, 123_456);
            assert_eq!(got, response);
        }
    }

    #[test]
    fn error_response_roundtrips() {
        let response: Response = Err(WireError {
            code: ErrorCode::Overloaded,
            detail: "server overloaded: identification request shed".into(),
        });
        let bytes = encode_response(u64::MAX, &response);
        let (id, got) = decode_response(&bytes).unwrap();
        assert_eq!(id, u64::MAX);
        assert_eq!(got, response);
    }

    #[test]
    fn truncated_responses_fail_cleanly() {
        let chal = sample_challenge();
        for response in [
            Ok(ResponseBody::Batch(vec![Ok(chal)])),
            Ok(ResponseBody::UserId("u".into())),
            Err(WireError {
                code: ErrorCode::NoMatch,
                detail: "d".into(),
            }),
        ] {
            let bytes = encode_response(1, &response);
            for cut in 0..bytes.len() {
                assert!(
                    decode_response(&bytes[..cut]).is_err(),
                    "prefix {cut} accepted"
                );
                assert!(matches!(
                    decode_response(&bytes[..cut]),
                    Err(NetError::BadFrame(_) | NetError::Protocol(ProtocolError::Malformed(_)))
                ));
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_response(1, &Ok(ResponseBody::Empty));
        bytes.push(0);
        assert!(matches!(
            decode_response(&bytes).unwrap_err(),
            NetError::BadFrame("trailing bytes in response envelope")
        ));
    }

    #[test]
    fn unknown_codes_and_kinds_rejected() {
        // Unknown error code.
        let mut bytes = 1u64.to_be_bytes().to_vec();
        bytes.push(200); // not a registered code
        bytes.extend_from_slice(&0u32.to_be_bytes());
        assert!(decode_response(&bytes).is_err());
        // Unknown OK kind.
        let mut bytes = 1u64.to_be_bytes().to_vec();
        bytes.push(0);
        bytes.push(99);
        assert!(decode_response(&bytes).is_err());
    }
}
