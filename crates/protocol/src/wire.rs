//! Binary wire codec for the protocol messages — the payload layer of
//! the networked front door.
//!
//! A compact, self-describing encoding: every message starts with a
//! 4-byte magic (`FEID`) + 1-byte message tag + 2-byte version,
//! followed by big-endian, length-prefixed fields — written and read
//! with [`fe_core::codec`]'s [`Writer`] and [`Reader`], the cursor the
//! journal and the snapshot use. An enrollment record in an `Enroll`
//! message is the version-1 record row ([`store::put_row`] at
//! [`Version::V1`]): what a journal or a snapshot held before disk
//! format version 2 packed its sketch, kept byte for byte here.
//!
//! # Message tags
//!
//! | tag | message | direction |
//! |----:|---------|-----------|
//! | 0 | [`Message::Identify`] | request |
//! | 1 | [`Message::Enroll`] | request |
//! | 2 | [`Message::Challenge`] | response |
//! | 3 | [`Message::Response`] | request |
//! | 4 | [`Message::Outcome`] | response |
//! | 5 | [`Message::EnrollUnique`] | request |
//! | 6 | [`Message::Reset`] | request |
//! | 7 | [`Message::AuthenticateClaimed`] | request |
//! | 8 | [`Message::CheckLocalUniqueness`] | request |
//! | 9 | [`Message::Revoke`] | request |
//! | 10 | [`Message::IdentifyBatch`] | request |
//!
//! "Direction" is a *convention of the TCP front door* (`fe-net`), not
//! a property of the codec: [`encode`]/[`decode`] round-trip every
//! variant. The normative byte-level specification — including how
//! these messages ride inside CRC-framed transport frames, the
//! handshake, and the response envelope — lives in `PROTOCOL.md` at the
//! repository root; this module is its reference implementation for the
//! message payload layer.
//!
//! # Robustness contract
//!
//! [`decode`] never panics and never over-allocates from attacker-
//! controlled length fields: every length is validated against the
//! bytes actually remaining before use, vector preallocations are
//! capped by what the buffer could possibly hold, truncated input at
//! *any* byte offset yields [`ProtocolError::Malformed`], and trailing
//! garbage is rejected. The tests exercise every proper prefix of every
//! message kind plus random fuzz buffers.
//!
//! ```rust
//! use fe_protocol::wire::{decode, encode, Message};
//!
//! let msg = Message::Identify { probe: vec![1, -2, 300] };
//! let bytes = encode(&msg);
//! assert_eq!(decode(&bytes).unwrap(), msg);
//! // Truncation fails cleanly instead of panicking.
//! assert!(decode(&bytes[..bytes.len() - 1]).is_err());
//! ```

use crate::messages::{EnrollmentRecord, IdentChallenge, IdentOutcome, IdentResponse, UserId};
use crate::store::{self, SnapshotRow};
use crate::ProtocolError;
use fe_core::codec::{self, CodecError, Reader, Version, Writer};

const MAGIC: &[u8; 4] = b"FEID";
const VERSION: u16 = 1;

const TAG_IDENTIFY: u8 = 0;
const TAG_ENROLL: u8 = 1;
const TAG_CHALLENGE: u8 = 2;
const TAG_RESPONSE: u8 = 3;
const TAG_OUTCOME: u8 = 4;
const TAG_ENROLL_UNIQUE: u8 = 5;
const TAG_RESET: u8 = 6;
const TAG_AUTH_CLAIMED: u8 = 7;
const TAG_LOCAL_UNIQUE: u8 = 8;
const TAG_REVOKE: u8 = 9;
const TAG_IDENTIFY_BATCH: u8 = 10;

/// Any protocol message, for tag-dispatched decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Identification phase-1 request: find the enrolled record matching
    /// `probe` and open a challenge session
    /// ([`begin_identification`](crate::AuthenticationServer::begin_identification)).
    /// Answered with a [`Message::Challenge`].
    Identify {
        /// The probe sketch.
        probe: Vec<i64>,
    },
    /// Enrollment record (Fig. 1).
    Enroll(EnrollmentRecord),
    /// Identification challenge (Fig. 3).
    Challenge(IdentChallenge),
    /// Identification response (Fig. 3).
    Response(IdentResponse),
    /// Final outcome notification.
    Outcome(IdentOutcome),
    /// Uniqueness-checked enrollment request (same payload as
    /// [`Message::Enroll`]; the server runs
    /// [`enroll_unique`](crate::AuthenticationServer::enroll_unique)).
    EnrollUnique(EnrollmentRecord),
    /// Reset / account-recovery request: succeed only when exactly one
    /// record matches the probe sketch
    /// ([`reset`](crate::AuthenticationServer::reset)).
    Reset {
        /// The probe sketch.
        probe: Vec<i64>,
    },
    /// Targeted claimed-identity check
    /// ([`authenticate_claimed`](crate::AuthenticationServer::authenticate_claimed)).
    AuthenticateClaimed {
        /// The claimed user id.
        id: UserId,
        /// The probe sketch.
        probe: Vec<i64>,
    },
    /// Subset uniqueness check
    /// ([`check_local_uniqueness`](crate::AuthenticationServer::check_local_uniqueness)).
    CheckLocalUniqueness {
        /// The probe sketch.
        probe: Vec<i64>,
        /// The user subset to check against.
        ids: Vec<UserId>,
    },
    /// Revocation request: remove the enrollment under `id`
    /// ([`revoke`](crate::AuthenticationServer::revoke)).
    Revoke {
        /// The user id to revoke.
        id: UserId,
    },
    /// Batched identification phase 1: every probe resolved in one
    /// server-side pass
    /// ([`identify_batch`](crate::scheduler::ScheduledServer::identify_batch));
    /// answered per probe, position-aligned.
    IdentifyBatch {
        /// The probe sketches.
        probes: Vec<Vec<i64>>,
    },
}

fn put_header(w: &mut Writer, tag: u8) {
    w.put_raw(MAGIC);
    w.put_u8(tag);
    w.put_u16(VERSION);
}

/// Writes a [`Message::Challenge`] from a borrowed challenge — the arm
/// [`encode`] uses, for callers that hold the challenge and not a
/// [`Message`] (`fe-net`'s response envelope).
pub fn put_challenge(w: &mut Writer, c: &IdentChallenge) {
    put_header(w, TAG_CHALLENGE);
    w.put_u64(c.session);
    w.put_u64(c.challenge);
    codec::put_helper(w, &c.helper, Version::V1);
}

/// Writes a [`Message::Outcome`] from a borrowed outcome (see
/// [`put_challenge`]).
pub fn put_outcome(w: &mut Writer, o: &IdentOutcome) {
    put_header(w, TAG_OUTCOME);
    match o {
        IdentOutcome::Identified(id) => {
            w.put_u8(1);
            w.put_str(id);
        }
        IdentOutcome::Rejected => w.put_u8(0),
    }
}

/// Either enroll message: the header, then the version-1 record row.
fn put_enrollment(w: &mut Writer, tag: u8, row: &SnapshotRow<'_>) {
    put_header(w, tag);
    store::put_row(w, row, Version::V1);
}

/// Writes a message's wire representation where the caller's buffer
/// will hold it — inside a frame, say — instead of into a `Vec` of its
/// own.
pub fn put_message(w: &mut Writer, msg: &Message) {
    match msg {
        Message::Identify { probe } => {
            put_header(w, TAG_IDENTIFY);
            w.put_i64s(probe);
        }
        Message::Enroll(r) => put_enrollment(w, TAG_ENROLL, &SnapshotRow::of(r)),
        Message::Challenge(c) => put_challenge(w, c),
        Message::Response(r) => {
            put_header(w, TAG_RESPONSE);
            w.put_u64(r.session);
            w.put_u64(r.nonce);
            w.put_bytes(&r.signature);
        }
        Message::Outcome(o) => put_outcome(w, o),
        Message::EnrollUnique(r) => put_enrollment(w, TAG_ENROLL_UNIQUE, &SnapshotRow::of(r)),
        Message::Reset { probe } => {
            put_header(w, TAG_RESET);
            w.put_i64s(probe);
        }
        Message::AuthenticateClaimed { id, probe } => {
            put_header(w, TAG_AUTH_CLAIMED);
            w.put_str(id);
            w.put_i64s(probe);
        }
        Message::CheckLocalUniqueness { probe, ids } => {
            put_header(w, TAG_LOCAL_UNIQUE);
            w.put_i64s(probe);
            w.put_u32(ids.len() as u32);
            for id in ids {
                w.put_str(id);
            }
        }
        Message::Revoke { id } => {
            put_header(w, TAG_REVOKE);
            w.put_str(id);
        }
        Message::IdentifyBatch { probes } => {
            put_header(w, TAG_IDENTIFY_BATCH);
            w.put_u32(probes.len() as u32);
            for probe in probes {
                w.put_i64s(probe);
            }
        }
    }
}

/// Encodes a message to its wire representation.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    put_message(&mut w, msg);
    w.into_bytes()
}

/// A count-prefixed list. The preallocation is capped by what the bytes
/// left could hold (every item carries at least its own 4-byte length),
/// so a lying count cannot trigger a huge allocation.
fn get_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let count = r.get_u32()? as usize;
    let mut items = Vec::with_capacity(count.min(r.remaining() / 4));
    for _ in 0..count {
        items.push(item(r)?);
    }
    Ok(items)
}

fn get_message(r: &mut Reader<'_>) -> Result<Message, CodecError> {
    if r.get_raw(MAGIC.len())? != MAGIC {
        return Err(CodecError::Malformed("bad magic"));
    }
    let tag = r.get_u8()?;
    if r.get_u16()? != VERSION {
        return Err(CodecError::Malformed("unsupported version"));
    }
    let msg = match tag {
        TAG_IDENTIFY => Message::Identify {
            probe: r.get_i64s()?,
        },
        TAG_ENROLL => Message::Enroll(store::get_row(r, Version::V1)?),
        TAG_CHALLENGE => {
            let session = r.get_u64()?;
            let challenge = r.get_u64()?;
            let helper = codec::get_helper(r, Version::V1)?;
            Message::Challenge(IdentChallenge {
                session,
                helper,
                challenge,
            })
        }
        TAG_RESPONSE => {
            let session = r.get_u64()?;
            let nonce = r.get_u64()?;
            let signature = r.get_bytes()?;
            Message::Response(IdentResponse {
                session,
                signature,
                nonce,
            })
        }
        TAG_OUTCOME => Message::Outcome(match r.get_u8()? {
            1 => IdentOutcome::Identified(r.get_str()?),
            0 => IdentOutcome::Rejected,
            _ => return Err(CodecError::Malformed("bad outcome flag")),
        }),
        TAG_ENROLL_UNIQUE => Message::EnrollUnique(store::get_row(r, Version::V1)?),
        TAG_RESET => Message::Reset {
            probe: r.get_i64s()?,
        },
        TAG_AUTH_CLAIMED => Message::AuthenticateClaimed {
            id: r.get_str()?,
            probe: r.get_i64s()?,
        },
        TAG_LOCAL_UNIQUE => Message::CheckLocalUniqueness {
            probe: r.get_i64s()?,
            ids: get_list(r, Reader::get_str)?,
        },
        TAG_REVOKE => Message::Revoke { id: r.get_str()? },
        TAG_IDENTIFY_BATCH => Message::IdentifyBatch {
            probes: get_list(r, Reader::get_i64s)?,
        },
        _ => return Err(CodecError::Malformed("unknown tag")),
    };
    r.expect_end()?;
    Ok(msg)
}

/// Decodes a wire message.
///
/// # Errors
/// [`ProtocolError::Malformed`] on bad magic, unknown version or tag,
/// truncation, or trailing garbage — and on nothing else:
/// [`ProtocolError::Codec`] means a durable artifact failed to decode,
/// which a message off the wire never is.
pub fn decode(data: &[u8]) -> Result<Message, ProtocolError> {
    get_message(&mut Reader::new(data)).map_err(|e| {
        ProtocolError::Malformed(match e {
            CodecError::Malformed(what) => what,
            CodecError::TrailingBytes => "trailing bytes",
            _ => "truncated",
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BiometricDevice, SystemParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_record() -> EnrollmentRecord {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let bio = params.sketch().line().random_vector(16, &mut rng);
        device.enroll("wire-user", &bio, &mut rng).unwrap()
    }

    /// A message off the wire that does not decode is `Malformed` (code
    /// 8 to the peer) — never `Codec`, which means a durable artifact.
    fn assert_malformed(bytes: &[u8]) {
        if let Err(e) = decode(bytes) {
            assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
        }
    }

    #[test]
    fn enroll_roundtrip() {
        let record = sample_record();
        let msg = Message::Enroll(record);
        let bytes = encode(&msg);
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn challenge_roundtrip() {
        let record = sample_record();
        let msg = Message::Challenge(IdentChallenge {
            session: 77,
            helper: record.helper,
            challenge: u64::MAX,
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn response_roundtrip() {
        let msg = Message::Response(IdentResponse {
            session: 3,
            signature: vec![9; 40],
            nonce: 0,
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn outcome_roundtrip() {
        for o in [
            IdentOutcome::Identified("alice".into()),
            IdentOutcome::Rejected,
        ] {
            let msg = Message::Outcome(o);
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn matching_mode_requests_roundtrip() {
        let record = sample_record();
        for msg in [
            Message::EnrollUnique(record),
            Message::Reset {
                probe: vec![-3, 0, 399, i64::MIN],
            },
            Message::AuthenticateClaimed {
                id: "claimant".into(),
                probe: vec![1, 2, 3],
            },
            Message::CheckLocalUniqueness {
                probe: vec![7; 16],
                ids: vec!["a".into(), "b".into(), "c".into()],
            },
            Message::CheckLocalUniqueness {
                probe: Vec::new(),
                ids: Vec::new(),
            },
        ] {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn front_door_requests_roundtrip() {
        for msg in [
            Message::Identify {
                probe: vec![0, -1, i64::MAX, 42],
            },
            Message::Identify { probe: Vec::new() },
            Message::Revoke {
                id: "mallory".into(),
            },
            Message::IdentifyBatch {
                probes: vec![vec![1, 2, 3], Vec::new(), vec![i64::MIN]],
            },
            Message::IdentifyBatch { probes: Vec::new() },
        ] {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn front_door_requests_reject_truncation() {
        for msg in [
            Message::Identify { probe: vec![9; 12] },
            Message::Revoke { id: "alice".into() },
            Message::IdentifyBatch {
                probes: vec![vec![1, 2], vec![3]],
            },
        ] {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
                assert_malformed(&bytes[..cut]);
            }
            let mut extended = bytes;
            extended.push(0);
            assert!(matches!(
                decode(&extended),
                Err(ProtocolError::Malformed("trailing bytes"))
            ));
        }
    }

    #[test]
    fn lying_batch_count_cannot_overallocate() {
        let mut bytes = encode(&Message::IdentifyBatch {
            probes: vec![vec![7]],
        });
        // Header is 7 bytes; the batch count is the next 4. Claim 2^32-1
        // probes with only one actually present: must fail cleanly.
        bytes[7..11].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn matching_mode_requests_reject_truncation() {
        let msg = Message::CheckLocalUniqueness {
            probe: vec![5; 8],
            ids: vec!["alice".into(), "bob".into()],
        };
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
            assert_malformed(&bytes[..cut]);
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(matches!(
            decode(&extended),
            Err(ProtocolError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn negative_sketch_values_survive() {
        let mut record = sample_record();
        record.helper.sketch.inner[0] = -200;
        record.helper.sketch.inner[1] = i64::MIN;
        let msg = Message::Enroll(record);
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&Message::Outcome(IdentOutcome::Rejected));
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes),
            Err(ProtocolError::Malformed("bad magic"))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&Message::Outcome(IdentOutcome::Rejected));
        bytes[5] = 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(ProtocolError::Malformed("unsupported version"))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = encode(&Message::Outcome(IdentOutcome::Rejected));
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(ProtocolError::Malformed("unknown tag"))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let record = sample_record();
        let bytes = encode(&Message::Enroll(record));
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
            assert_malformed(&bytes[..cut]);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&Message::Outcome(IdentOutcome::Rejected));
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(ProtocolError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn fuzz_random_buffers_never_panic() {
        let mut rng = StdRng::seed_from_u64(99);
        use rand::Rng;
        for _ in 0..2000 {
            let len = rng.gen_range(0..200);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_malformed(&data); // and must not panic
        }
    }
}
