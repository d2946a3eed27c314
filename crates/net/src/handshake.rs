//! The connection handshake: version and parameter-fingerprint
//! agreement before any request flows.
//!
//! A sketch is only meaningful under the exact [`SystemParams`] it was
//! produced with (ring, threshold, key length, DSA domain — everything
//! [`SystemParams::fingerprint`] digests). A client on mismatched
//! parameters would not crash the server; it would silently never
//! match, which is worse. So the very first frame each way settles both
//! questions, and a mismatched client fails fast with a typed error
//! instead of a sea of `NO_MATCH`es.
//!
//! Layout (each inside one transport frame, see [`crate::frame`]):
//!
//! ```text
//! client hello:  "FENH" | u16 BE version | 8-byte params fingerprint
//! server reply:  "FENH" | u16 BE version | u8 status | 8-byte fingerprint
//! ```
//!
//! Reply status: `0` accepted, `1` version mismatch, `2` fingerprint
//! mismatch. On a nonzero status the server closes the connection after
//! the reply; the reply carries the *server's* version and fingerprint
//! so the client can report exactly what differed.
//!
//! [`SystemParams`]: fe_protocol::SystemParams
//! [`SystemParams::fingerprint`]: fe_protocol::SystemParams::fingerprint

use crate::error::NetError;
use crate::frame::{read_frame, write_frame};
use fe_core::codec::{CodecError, Fingerprint, Reader, Writer};
use std::io::{Read, Write};

/// Magic prefix of both handshake messages.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"FENH";

/// The transport protocol version this crate speaks.
///
/// Versioning policy (normative, see `PROTOCOL.md`): additive changes —
/// new request tags, new response kinds, new error codes — do **not**
/// bump this; peers reject unknown tags per-request. Any change to the
/// frame layout, handshake, envelope, or the meaning of an existing
/// code does.
pub const NET_VERSION: u16 = 1;

/// Server verdict on a client hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HandshakeStatus {
    /// Versions and fingerprints agree; requests may flow.
    Accepted = 0,
    /// The peer speaks a different transport version.
    VersionMismatch = 1,
    /// Same transport, different system parameters.
    FingerprintMismatch = 2,
}

impl HandshakeStatus {
    fn from_u8(v: u8) -> Option<HandshakeStatus> {
        Some(match v {
            0 => HandshakeStatus::Accepted,
            1 => HandshakeStatus::VersionMismatch,
            2 => HandshakeStatus::FingerprintMismatch,
            _ => return None,
        })
    }
}

fn put_preamble(w: &mut Writer) {
    w.put_raw(&HANDSHAKE_MAGIC);
    w.put_u16(NET_VERSION);
}

/// The magic, then the peer's version: how both payloads start.
fn get_preamble(r: &mut Reader<'_>) -> Result<u16, CodecError> {
    if r.get_raw(HANDSHAKE_MAGIC.len())? != HANDSHAKE_MAGIC {
        return Err(CodecError::Malformed("magic"));
    }
    r.get_u16()
}

/// The fingerprint that ends both payloads, and nothing after it.
fn get_fingerprint(r: &mut Reader<'_>) -> Result<Fingerprint, CodecError> {
    let fingerprint = r.get_raw(8)?.try_into().expect("8 bytes");
    r.expect_end()?;
    Ok(Fingerprint(fingerprint))
}

/// A payload of the wrong length reads as truncated or as trailing
/// bytes; a wrong field names itself.
fn bad_handshake(e: CodecError) -> NetError {
    NetError::BadHandshake(match e {
        CodecError::Malformed(what) => what,
        _ => "length",
    })
}

/// Encodes the client hello payload.
pub fn encode_hello(fingerprint: &Fingerprint) -> Vec<u8> {
    let mut w = Writer::new();
    put_preamble(&mut w);
    w.put_raw(fingerprint.as_bytes());
    w.into_bytes()
}

/// Decodes a client hello payload into `(version, fingerprint)`.
///
/// # Errors
/// [`NetError::BadHandshake`] unless the payload is exactly a
/// well-formed hello. The version is *returned*, not validated — the
/// server decides how to answer a mismatch.
pub fn decode_hello(payload: &[u8]) -> Result<(u16, Fingerprint), NetError> {
    let mut r = Reader::new(payload);
    let hello = get_preamble(&mut r).and_then(|version| Ok((version, get_fingerprint(&mut r)?)));
    hello.map_err(bad_handshake)
}

/// Encodes the server reply payload.
pub fn encode_reply(status: HandshakeStatus, fingerprint: &Fingerprint) -> Vec<u8> {
    let mut w = Writer::new();
    put_preamble(&mut w);
    w.put_u8(status as u8);
    w.put_raw(fingerprint.as_bytes());
    w.into_bytes()
}

/// Decodes a server reply payload into `(version, status, fingerprint)`.
///
/// # Errors
/// [`NetError::BadHandshake`] on anything but a well-formed reply.
pub fn decode_reply(payload: &[u8]) -> Result<(u16, HandshakeStatus, Fingerprint), NetError> {
    let mut r = Reader::new(payload);
    let reply = get_preamble(&mut r).and_then(|version| {
        let status =
            HandshakeStatus::from_u8(r.get_u8()?).ok_or(CodecError::Malformed("reply status"))?;
        Ok((version, status, get_fingerprint(&mut r)?))
    });
    reply.map_err(bad_handshake)
}

/// Runs the client side of the handshake on a fresh stream: sends the
/// hello, reads the reply, and maps a rejection to its typed error.
/// Used by [`crate::Client::connect`] and usable directly by custom
/// transports (the loopback load generator drives raw split sockets
/// through this).
///
/// # Errors
/// [`NetError::VersionMismatch`] / [`NetError::FingerprintMismatch`]
/// when the server rejected us (carrying both sides' values);
/// [`NetError::BadHandshake`] on a malformed reply; framing/IO errors
/// as usual.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    fingerprint: &Fingerprint,
    max_frame: usize,
) -> Result<(), NetError> {
    write_frame(stream, &encode_hello(fingerprint), max_frame)?;
    let reply = read_frame(stream, max_frame)?;
    let (version, status, theirs) = decode_reply(&reply)?;
    match status {
        HandshakeStatus::Accepted => Ok(()),
        HandshakeStatus::VersionMismatch => Err(NetError::VersionMismatch {
            ours: NET_VERSION,
            theirs: version,
        }),
        HandshakeStatus::FingerprintMismatch => Err(NetError::FingerprintMismatch {
            ours: *fingerprint,
            theirs,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(byte: u8) -> Fingerprint {
        Fingerprint([byte; 8])
    }

    #[test]
    fn hello_roundtrip() {
        let (version, got) = decode_hello(&encode_hello(&fp(7))).unwrap();
        assert_eq!(version, NET_VERSION);
        assert_eq!(got, fp(7));
    }

    #[test]
    fn reply_roundtrip_all_statuses() {
        for status in [
            HandshakeStatus::Accepted,
            HandshakeStatus::VersionMismatch,
            HandshakeStatus::FingerprintMismatch,
        ] {
            let (version, got_status, got_fp) =
                decode_reply(&encode_reply(status, &fp(9))).unwrap();
            assert_eq!(version, NET_VERSION);
            assert_eq!(got_status, status);
            assert_eq!(got_fp, fp(9));
        }
    }

    #[test]
    fn malformed_hellos_rejected() {
        assert!(decode_hello(&[]).is_err());
        assert!(decode_hello(&encode_hello(&fp(1))[..13]).is_err());
        let mut long = encode_hello(&fp(1));
        long.push(0);
        assert!(decode_hello(&long).is_err());
        let mut bad_magic = encode_hello(&fp(1));
        bad_magic[0] = b'X';
        assert!(decode_hello(&bad_magic).is_err());
        // A reply is not a hello (and vice versa): lengths differ.
        assert!(decode_hello(&encode_reply(HandshakeStatus::Accepted, &fp(1))).is_err());
        assert!(decode_reply(&encode_hello(&fp(1))).is_err());
    }

    #[test]
    fn unknown_reply_status_rejected() {
        let mut reply = encode_reply(HandshakeStatus::Accepted, &fp(2));
        reply[6] = 99;
        assert!(matches!(
            decode_reply(&reply).unwrap_err(),
            NetError::BadHandshake("reply status")
        ));
    }
}
