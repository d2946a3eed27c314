//! The transport frame layer: CRC-checked, length-prefixed frames over
//! any byte stream.
//!
//! The frame layout is exactly the `fe-core::codec` journal frame
//! ([`fe_core::codec::Writer::put_framed`]), lifted from the disk onto
//! the socket:
//!
//! ```text
//! +0   u32 BE  payload length N   (1 ≤ N ≤ max_frame)
//! +4   u32 BE  CRC-32 of payload  (IEEE 802.3, fe_core::codec::crc32)
//! +8   N bytes payload
//! ```
//!
//! One frame carries one message (a handshake hello, a request
//! envelope, or a response envelope — see `PROTOCOL.md`). The CRC is a
//! *corruption* check, not authentication: it catches torn writes,
//! proxy mangling, and desynchronized streams, the same failures it
//! catches on the journal. All framing violations are **fatal to the
//! connection** — once a length prefix or checksum lies, nothing later
//! on the stream can be trusted.
//!
//! [`read_frame`] is the plain blocking reader; [`read_frame_event`]
//! tells the server's connection-lifecycle cases apart (clean close,
//! idle timeout, mid-frame stall) on a socket whose read timeout is the
//! idle window.

use crate::error::NetError;
use fe_core::codec::{crc32, Writer};
use std::io::{ErrorKind, Read, Write};

/// Default ceiling on frame payload length: 1 MiB, small enough that a
/// hostile length prefix cannot balloon server memory. At 64
/// coordinates a probe costs 516 bytes going in and a challenge item
/// 616 coming out: an identify batch of up to 2 032 probes fits a
/// request frame, and its response fits while at most 1 702 of them
/// match (past that the server answers the request with a `CODEC`
/// error instead, see [`crate::server`]).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Bytes of frame overhead ahead of the payload (length + CRC).
pub const FRAME_HEADER: usize = 8;

/// Writes one frame: length, CRC-32, payload, assembled into a single
/// buffer so a frame is one `write_all` on the socket.
///
/// # Errors
/// [`NetError::Oversize`] if `payload` exceeds `max_frame`;
/// [`NetError::BadFrame`] on an empty payload; [`NetError::Io`] on
/// socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: usize) -> Result<(), NetError> {
    check_len(payload.len(), max_frame)?;
    let mut frame = Writer::new();
    frame.put_framed(payload);
    w.write_all(frame.as_slice())?;
    Ok(())
}

/// The two lengths no frame may have, sent or received.
fn check_len(len: usize, max_frame: usize) -> Result<(), NetError> {
    if len == 0 {
        return Err(NetError::BadFrame("zero-length frame"));
    }
    if len > max_frame {
        return Err(NetError::Oversize {
            claimed: len,
            max: max_frame,
        });
    }
    Ok(())
}

/// Encodes one frame in `frame`, in place: whatever `payload` writes
/// lies between [`Writer::begin_frame`] and [`Writer::end_frame`], so
/// an envelope is encoded where it is sent from — one buffer, reused
/// from frame to frame, and one `write_all`. `frame` is emptied first
/// and holds exactly the frame after.
///
/// # Errors
/// As [`write_frame`], with nothing usable left in `frame`.
pub(crate) fn encode_frame(
    frame: &mut Writer,
    max_frame: usize,
    payload: impl FnOnce(&mut Writer),
) -> Result<(), NetError> {
    frame.clear();
    let mark = frame.begin_frame();
    payload(frame);
    check_len(frame.as_slice().len() - FRAME_HEADER, max_frame)?;
    frame.end_frame(mark);
    Ok(())
}

/// What a connection read produced besides a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, CRC-valid frame payload.
    Frame(Vec<u8>),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream's read timeout passed before a frame *started* — the
    /// connection is abandoned, not broken.
    IdleTimeout,
}

/// Reads one frame, blocking until it completes.
///
/// EOF at a frame boundary is [`NetError::ConnectionClosed`]; EOF (or a
/// read timeout, if the stream has one) mid-frame is a fatal
/// [`NetError::BadFrame`], and so is a timeout at the boundary.
///
/// # Errors
/// [`NetError::Oversize`] / [`NetError::CrcMismatch`] /
/// [`NetError::BadFrame`] on framing violations, [`NetError::Io`] on
/// socket failures.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, NetError> {
    match read_frame_event(r, max_frame)? {
        FrameEvent::Frame(payload) => Ok(payload),
        FrameEvent::Closed => Err(NetError::ConnectionClosed),
        FrameEvent::IdleTimeout => Err(NetError::BadFrame("read timed out")),
    }
}

/// Reads one frame, telling the ways a connection ends apart.
///
/// The stream's read timeout (if any) is the idle window, and the
/// kernel keeps it: a read either returns bytes, EOF, or the timeout,
/// and nothing wakes in between. Where the timeout lands decides what
/// it means:
///
/// * **no frame started** → [`FrameEvent::IdleTimeout`] (a clean
///   close, not an error);
/// * **mid-frame** → a fatal [`NetError::BadFrame`] — a peer that sends
///   half a frame and stops is indistinguishable from a torn stream.
///
/// # Errors
/// As [`read_frame`].
pub fn read_frame_event(r: &mut impl Read, max_frame: usize) -> Result<FrameEvent, NetError> {
    let mut header = [0u8; FRAME_HEADER];
    match fill(r, &mut header, true)? {
        Filled::Complete => {}
        Filled::Eof => return Ok(FrameEvent::Closed),
        Filled::Idle => return Ok(FrameEvent::IdleTimeout),
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let expected_crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
    check_len(len, max_frame)?;
    let mut payload = vec![0u8; len];
    match fill(r, &mut payload, false)? {
        Filled::Complete => {}
        Filled::Eof | Filled::Idle => unreachable!("fill maps mid-frame ends to errors"),
    }
    let found = crc32(&payload);
    if found != expected_crc {
        return Err(NetError::CrcMismatch {
            expected: expected_crc,
            found,
        });
    }
    Ok(FrameEvent::Frame(payload))
}

enum Filled {
    Complete,
    /// EOF before the first byte (only reported when `at_boundary`).
    Eof,
    /// A read timeout before the first byte (likewise).
    Idle,
}

/// Fills `buf` completely, translating timeouts and EOF into lifecycle
/// events. `at_boundary` marks the frame header read, where EOF and
/// idleness are clean; once any byte has arrived (or for the payload,
/// which always follows a header) both become errors.
fn fill(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<Filled, NetError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if at_boundary && got == 0 {
                    Ok(Filled::Eof)
                } else {
                    Err(NetError::BadFrame("peer closed mid-frame"))
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return if at_boundary && got == 0 {
                    Ok(Filled::Idle)
                } else {
                    Err(NetError::BadFrame("mid-frame stall"))
                };
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(Filled::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload, DEFAULT_MAX_FRAME).unwrap();
        out
    }

    #[test]
    fn roundtrip() {
        let payload = b"hello frames".to_vec();
        let bytes = frame_bytes(&payload);
        assert_eq!(bytes.len(), FRAME_HEADER + payload.len());
        let got = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn revoke_request_frame_bytes_are_pinned() {
        // As put on the wire by the commit before the checksum went
        // table-driven: len ‖ crc32 ‖ request id 7 ‖ "FEID" Revoke.
        let request = crate::envelope::encode_request(
            7,
            &fe_protocol::wire::Message::Revoke {
                id: "user-7".into(),
            },
        );
        let hex: String = frame_bytes(&request)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "0000001941644b9300000000000000074645494409000100000006757365722d37"
        );
    }

    #[test]
    fn eof_at_boundary_is_clean_close() {
        let err = read_frame(&mut Cursor::new(&[]), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::ConnectionClosed), "{err}");
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let bytes = frame_bytes(b"truncate me");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut]), DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, NetError::BadFrame("peer closed mid-frame")),
                "prefix {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // Claim u32::MAX bytes; the reader must refuse without trying
        // to read (or allocate) them.
        let mut bytes = frame_bytes(b"x");
        bytes[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, NetError::Oversize { claimed, max }
                if claimed == u32::MAX as usize && max == DEFAULT_MAX_FRAME),
            "{err}"
        );
    }

    #[test]
    fn zero_length_frame_rejected_both_ways() {
        let mut bytes = frame_bytes(b"x");
        bytes[..4].copy_from_slice(&0u32.to_be_bytes());
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, NetError::BadFrame("zero-length frame")),
            "{err}"
        );
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[], DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut bytes = frame_bytes(b"checksummed payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn corrupted_crc_field_fails_crc() {
        let mut bytes = frame_bytes(b"checksummed payload");
        bytes[5] ^= 0x01;
        let err = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn write_respects_max_frame() {
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &[0u8; 100], 64).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Oversize {
                    claimed: 100,
                    max: 64
                }
            ),
            "{err}"
        );
        assert!(sink.is_empty(), "nothing written on refusal");
    }

    #[test]
    fn back_to_back_frames_parse_in_sequence() {
        let mut bytes = frame_bytes(b"first");
        bytes.extend_from_slice(&frame_bytes(b"second"));
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            b"first"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            b"second"
        );
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap_err(),
            NetError::ConnectionClosed
        ));
    }

    /// A reader that yields `WouldBlock` after its data runs out —
    /// models a socket whose read timeout passed on a stalled peer.
    struct Stalling {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "timed out"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn idle_connection_times_out_cleanly() {
        let mut r = Stalling {
            data: frame_bytes(b"one frame, then silence"),
            pos: 0,
        };
        assert_eq!(
            read_frame_event(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            FrameEvent::Frame(b"one frame, then silence".to_vec())
        );
        assert_eq!(
            read_frame_event(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            FrameEvent::IdleTimeout
        );
        // Without the event, a timeout is no frame.
        let err = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::BadFrame("read timed out")), "{err}");
    }

    #[test]
    fn mid_frame_stall_is_fatal() {
        let bytes = frame_bytes(b"never finishes");
        // Cut inside the header and inside the payload.
        for cut in [6, FRAME_HEADER + 3] {
            let mut r = Stalling {
                data: bytes[..cut].to_vec(),
                pos: 0,
            };
            let err = read_frame_event(&mut r, DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, NetError::BadFrame("mid-frame stall")),
                "cut {cut}: {err}"
            );
        }
    }
}
