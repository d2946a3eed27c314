//! The blocking client: one TCP connection, one synchronous method per
//! request op, each one `call` and the answer kind `PROTOCOL.md` § 5
//! names for its op.
//!
//! [`Client`] is deliberately the *simple* consumer of the protocol —
//! one request in flight at a time, strict response-id checking. The
//! protocol itself allows pipelining (ids exist so responses can be
//! paired up); the loopback load generator in `fe-bench` drives split
//! sockets directly through [`crate::envelope`] for that.

use crate::envelope::{self, ResponseBody};
use crate::error::{NetError, WireError};
use crate::frame::{encode_frame, read_frame, DEFAULT_MAX_FRAME};
use crate::handshake::client_handshake;
use fe_core::codec::{Fingerprint, Writer};
use fe_protocol::wire::Message;
use fe_protocol::{
    EnrollmentRecord, IdentChallenge, IdentOutcome, IdentResponse, SystemParams, UserId,
};
use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};

/// Bytes of a batch request or response frame besides its items: the
/// request id, then the message header (7 bytes) going in or the status
/// and kind bytes coming out, and the item count.
const BATCH_ENVELOPE: usize = 8 + 7 + 4;

/// What one probe of `dim` coordinates adds to a batch frame at most:
/// the batch item of the challenge it draws, which is larger than the
/// probe's own `u32` length and 8 bytes a coordinate — a status byte
/// and a `u32` length, the challenge's 7-byte header, session and
/// nonce, and the matched helper: as many coordinates, the robust
/// sketch's 32-byte SHA-256 tag and the extractor's 32-byte seed, each
/// behind a `u32` length.
fn batch_bytes_per_probe(dim: usize) -> usize {
    1 + 4 + 7 + 8 + 8 + (4 + 8 * dim) + (4 + 32) + (4 + 32)
}

/// Takes the answer of the kind a request expects out of its response
/// body: the one place an answer of another kind becomes
/// [`NetError::UnexpectedResponse`].
macro_rules! answer {
    ($body:expr, $kind:pat $(if $guard:expr)? => $value:expr) => {
        match $body {
            $kind $(if $guard)? => Ok($value),
            _ => Err(NetError::UnexpectedResponse(concat!("expected ", stringify!($kind)))),
        }
    };
}

/// A connected, handshaken client.
///
/// Every call sends one request frame and blocks for its response;
/// remote errors come back as [`NetError::Remote`] carrying the wire
/// [`ErrorCode`](crate::ErrorCode) — `OVERLOADED` in particular is how
/// server-side load shedding reaches the caller.
///
/// ```rust
/// use fe_net::{Client, NetConfig, NetServer};
/// use fe_protocol::scheduler::{ScheduledServer, SchedulerConfig};
/// use fe_protocol::{BiometricDevice, SystemParams};
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = SystemParams::insecure_test_defaults();
/// let config = SchedulerConfig { rng_seed: 7, ..SchedulerConfig::default() };
/// let scheduler = Arc::new(ScheduledServer::scan(params.clone(), 1, config));
/// let server = NetServer::spawn(scheduler, "127.0.0.1:0", NetConfig::default())?;
///
/// // Client side: a device enrolls, then identifies itself.
/// let device = BiometricDevice::new(params.clone());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let bio = params.sketch().line().random_vector(16, &mut rng);
///
/// let mut client = Client::connect(server.local_addr(), &params)?;
/// client.enroll(device.enroll("alice", &bio, &mut rng)?)?;
///
/// let probe = device.probe_sketch(&bio, &mut rng)?;
/// let challenge = client.identify(probe)?;
/// let response = device.respond(&bio, &challenge, &mut rng)?;
/// let outcome = client.finish_identification(&response)?;
/// assert_eq!(outcome.identity(), Some("alice"));
///
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    next_id: u64,
    /// The request frame, encoded in place and reused call to call.
    frame: Writer,
}

impl Client {
    /// Connects and handshakes under `params` with the default frame
    /// limit ([`DEFAULT_MAX_FRAME`]).
    ///
    /// # Errors
    /// IO errors; [`NetError::VersionMismatch`] /
    /// [`NetError::FingerprintMismatch`] when the server rejects the
    /// hello.
    pub fn connect<A: ToSocketAddrs>(addr: A, params: &SystemParams) -> Result<Client, NetError> {
        Client::connect_with(addr, params.fingerprint(), DEFAULT_MAX_FRAME)
    }

    /// Connects with an explicit fingerprint and frame limit (both must
    /// match the server's).
    ///
    /// # Errors
    /// Same as [`Client::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        fingerprint: Fingerprint,
        max_frame: usize,
    ) -> Result<Client, NetError> {
        let mut stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        client_handshake(&mut stream, &fingerprint, max_frame)?;
        Ok(Client {
            stream,
            max_frame,
            next_id: 0,
            frame: Writer::new(),
        })
    }

    /// One synchronous round trip: send `msg`, await the response with
    /// the matching id, surface remote errors.
    fn call(&mut self, msg: &Message) -> Result<ResponseBody, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        encode_frame(&mut self.frame, self.max_frame, |w| {
            envelope::put_request(w, id, msg)
        })?;
        self.stream.write_all(self.frame.as_slice())?;
        let payload = read_frame(&mut self.stream, self.max_frame)?;
        let (got_id, response) = envelope::decode_response(&payload)?;
        if got_id != id {
            return Err(NetError::Desync {
                expected: id,
                found: got_id,
            });
        }
        response.map_err(NetError::Remote)
    }

    /// Identification phase 1: returns the server's challenge for the
    /// matched record.
    ///
    /// # Errors
    /// [`NetError::Remote`] with `NO_MATCH` when nobody matches,
    /// `OVERLOADED` when the request was shed.
    pub fn identify(&mut self, probe: Vec<i64>) -> Result<IdentChallenge, NetError> {
        answer!(self.call(&Message::Identify { probe })?, ResponseBody::Challenge(c) => c)
    }

    /// Batched identification phase 1: per-probe verdicts
    /// position-aligned with `probes`. Per-probe failures (including
    /// `OVERLOADED` sheds) come back in their slots, not as a
    /// call-level error.
    ///
    /// A batch goes out in as few requests as keep every request and
    /// every response within the frame limit, answered in order: at the
    /// default 1 MiB, 26 probes of 5 000 coordinates a request, and all
    /// of any batch of 64-coordinate probes the scheduler takes at once
    /// (PROTOCOL.md § 8, *Limits*). A matched record whose helper
    /// carries a longer tag or seed than the paper's stack writes can
    /// still make a response too large, which fails the call.
    ///
    /// # Errors
    /// Transport and envelope errors only.
    pub fn identify_batch(
        &mut self,
        probes: Vec<Vec<i64>>,
    ) -> Result<Vec<Result<IdentChallenge, WireError>>, NetError> {
        let widest = probes.iter().map(Vec::len).max().unwrap_or(0);
        let per_request =
            (self.max_frame.saturating_sub(BATCH_ENVELOPE) / batch_bytes_per_probe(widest)).max(1);
        let mut answers = Vec::with_capacity(probes.len());
        let mut probes = probes.into_iter();
        loop {
            let chunk: Vec<Vec<i64>> = probes.by_ref().take(per_request).collect();
            let asked = chunk.len();
            let body = self.call(&Message::IdentifyBatch { probes: chunk })?;
            answers.extend(
                answer!(body, ResponseBody::Batch(items) if items.len() == asked => items)?,
            );
            if probes.len() == 0 {
                return Ok(answers);
            }
        }
    }

    /// Identification phase 2: submit the signed challenge response.
    ///
    /// # Errors
    /// [`NetError::Remote`] with `UNKNOWN_SESSION` / `BAD_SIGNATURE` on
    /// a stale session or failed verification.
    pub fn finish_identification(
        &mut self,
        response: &IdentResponse,
    ) -> Result<IdentOutcome, NetError> {
        answer!(self.call(&Message::Response(response.clone()))?, ResponseBody::Outcome(o) => o)
    }

    /// Enrolls a record (no uniqueness sweep).
    ///
    /// # Errors
    /// [`NetError::Remote`] with `DUPLICATE_USER` when the id is taken.
    pub fn enroll(&mut self, record: EnrollmentRecord) -> Result<(), NetError> {
        answer!(self.call(&Message::Enroll(record))?, ResponseBody::Empty => ())
    }

    /// Uniqueness-checked enrollment.
    ///
    /// # Errors
    /// [`NetError::Remote`] with `DUPLICATE_BIOMETRIC` when the sketch
    /// already matches an enrolled record, `DUPLICATE_USER` for a taken
    /// id.
    pub fn enroll_unique(&mut self, record: EnrollmentRecord) -> Result<(), NetError> {
        answer!(self.call(&Message::EnrollUnique(record))?, ResponseBody::Empty => ())
    }

    /// Revokes an enrollment by user id.
    ///
    /// # Errors
    /// [`NetError::Remote`] with `UNKNOWN_USER` when no such user.
    pub fn revoke(&mut self, id: &str) -> Result<(), NetError> {
        let msg = Message::Revoke { id: id.to_owned() };
        answer!(self.call(&msg)?, ResponseBody::Empty => ())
    }

    /// Reset / account recovery: succeeds only when *exactly one*
    /// record matches, returning that user id.
    ///
    /// # Errors
    /// [`NetError::Remote`] with `NO_MATCH` or `AMBIGUOUS_MATCH`.
    pub fn reset(&mut self, probe: Vec<i64>) -> Result<UserId, NetError> {
        answer!(self.call(&Message::Reset { probe })?, ResponseBody::UserId(id) => id)
    }

    /// Targeted claimed-identity check: does `probe` match the record
    /// enrolled under `id`?
    ///
    /// # Errors
    /// [`NetError::Remote`] with `UNKNOWN_USER` when `id` is not
    /// enrolled.
    pub fn authenticate_claimed(&mut self, id: &str, probe: Vec<i64>) -> Result<bool, NetError> {
        let msg = Message::AuthenticateClaimed {
            id: id.to_owned(),
            probe,
        };
        answer!(self.call(&msg)?, ResponseBody::Flag(v) => v)
    }

    /// Subset uniqueness check: is `probe` distinct from every record in
    /// `ids`?
    ///
    /// # Errors
    /// [`NetError::Remote`] with `UNKNOWN_USER` when a listed id is not
    /// enrolled.
    pub fn check_local_uniqueness(
        &mut self,
        probe: Vec<i64>,
        ids: Vec<UserId>,
    ) -> Result<bool, NetError> {
        let msg = Message::CheckLocalUniqueness { probe, ids };
        answer!(self.call(&msg)?, ResponseBody::Flag(v) => v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::encode_response;
    use fe_protocol::BiometricDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The batch sizing against encoded bytes: each item of a `BATCH`
    /// response carrying a real enrolled record's challenge adds exactly
    /// `batch_bytes_per_probe(n)`, the request and response envelopes
    /// fit `BATCH_ENVELOPE`, and at the default frame limit a request
    /// carries the probe counts of PROTOCOL.md § 8.
    #[test]
    fn batch_sizing_matches_encoded_frames() {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for (n, per_request) in [(64, 1_702), (5_000, 26)] {
            let bio = params.sketch().line().random_vector(n, &mut rng);
            let record = device.enroll("sizing", &bio, &mut rng).unwrap();
            let challenge = IdentChallenge {
                session: u64::MAX,
                helper: record.helper,
                challenge: u64::MAX,
            };
            let item = batch_bytes_per_probe(n);
            let response = |items: usize| {
                let body = ResponseBody::Batch(vec![Ok(challenge.clone()); items]);
                encode_response(u64::MAX, &Ok(body)).len()
            };
            let (one, two) = (response(1), response(2));
            assert_eq!(two - one, item, "n={n}");
            for (len, items) in [(one, 1), (two, 2)] {
                assert!(
                    len - items * item <= BATCH_ENVELOPE,
                    "n={n}: response envelope"
                );
            }
            let request = Message::IdentifyBatch { probes: vec![bio] };
            let request_len = envelope::encode_request(u64::MAX, &request).len();
            let probe = 4 + 8 * n;
            assert!(
                request_len - probe <= BATCH_ENVELOPE,
                "n={n}: request envelope"
            );
            assert_eq!(
                (DEFAULT_MAX_FRAME - BATCH_ENVELOPE) / item,
                per_request,
                "n={n}"
            );
        }
    }
}
