//! The threaded TCP front door: accept loop, per-connection reader and
//! writer threads, request dispatch into a [`ScheduledServer`].
//!
//! # Thread model
//!
//! One **accept thread** owns the (blocking) listener: it sleeps in
//! `accept` until a socket arrives, spawns a pair of threads per
//! connection, and reaps finished pairs. Shutdown wakes it with one
//! connect of its own. Each connection gets
//!
//! * a **reader** thread — parses frames, decodes envelopes, dispatches
//!   requests, and pushes one reply per request onto the writer's
//!   channel **in arrival order**;
//! * a **writer** thread — resolves each reply (waiting out scheduler
//!   tickets where needed) and writes the response frame.
//!
//! Splitting read from write is what makes the connection a real
//! pipeline: while the scheduler's micro-batch carries request *n*, the
//! reader is already admitting requests *n+1, n+2, …*. Because replies
//! enter the channel in arrival order and the writer resolves them
//! FIFO, responses leave the socket in request order — a pipelining
//! client never needs to reorder. The channel holds `REPLY_QUEUE` (64)
//! replies; past that the reader waits for the writer, so a peer that
//! pipelines without reading is read no faster than it takes its
//! answers, and the replies it has not taken hold bounded memory.
//!
//! # Nothing polls
//!
//! Every server thread sleeps in the kernel until there is work: the
//! accept thread in `accept`, a reader in `read`, a writer on its
//! channel. A reader's socket read timeout *is* the idle window
//! ([`NetConfig::idle_timeout`]), so an idle connection costs no
//! wake-ups until it is reaped. Shutdown shuts the read half of every
//! connection's socket: a blocked read returns end-of-stream at once,
//! the reader ends as on a clean close, and the writer still drains
//! every reply already queued before the socket closes.
//!
//! # Backpressure
//!
//! Identification dispatch is [`ScheduledServer::submit`]: when the
//! admission queue is full the submit fails **immediately** with
//! [`ProtocolError::Overloaded`], and the reader queues an error reply
//! carrying [`ErrorCode::Overloaded`] instead of a ticket. An overloaded server answers every request it
//! sheds — it never silently drops a frame or the connection.
//!
//! A peer's own backpressure is its socket: the writer's write timeout
//! is the idle window too, so a peer that takes no reply bytes for that
//! long is closed as idle — its writer gives up, its reader finds the
//! channel closed — and neither thread can hold up shutdown for longer
//! than the window.
//!
//! # Failure severities
//!
//! A malformed *message* inside a well-formed envelope gets an error
//! response and the connection lives on. A violation of the transport
//! itself — bad CRC, oversized length prefix, mid-frame EOF, an
//! envelope too short to carry a request id — is connection-fatal:
//! past that point the byte stream cannot be trusted to re-synchronise.
//! One failure is the server's own: a response that outgrows
//! `max_frame` (a batch whose probes all match) is cut back where its
//! frame is closed and the request is answered with
//! [`ErrorCode::Codec`], "response exceeds the
//! frame limit", on a connection that keeps serving.

use crate::envelope::{self, Response, ResponseBody};
use crate::error::{ErrorCode, WireError};
use crate::frame::{encode_frame, read_frame_event, write_frame, FrameEvent, DEFAULT_MAX_FRAME};
use crate::handshake::{self, HandshakeStatus, NET_VERSION};
use fe_core::codec::{Fingerprint, Writer};
use fe_protocol::scheduler::{IdentifyTicket, ScheduledServer};
use fe_protocol::wire::Message;
use fe_protocol::{IdentChallenge, ProtocolError};
use std::io::{self, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Replies a connection queues between its reader and its writer: twice
/// the 32 requests the benchmark's saturating client keeps in flight,
/// so a client that reads its answers never waits on it.
const REPLY_QUEUE: usize = 64;

/// Tunables for the TCP front door.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest frame payload accepted or sent
    /// ([`DEFAULT_MAX_FRAME`] unless raised; both peers must agree).
    pub max_frame: usize,
    /// Close a connection after this long with no frame started, or
    /// with a reply it takes no bytes of; it is the socket's read and
    /// write timeout, so it must not be zero.
    pub idle_timeout: Duration,
    /// How long the accept loop backs off after a failed `accept` (a
    /// connection reset before it was accepted, no descriptor left).
    /// Nothing else waits on it: accepting a connection, reaping an
    /// idle one and shutting down are all woken by the kernel.
    pub poll_tick: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_frame: DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(60),
            poll_tick: Duration::from_millis(25),
        }
    }
}

/// Counters exported by a running [`NetServer`]. All relaxed-atomic;
/// safe to read while the server serves traffic.
#[derive(Debug, Default)]
pub struct NetMetrics {
    accepted: AtomicU64,
    active: AtomicU64,
    handshake_failures: AtomicU64,
    requests: AtomicU64,
    responses_ok: AtomicU64,
    responses_err: AtomicU64,
    shed: AtomicU64,
    idle_closed: AtomicU64,
    fatal_frames: AtomicU64,
}

impl NetMetrics {
    /// Connections accepted (including ones later rejected at
    /// handshake).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Connections rejected during the handshake (bad hello, version or
    /// fingerprint mismatch).
    pub fn handshake_failures(&self) -> u64 {
        self.handshake_failures.load(Ordering::Relaxed)
    }

    /// Requests decoded and dispatched.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Success responses sent, each counted just before its frame is
    /// written.
    pub fn responses_ok(&self) -> u64 {
        self.responses_ok.load(Ordering::Relaxed)
    }

    /// Error responses sent (any code, including `OVERLOADED`), counted
    /// as [`NetMetrics::responses_ok`] is.
    pub fn responses_err(&self) -> u64 {
        self.responses_err.load(Ordering::Relaxed)
    }

    /// `OVERLOADED` verdicts sent, counting both whole-request sheds
    /// and shed slots inside batch responses.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Connections closed by the idle timeout: no frame started, or no
    /// bytes of a reply taken, for the idle window.
    pub fn idle_closed(&self) -> u64 {
        self.idle_closed.load(Ordering::Relaxed)
    }

    /// Connections dropped for transport violations (bad CRC, oversize
    /// frame, mid-frame EOF, unaddressable envelope).
    pub fn fatal_frames(&self) -> u64 {
        self.fatal_frames.load(Ordering::Relaxed)
    }
}

/// One queued reply, pushed by the reader in request-arrival order.
/// Scheduler tickets ride unresolved so the reader can keep admitting
/// while the writer blocks on results.
enum Reply {
    /// Already resolved at dispatch (write ops, errors, sheds).
    Ready(u64, Response),
    /// A scheduled identification awaiting its micro-batch.
    Ticket(u64, IdentifyTicket),
    /// A batched identification: per-probe tickets (or admission
    /// refusals), position-aligned.
    Batch(u64, Vec<Result<IdentifyTicket, ProtocolError>>),
}

/// A running TCP front door over a [`ScheduledServer`].
///
/// Spawning binds the listener and starts the accept thread; the
/// server then runs until [`NetServer::shutdown`] (or drop, which
/// shuts down implicitly). See the [module docs](self) for the thread
/// model and `PROTOCOL.md` for the wire contract it serves.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    metrics: Arc<NetMetrics>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `scheduler` under `config`.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for a zero
    /// [`NetConfig::idle_timeout`] (no socket takes a zero read
    /// timeout); any [`io::Error`] from binding the listener.
    pub fn spawn(
        scheduler: Arc<ScheduledServer>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        if config.idle_timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "idle_timeout must be non-zero",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(NetMetrics::default());
        let fingerprint = scheduler.server().params().fingerprint();
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("fe-net-accept".into())
                .spawn(move || {
                    accept_loop(listener, scheduler, fingerprint, config, shutdown, metrics)
                })
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            addr: local,
            shutdown,
            accept_thread: Some(accept),
            metrics,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's exported counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Stops accepting, shuts the read half of every connection (a
    /// blocked read returns at once), and joins all server threads.
    /// In-flight replies already queued to writers are still delivered
    /// before their connections close.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            // The accept thread sleeps in `accept`: one connect wakes it
            // to see the flag. An unspecified bind is reached on loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    scheduler: Arc<ScheduledServer>,
    fingerprint: Fingerprint,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
) {
    // Each connection's socket beside its thread, so shutdown can wake
    // a reader blocked in `read`. Weak: the socket still closes the
    // moment its connection ends.
    let mut connections: Vec<(Weak<TcpStream>, JoinHandle<()>)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                metrics.accepted.fetch_add(1, Ordering::Relaxed);
                let stream = Arc::new(stream);
                let scheduler = Arc::clone(&scheduler);
                let shutdown = Arc::clone(&shutdown);
                let metrics = Arc::clone(&metrics);
                let config = config.clone();
                let socket = Arc::downgrade(&stream);
                let handle = std::thread::Builder::new()
                    .name("fe-net-conn".into())
                    .spawn(move || {
                        metrics.active.fetch_add(1, Ordering::Relaxed);
                        serve_connection(
                            stream,
                            scheduler,
                            fingerprint,
                            config,
                            shutdown,
                            metrics.clone(),
                        );
                        metrics.active.fetch_sub(1, Ordering::Relaxed);
                    });
                if let Ok(h) = handle {
                    connections.push((socket, h));
                }
                connections.retain(|(_, h)| !h.is_finished());
            }
            // Transient accept errors (e.g. a connection reset before
            // it was accepted, or no descriptor left) are not fatal to
            // the listener.
            Err(_) => std::thread::sleep(config.poll_tick),
        }
    }
    // A read blocked on a shut read half returns end-of-stream: every
    // reader ends as on a clean close, and its writer drains.
    for (socket, _) in &connections {
        if let Some(stream) = socket.upgrade() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    for (_, handle) in connections {
        let _ = handle.join();
    }
}

/// Runs the handshake, then the reader loop; owns the writer thread.
fn serve_connection(
    stream: Arc<TcpStream>,
    scheduler: Arc<ScheduledServer>,
    fingerprint: Fingerprint,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
) {
    // The read timeout is the idle window (see `frame::read_frame_event`),
    // and so is the write timeout: a peer that takes no reply bytes for
    // that long is closed (see `writer_loop`). Nagle off, as on the
    // client: replies are small frames, and with it on the second reply
    // to a pipelining client waits for the ACK of the first, which rides
    // on the client's *next* request.
    if stream.set_read_timeout(Some(config.idle_timeout)).is_err()
        || stream.set_write_timeout(Some(config.idle_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = &*stream;

    // Handshake: first frame in, one frame out; any rejection closes.
    let hello = match read_frame_event(&mut reader, config.max_frame) {
        Ok(FrameEvent::Frame(payload)) => payload,
        _ => {
            metrics.handshake_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let status = match handshake::decode_hello(&hello) {
        Ok((version, _)) if version != NET_VERSION => HandshakeStatus::VersionMismatch,
        Ok((_, theirs)) if theirs != fingerprint => HandshakeStatus::FingerprintMismatch,
        Ok(_) => HandshakeStatus::Accepted,
        Err(_) => {
            // Not even a hello: close without replying (we cannot know
            // the peer speaks this protocol at all).
            metrics.handshake_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let reply = handshake::encode_reply(status, &fingerprint);
    if write_frame(&mut reader, &reply, config.max_frame).is_err()
        || status != HandshakeStatus::Accepted
    {
        metrics.handshake_failures.fetch_add(1, Ordering::Relaxed);
        return;
    }

    // Writer thread: resolves replies FIFO, writes response frames.
    let (tx, rx) = mpsc::sync_channel::<Reply>(REPLY_QUEUE);
    let max_frame = config.max_frame;
    let writer = std::thread::Builder::new()
        .name("fe-net-write".into())
        .spawn({
            let metrics = Arc::clone(&metrics);
            let stream = Arc::clone(&stream);
            move || writer_loop(&stream, rx, max_frame, metrics)
        })
        .expect("spawn connection writer");

    // Reader loop: frame → envelope → dispatch → queue reply.
    loop {
        match read_frame_event(&mut reader, config.max_frame) {
            Ok(FrameEvent::Frame(payload)) => {
                let (id, msg) = match envelope::decode_request(&payload) {
                    Ok(decoded) => decoded,
                    Err(_) => {
                        // No request id to answer to: transport-fatal.
                        metrics.fatal_frames.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                };
                metrics.requests.fetch_add(1, Ordering::Relaxed);
                let reply = match msg {
                    Ok(msg) => dispatch(&scheduler, id, msg),
                    Err(e) => Reply::Ready(id, Err(WireError::from_protocol(&e))),
                };
                if tx.send(reply).is_err() {
                    break; // writer gone (peer stopped reading)
                }
            }
            Ok(FrameEvent::Closed) => break,
            Ok(FrameEvent::IdleTimeout) => {
                metrics.idle_closed.fetch_add(1, Ordering::Relaxed);
                break;
            }
            // A frame cut by shutdown's read-half close is not the
            // peer's violation.
            Err(_) if shutdown.load(Ordering::SeqCst) => break,
            Err(_) => {
                metrics.fatal_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Maps a protocol-level result into the wire response.
fn to_response(result: Result<ResponseBody, ProtocolError>) -> Response {
    result.map_err(|e| WireError::from_protocol(&e))
}

/// Dispatches one decoded request. Identification rides the scheduler
/// (tickets resolve in the writer); every other op is synchronous on
/// the wrapped server — none of them scan-bound.
fn dispatch(scheduler: &ScheduledServer, id: u64, msg: Message) -> Reply {
    match msg {
        Message::Identify { probe } => match scheduler.submit(probe) {
            Ok(ticket) => Reply::Ticket(id, ticket),
            Err(e) => Reply::Ready(id, Err(WireError::from_protocol(&e))),
        },
        Message::IdentifyBatch { probes } => {
            let tickets = probes.into_iter().map(|p| scheduler.submit(p)).collect();
            Reply::Batch(id, tickets)
        }
        Message::Enroll(record) => Reply::Ready(
            id,
            to_response(
                scheduler
                    .server()
                    .enroll(record)
                    .map(|()| ResponseBody::Empty),
            ),
        ),
        Message::EnrollUnique(record) => Reply::Ready(
            id,
            to_response(
                scheduler
                    .server()
                    .enroll_unique(record)
                    .map(|()| ResponseBody::Empty),
            ),
        ),
        Message::Revoke { id: user } => Reply::Ready(
            id,
            to_response(
                scheduler
                    .server()
                    .revoke(&user)
                    .map(|()| ResponseBody::Empty),
            ),
        ),
        Message::Reset { probe } => Reply::Ready(
            id,
            to_response(scheduler.server().reset(&probe).map(ResponseBody::UserId)),
        ),
        Message::AuthenticateClaimed { id: user, probe } => Reply::Ready(
            id,
            to_response(
                scheduler
                    .server()
                    .authenticate_claimed(&user, &probe)
                    .map(ResponseBody::Flag),
            ),
        ),
        Message::CheckLocalUniqueness { probe, ids } => Reply::Ready(
            id,
            to_response(
                scheduler
                    .server()
                    .check_local_uniqueness(&probe, &ids)
                    .map(ResponseBody::Flag),
            ),
        ),
        Message::Response(response) => Reply::Ready(
            id,
            to_response(
                scheduler
                    .server()
                    .finish_identification(&response)
                    .map(ResponseBody::Outcome),
            ),
        ),
        Message::Challenge(_) | Message::Outcome(_) => Reply::Ready(
            id,
            Err(WireError::from_protocol(&ProtocolError::Malformed(
                "response-only message sent as a request",
            ))),
        ),
    }
}

fn ticket_result(t: Result<IdentifyTicket, ProtocolError>) -> Result<IdentChallenge, WireError> {
    t.and_then(IdentifyTicket::wait)
        .map_err(|e| WireError::from_protocol(&e))
}

fn writer_loop(
    mut stream: &TcpStream,
    rx: mpsc::Receiver<Reply>,
    max_frame: usize,
    metrics: Arc<NetMetrics>,
) {
    // One buffer for every response of the connection: each envelope is
    // encoded inside its frame, and the frame leaves in one write.
    let mut frame = Writer::new();
    for reply in rx {
        let (id, mut response) = match reply {
            Reply::Ready(id, response) => (id, response),
            Reply::Ticket(id, ticket) => {
                (id, ticket_result(Ok(ticket)).map(ResponseBody::Challenge))
            }
            Reply::Batch(id, tickets) => (
                id,
                Ok(ResponseBody::Batch(
                    tickets.into_iter().map(ticket_result).collect(),
                )),
            ),
        };
        let mut encode = |response: &Response| {
            encode_frame(&mut frame, max_frame, |w| {
                envelope::put_response(w, id, response)
            })
        };
        if encode(&response).is_err() {
            // The request fitted a frame and its answer does not (a
            // batch of matches): the frame is cut back and the id is
            // answered all the same, with an error that always fits,
            // and the connection lives on.
            response = Err(WireError {
                code: ErrorCode::Codec,
                detail: "response exceeds the frame limit".into(),
            });
            if encode(&response).is_err() {
                return; // a frame limit too small for any answer
            }
        }
        // Counted before the bytes leave, so a client that has read a
        // response never finds it missing from the metrics.
        match &response {
            Ok(ResponseBody::Batch(items)) => {
                metrics.responses_ok.fetch_add(1, Ordering::Relaxed);
                let sheds = items
                    .iter()
                    .filter(|r| r.as_ref().is_err_and(WireError::is_overloaded))
                    .count() as u64;
                metrics.shed.fetch_add(sheds, Ordering::Relaxed);
            }
            Ok(_) => {
                metrics.responses_ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                metrics.responses_err.fetch_add(1, Ordering::Relaxed);
                if e.is_overloaded() {
                    metrics.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Err(e) = stream.write_all(frame.as_slice()) {
            // Peer gone, or it took no bytes for the idle window; the
            // reader finds the channel closed and winds down.
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                metrics.idle_closed.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
    }
}
