//! `fe-net` — the networked front door of the fuzzy-extractor
//! identification service: a framed TCP server, a blocking client, and
//! the wire plumbing between them.
//!
//! Below this crate every deployment surface is in-process: library
//! calls. `fe-net` carries the
//! [`fe_protocol::wire`] messages over real sockets, so a biometric
//! device and the authentication server can live in different
//! processes — the deployment the paper actually describes (device and
//! server separated by an untrusted channel; the protocol's security
//! does not rest on the transport).
//!
//! The stack, bottom up (each layer has its own module docs, and
//! `PROTOCOL.md` at the repo root is the normative byte-level spec):
//!
//! * [`frame`] — length-prefixed, CRC-checked frames; the same layout
//!   as `fe_core::codec`'s journal records, on a socket. Every layer
//!   from here up reads and writes its bytes with that module's
//!   `Reader` and `Writer`, the cursor the journal and snapshot use.
//! * [`handshake`] — version + [`SystemParams`] fingerprint agreement
//!   before any request flows.
//! * [`envelope`] — request ids and self-describing response bodies
//!   inside each frame; the request payload *is* a wire message.
//! * [`server`] — [`NetServer`]: accept loop, per-connection
//!   reader/writer thread pairs, identification submitted to a
//!   [`ScheduledServer`](fe_protocol::scheduler::ScheduledServer) so
//!   wire traffic shares the micro-batching admission queue — and its
//!   fail-fast `OVERLOADED` backpressure — with in-process callers;
//!   every other request answered by [`server::apply`], the one
//!   mapping from an op to its `SharedServer` method and answer kind.
//! * [`client`] — [`Client`]: synchronous calls over one connection,
//!   one method per op.
//!
//! # No new dependencies
//!
//! Everything is `std::net` + the workspace's own crates: blocking
//! sockets, a thread per connection side, no async runtime. At the
//! population scales this system targets, identification cost is
//! dominated by the index sweep, not by connection counts — a thread
//! pair per connection is the right simplicity trade.
//!
//! [`SystemParams`]: fe_protocol::SystemParams

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod envelope;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod server;

pub use client::Client;
pub use envelope::{Response, ResponseBody};
pub use error::{ErrorCode, NetError, WireError};
pub use frame::{FrameEvent, DEFAULT_MAX_FRAME};
pub use handshake::{HandshakeStatus, NET_VERSION};
pub use server::{NetConfig, NetMetrics, NetServer};
