//! The biometric protocols of *Fuzzy Extractors for Biometric
//! Identification* (Sec. III & V): system setup, user enrollment
//! (Fig. 1), the **proposed constant-cost identification protocol**
//! (Fig. 3), the **normal-approach baseline** (Fig. 2), and the
//! verification-mode protocol.
//!
//! # Roles
//!
//! * [`BiometricDevice`] (`BioD`) — trusted capture device: runs `Gen`
//!   at enrollment (erasing the secret immediately), emits fresh sketches
//!   at identification, and answers challenges by recovering the signing
//!   key via `Rep`.
//! * [`AuthenticationServer`] (`AS`) — stores `(ID, pk, P)` records,
//!   matches incoming sketches with conditions (1)–(4), and verifies
//!   challenge responses. Never sees a biometric or a secret key.
//!   Generic over its sketch index (`I:`[`fe_core::SketchIndex`],
//!   default [`fe_core::EpochIndex`], which every layer below runs
//!   too); [`BuildIndex`] builds it from [`SystemParams`]. Batch
//!   identification
//!   ([`AuthenticationServer::identify_batch`]) resolves many probes
//!   per call.
//! * [`concurrent::SharedServer`] — the scaling wrapper: users
//!   partitioned across N independently-locked server shards, lookups
//!   under shared read locks, batched identification with one lock
//!   acquisition per shard per batch.
//! * [`scheduler::ScheduledServer`] — the heavy-traffic front door: a
//!   bounded admission queue coalesces concurrent `identify` calls
//!   into adaptive micro-batches (whatever queued during the last
//!   sweep, up to a size cap), executes
//!   them through the shards' single-pass multi-query scan kernel, and
//!   sheds excess load with [`ProtocolError::Overloaded`] instead of
//!   queueing without bound.
//! * [`store`] — durable enrollment: the [`EnrollmentStore`]
//!   abstraction, the file-backed append-only journal + compacted
//!   snapshots ([`FileStore`]), and crash-safe recovery
//!   ([`AuthenticationServer::recover`], [`concurrent::SharedServer::recover`])
//!   with torn-tail truncation and parameter-fingerprint validation.
//!
//! # The efficiency claim
//!
//! The normal approach must run `Rep` + sign + verify once per enrolled
//! user (`O(N)` heavy crypto); the proposed protocol finds the record with
//! cheap integer comparisons and then runs exactly **one** `Rep`, one
//! signature and one verification, independent of `N`. [`ProtocolRunner`]
//! exposes both paths with operation counters so the benches can
//! regenerate Fig. 4.
//!
//! ```rust
//! use fe_protocol::{BiometricDevice, AuthenticationServer, SystemParams};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fe_protocol::ProtocolError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(10);
//! let params = SystemParams::insecure_test_defaults();
//! let device = BiometricDevice::new(params.clone());
//! let mut server = AuthenticationServer::new(params.clone());
//!
//! // Enrollment (Fig. 1).
//! let bio = params.sketch().line().random_vector(64, &mut rng);
//! server.enroll(device.enroll("alice", &bio, &mut rng)?)?;
//!
//! // Identification (Fig. 3): fresh sketch → challenge → signature.
//! let noisy: Vec<i64> = bio.iter().map(|x| x + 40).collect();
//! let probe = device.probe_sketch(&noisy, &mut rng)?;
//! let challenge = server.begin_identification(&probe, &mut rng)?;
//! let response = device.respond(&noisy, &challenge, &mut rng)?;
//! let outcome = server.finish_identification(&response)?;
//! assert_eq!(outcome.identity(), Some("alice"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
mod device;
mod error;
mod messages;
mod normal;
mod params;
mod records;
mod runner;
pub mod scheduler;
mod server;
pub mod store;
pub mod wire;

pub use device::BiometricDevice;
pub use error::ProtocolError;
pub use fe_core::{FilterConfig, PlaneDepth};
pub use messages::{
    EnrollmentRecord, IdentChallenge, IdentOutcome, IdentResponse, SessionId, UserId, WireHelper,
};
pub use normal::{NormalIdentification, NormalStats};
pub use params::SystemParams;
pub use records::id_hashes;
pub use runner::{IdentifyStats, ProtocolRunner};
pub use scheduler::{IdentifyTicket, ScheduledServer, SchedulerConfig, SchedulerMetrics};
pub use server::{AuthenticationServer, BuildIndex};
pub use store::{EnrollmentStore, FileStore, LogEvent, MemoryStore};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// Std's locks with poisoning ignored: a thread that panics holding one
// must not wedge every later caller, and each guarded state is valid
// between operations.

/// Locks `mutex`, shrugging off poisoning.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `rwlock`, shrugging off poisoning.
pub(crate) fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `rwlock`, shrugging off poisoning.
pub(crate) fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}
