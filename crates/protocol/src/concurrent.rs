//! A thread-safe, shard-partitioned server: many biometric devices
//! identifying against one logical authentication server concurrently.
//!
//! The ICDCS venue is a distributed-computing conference; a production
//! authentication server handles concurrent identification sessions. The
//! seed implementation serialized *everything* behind one global
//! `RwLock<AuthenticationServer>`; this wrapper partitions users across
//! `N` independent server shards and serves the hot path without the
//! shards' state locks:
//!
//! * **Reads never wait for writers.** Each shard's sketch index is an
//!   [`EpochIndex`]: writers publish immutable snapshots (sealed
//!   segments + the open head) by swapping an `Arc` behind a shared
//!   `RwLock`, and every shard keeps a detached [`IndexReader`] over
//!   it. The expensive part of identification — the sweep over
//!   conditions (1)–(4) — holds that read lock for one `Arc` clone,
//!   then runs with no lock at all and no wait on enrollment churn;
//!   only the brief challenge bookkeeping afterwards takes the shard's
//!   write lock, revalidated against renumbering and revocation (see
//!   below). "Lock-free" below means exactly this: a sweep that never
//!   takes the shard's state lock.
//! * **One write sequence, journal I/O off the read path.** Every shard
//!   keeps its write-ahead journal — `None` in memory — *outside* the
//!   state lock, behind a per-shard mutex, and every enroll, refusal
//!   and revocation runs the same steps under it: plan under a read
//!   lock, append (+ optional fsync) with **no state lock held** when
//!   there is a journal, then apply under the write lock. A reader
//!   never observes a critical section that contains disk I/O.
//! * **Writes are fine-grained.** Enrollment, revocation and challenge
//!   bookkeeping take the write lock of one shard only, leaving the
//!   other `N − 1` shards untouched.
//! * **Sessions need no coordination.** Shard `i` issues session ids
//!   `i + 1, i + 1 + N, i + 1 + 2N, …`
//!   ([`AuthenticationServer::set_session_namespace`]), so a response is
//!   routed back to its shard by arithmetic alone.
//! * **Batching amortizes publication loads.** [`SharedServer::identify_batch`]
//!   resolves a whole queue of probes with one snapshot load per shard
//!   sweep and one write-lock acquisition per shard it visits.
//!
//! # The generation check
//!
//! A lock-free scan returns *record slots* that are only meaningful
//! against the numbering it scanned. Revocation tombstones a slot in
//! place (the scan simply stops matching it, and every slot-consuming
//! helper re-validates liveness), but **compaction renumbers**. Every
//! structural renumbering bumps the index's generation
//! ([`fe_core::SketchIndex::generation`]), so the scan captures the
//! published generation first and re-checks it under the state lock
//! before consuming a slot: mismatch → rescan. Generations are monotone
//! and renumbering requires the write lock, so an equal generation under
//! the lock proves the slots are current.
//!
//! A revoked hit forces a rescan too, and so does any revocation on the
//! shard while the sweep ran. A sweep reads each row's tombstone as it
//! passes the row, and covers only the rows published when it reached
//! them. So a record revoked ahead of the sweep and re-enrolled behind
//! it is missed, though it matched throughout; a reset would then count
//! one match where two remain. Each shard counts its revocations, and
//! the sweep compares the count taken before it with the count under
//! the lock. Equal, with an equal generation, means the sweep saw the
//! match set of one instant, every hit live. Otherwise the shard is
//! swept once more with the lock held, where the published snapshot is
//! the state, so no lookup retries more than once. One shard method
//! runs this step for every lookup.
//!
//! Users are assigned to shards by a stable hash of their id; probes
//! (which carry no identity — that is the point of the protocol) are
//! searched on all shards.

use crate::messages::{
    EnrollmentRecord, IdentChallenge, IdentOutcome, IdentResponse, SessionId, UserId,
};
use crate::params::SystemParams;
use crate::server::{AuthenticationServer, BuildIndex, Write};
use crate::store::{EnrollmentStore, FileStore};
use crate::{lock, read, write, ProtocolError};
use fe_core::{EpochIndex, EpochRead, IndexReader};
use rand::RngCore;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One server shard: the locked writer state, its lock-free index
/// reader, and the journal held outside the lock.
struct Shard<I: EpochRead> {
    /// Record table, session bookkeeping and the index *writer*.
    state: RwLock<AuthenticationServer<I>>,
    /// The shard's write-ahead journal, `None` for an in-memory shard.
    /// Held **outside** the state lock: appends (and their fsyncs)
    /// serialize writers on this mutex instead of the state lock, so no
    /// reader ever waits on disk. The mutex is also what serializes the
    /// full plan → append → apply write sequence — journal order *is*
    /// replay order — and an in-memory shard takes it too, so there is
    /// one write path, not one per kind of shard.
    journal: Mutex<Option<Box<dyn EnrollmentStore>>>,
    /// Lock-free reader over the index's published snapshots.
    reader: I::Reader,
    /// Revocations applied, bumped under the write lock once the
    /// tombstone is published: a sweep that saw it move may have missed
    /// a record that was live throughout (see [`Shard::sweep`]).
    revocations: AtomicU64,
    /// Sweeps run on the reader (diagnostics; the server's own helpers
    /// count theirs in the server's counter).
    reads: AtomicU64,
}

impl<I: EpochRead> Shard<I> {
    /// Wraps a built (or recovered) server, detaching its store into
    /// the journal mutex and taking the index's reader handle.
    fn from_server(mut server: AuthenticationServer<I>) -> Shard<I> {
        let journal = Mutex::new(server.detach_store());
        let reader = server.index().reader();
        Shard {
            state: RwLock::new(server),
            journal,
            reader,
            revocations: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// The write sequence, journal-outside-lock: under the journal
    /// mutex, which the caller holds and passes in, `plan` runs under
    /// the read lock, the append (with any fsync) under **no state
    /// lock**, and only the in-memory apply takes the write lock.
    /// Readers on the lock-free path never wait; even read-locked
    /// helpers never sit behind disk I/O.
    fn write(
        &self,
        journal: &mut Option<Box<dyn EnrollmentStore>>,
        plan: impl FnOnce(&AuthenticationServer<I>) -> Result<Write, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        // The plan outlives the read lock because the journal mutex
        // held by the caller is what serializes this shard's writers.
        let planned = plan(&read(&self.state))?;
        planned.journal(journal)?;
        let revokes = matches!(planned, Write::Revoke(..));
        let mut state = write(&self.state);
        state.apply(planned)?;
        if revokes {
            // Release, after the tombstone: pairs with the Acquire load
            // at the start of `sweep`, which then sees the tombstone.
            self.revocations.fetch_add(1, Ordering::Release);
        }
        Ok(())
    }

    /// The read step of every lookup (module docs, "The generation
    /// check"): `scan` sweeps the lock-free reader, then the state lock
    /// is taken with `lock`. If the index renumbered or a record was
    /// revoked since the sweep began, `scan` runs again with the lock
    /// held, where the published snapshot *is* the state. Either way
    /// the result is the match set of one instant, returned with the
    /// guard still held so every slot in it is live and current.
    fn sweep<'s, T, G: Deref<Target = AuthenticationServer<I>>>(
        &'s self,
        scan: impl Fn(&I::Reader) -> T,
        lock: impl FnOnce(&'s RwLock<AuthenticationServer<I>>) -> G,
    ) -> (T, G) {
        let generation = self.reader.generation();
        let revocations = self.revocations.load(Ordering::Acquire);
        self.reads.fetch_add(1, Ordering::Relaxed);
        let mut found = scan(&self.reader);
        let server = lock(&self.state);
        if server.index_generation() != generation
            || self.revocations.load(Ordering::Relaxed) != revocations
        {
            self.reads.fetch_add(1, Ordering::Relaxed);
            found = scan(&self.reader);
        }
        (found, server)
    }

    /// The ids of the (at most `budget`) lowest-slot records matching
    /// `probe`, at one instant.
    fn matches(&self, probe: &[i64], budget: usize) -> Vec<UserId> {
        let (hits, server) = self.sweep(|r| r.find(probe, None, budget), read);
        let id = |slot| server.user_at(slot).expect("swept hits are live");
        hits.into_iter().map(|slot| id(slot).to_string()).collect()
    }
}

/// A cloneable, thread-safe handle to a shard-partitioned
/// [`AuthenticationServer`], generic over the per-shard sketch index
/// (any [`EpochRead`] index; the epoch engine [`EpochIndex`] by
/// default).
pub struct SharedServer<I: EpochRead = EpochIndex> {
    shards: Arc<Vec<Shard<I>>>,
    params: SystemParams,
}

impl<I: EpochRead> fmt::Debug for SharedServer<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedServer")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl<I: EpochRead> Clone for SharedServer<I> {
    fn clone(&self) -> Self {
        SharedServer {
            shards: Arc::clone(&self.shards),
            params: self.params.clone(),
        }
    }
}

/// Stable (process-independent) FNV-1a hash for shard routing.
fn route_hash(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SharedServer<EpochIndex> {
    /// Creates a shared server with a single epoch-index shard — the
    /// default configuration.
    pub fn new(params: SystemParams) -> Self {
        Self::with_shards(params, 1)
    }
}

impl<I: BuildIndex + EpochRead> SharedServer<I> {
    /// Creates a shared server partitioned into `shards` independent
    /// [`AuthenticationServer`]s, each with an index built from
    /// `params` (see [`BuildIndex`]).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_shards(params: SystemParams, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one server shard");
        let stride = shards as u64;
        let shards = (0..shards)
            .map(|i| {
                let mut server = AuthenticationServer::<I>::from_params(params.clone());
                server.set_session_namespace(i as u64 + 1, stride);
                Shard::from_server(server)
            })
            .collect();
        SharedServer {
            shards: Arc::new(shards),
            params,
        }
    }

    /// The on-disk subdirectory holding shard `i`'s journal + snapshot.
    fn shard_dir(dir: &Path, i: usize) -> std::path::PathBuf {
        dir.join(format!("shard-{i:03}"))
    }

    /// File recording the shard count the store was created with. It is
    /// committed (tmp + rename) *before* any shard store is opened, so a
    /// crash mid-initialization can never leave an ambiguous topology —
    /// and a lost shard subdirectory is detected instead of silently
    /// shrinking the count.
    const SHARDS_META: &'static str = "shards.meta";

    /// Reads the committed shard count, if the store was initialized.
    fn stored_shard_count(dir: &Path) -> Result<Option<usize>, ProtocolError> {
        match std::fs::read_to_string(dir.join(Self::SHARDS_META)) {
            Ok(s) => s
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Some)
                .ok_or_else(|| {
                    ProtocolError::Storage(format!(
                        "corrupt {} in {}",
                        Self::SHARDS_META,
                        dir.display()
                    ))
                }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ProtocolError::Storage(format!(
                "read {}: {e}",
                Self::SHARDS_META
            ))),
        }
    }

    /// Atomically commits the shard count (tmp + rename).
    fn commit_shard_count(dir: &Path, shards: usize) -> Result<(), ProtocolError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ProtocolError::Storage(format!("create store dir: {e}")))?;
        let tmp = dir.join(format!("{}.tmp", Self::SHARDS_META));
        std::fs::write(&tmp, format!("{shards}\n"))
            .map_err(|e| ProtocolError::Storage(format!("write {}: {e}", Self::SHARDS_META)))?;
        std::fs::rename(&tmp, dir.join(Self::SHARDS_META))
            .map_err(|e| ProtocolError::Storage(format!("commit {}: {e}", Self::SHARDS_META)))?;
        Ok(())
    }

    /// Opens (or creates) a **durable** shared server at `dir`: one
    /// `shard-NNN/` store per server shard, each an append-only journal
    /// plus compacted snapshots (see [`crate::store::FileStore`]).
    /// Every shard replays its own snapshot + journal tail, rebuilding
    /// its index; enroll/revoke are journaled from then on — with
    /// the journal held outside the state lock, so appends never stall
    /// a reader. A shard's appends are written and flushed but never
    /// fsynced (checkpoints do sync their snapshots): per-append
    /// `sync_data` ([`FileStore::set_sync`](crate::store::FileStore::set_sync))
    /// is reachable only through
    /// [`AuthenticationServer::recover_with_store`](crate::AuthenticationServer::recover_with_store).
    ///
    /// User → shard routing is a stable hash of the id modulo the shard
    /// count, so the on-disk layout is only meaningful for the count it
    /// was written with: reopening with a different `shards` value is
    /// refused ([`ProtocolError::Storage`]). Use
    /// [`SharedServer::recover`] to adopt whatever count the directory
    /// already holds.
    ///
    /// ```rust
    /// use fe_core::EpochIndex;
    /// use fe_protocol::concurrent::SharedServer;
    /// use fe_protocol::{BiometricDevice, SystemParams};
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let dir = std::env::temp_dir().join(format!("fe-durable-doc-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let params = SystemParams::insecure_test_defaults();
    /// let device = BiometricDevice::new(params.clone());
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    ///
    /// // Lifetime 1: enroll against a 2-shard durable server, then crash.
    /// let server = SharedServer::<EpochIndex>::durable(params.clone(), 2, &dir)?;
    /// let bio = params.sketch().line().random_vector(16, &mut rng);
    /// server.enroll(device.enroll("alice", &bio, &mut rng)?)?;
    /// drop(server);
    ///
    /// // Lifetime 2: recover() adopts the stored shard count and replays.
    /// let server = SharedServer::<EpochIndex>::recover(params.clone(), &dir)?;
    /// assert_eq!((server.num_shards(), server.user_count()), (2, 1));
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] / [`ProtocolError::Codec`] on
    /// unreadable, foreign, or mis-sharded stores.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn durable(
        params: SystemParams,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<Self, ProtocolError> {
        assert!(shards >= 1, "need at least one server shard");
        let dir = dir.as_ref();
        match Self::stored_shard_count(dir)? {
            Some(existing) if existing != shards => {
                return Err(ProtocolError::Storage(format!(
                    "store at {} was written with {existing} shard(s), cannot open with {shards} \
                     (user→shard routing would change; use SharedServer::recover to adopt the \
                     stored count)",
                    dir.display()
                )));
            }
            Some(_) => {
                // The meta file is only committed after every shard
                // store exists, so a missing store now means shard
                // data was *lost* — refuse rather than silently
                // recreate the shard empty (a third of the population
                // vanishing on recovery must not look like success).
                for i in 0..shards {
                    let shard_dir = Self::shard_dir(dir, i);
                    if !FileStore::exists(&shard_dir) {
                        return Err(ProtocolError::Storage(format!(
                            "shard store {} is missing ({} holds no store); \
                             refusing to recreate it empty — restore the shard directory \
                             from backup or remove {} to start over",
                            i,
                            shard_dir.display(),
                            dir.display()
                        )));
                    }
                }
            }
            // Fresh store: create every shard store (an empty
            // journal) first, then commit the topology. After a crash at
            // any point, either the meta is absent (retry re-runs this
            // fresh path; stores already created are adopted) or the
            // meta exists and every shard store is guaranteed on disk.
            None => {
                let fingerprint = params.fingerprint();
                for i in 0..shards {
                    FileStore::open(Self::shard_dir(dir, i), fingerprint)?;
                }
                Self::commit_shard_count(dir, shards)?;
            }
        }
        let stride = shards as u64;
        let shards = (0..shards)
            .map(|i| {
                let mut server =
                    AuthenticationServer::<I>::recover(params.clone(), Self::shard_dir(dir, i))?;
                server.set_session_namespace(i as u64 + 1, stride);
                Ok(Shard::from_server(server))
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        Ok(SharedServer {
            shards: Arc::new(shards),
            params,
        })
    }

    /// Recovers a durable shared server from `dir`, adopting the shard
    /// count the store was written with — the "restart after crash"
    /// entry point. Equivalent to [`SharedServer::durable`] with the
    /// discovered count.
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] when `dir` holds no shard stores;
    /// otherwise as [`SharedServer::durable`].
    pub fn recover(params: SystemParams, dir: impl AsRef<Path>) -> Result<Self, ProtocolError> {
        let dir = dir.as_ref();
        let shards = Self::stored_shard_count(dir)?.ok_or_else(|| {
            ProtocolError::Storage(format!("no shard store found under {}", dir.display()))
        })?;
        Self::durable(params, shards, dir)
    }
}

impl<I: EpochRead> SharedServer<I> {
    /// The system parameters (lock-free).
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Number of server shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_index_for_user(&self, id: &str) -> usize {
        (route_hash(id) % self.shards.len() as u64) as usize
    }

    fn shard_for_user(&self, id: &str) -> &Shard<I> {
        &self.shards[self.shard_index_for_user(id)]
    }

    fn shard_for_session(&self, session: SessionId) -> &Shard<I> {
        // Shard i issues sessions ≡ i + 1 (mod N); session 0 never
        // occurs but would harmlessly map to some shard and then fail
        // with `UnknownSession`.
        &self.shards[((session.wrapping_sub(1)) % self.shards.len() as u64) as usize]
    }

    /// Enrolls a record (journal append outside the state lock; the
    /// write lock of exactly one shard, briefly, for the in-memory
    /// apply).
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::enroll`].
    pub fn enroll(&self, record: EnrollmentRecord) -> Result<(), ProtocolError> {
        let shard = self.shard_for_user(&record.id);
        shard.write(&mut lock(&shard.journal), |server| {
            server.plan_enroll(record, false)
        })
    }

    /// Revokes a user (journal append outside the state lock; one
    /// shard's write lock, briefly, for the in-memory apply).
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::revoke`].
    pub fn revoke(&self, id: &str) -> Result<(), ProtocolError> {
        let shard = self.shard_for_user(id);
        shard.write(&mut lock(&shard.journal), |server| server.plan_revoke(id))
    }

    /// Uniqueness-checked enrollment across the whole partitioned
    /// population: every shard's journal mutex is taken, in shard
    /// order, then the non-home shards are swept (find-at-most-1 on
    /// each shard's reader) and the record's home shard runs the
    /// duplicate check + insert. Every enroll, revoke and checkpoint
    /// holds its shard's journal mutex, so none lands anywhere between
    /// the first sweep and the insert: the check is atomic with the
    /// insert across the whole population. Lookups and challenges do
    /// not take the journal mutex and keep being served. Cross-shard
    /// refusals are not journaled (no shard owns them); home-shard
    /// refusals are journaled as usual.
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::enroll_unique`].
    pub fn enroll_unique(&self, record: EnrollmentRecord) -> Result<(), ProtocolError> {
        let home = self.shard_index_for_user(&record.id);
        // Shard order everywhere, and journal before state: no cycle.
        let mut journals: Vec<_> = self.shards.iter().map(|s| lock(&s.journal)).collect();
        for (i, shard) in self.shards.iter().enumerate() {
            if i == home {
                continue;
            }
            if let Some(matched) = shard.matches(&record.helper.sketch.inner, 1).pop() {
                return Err(ProtocolError::DuplicateBiometric(matched));
            }
        }
        self.shards[home].write(&mut journals[home], |server| {
            server.plan_enroll(record, true)
        })
    }

    /// Reset / account-recovery lookup across all shards: succeeds only
    /// when **exactly one** enrolled record in the whole population
    /// matches the probe. Each shard contributes a **lock-free**
    /// find-at-most-2 sweep on its reader; matched slots are resolved
    /// to user ids under a brief read lock, and the scan stops at the
    /// first shard that pushes the global tally past one. A revoked hit
    /// forces a rescan of its shard, as does any revocation there while
    /// the sweep ran (module docs, "The generation check"). Dropping the
    /// hit from the tally instead would count one match where two
    /// remain, and reset a user.
    ///
    /// # Errors
    /// [`ProtocolError::NoMatch`] / [`ProtocolError::AmbiguousMatch`] as
    /// [`AuthenticationServer::reset`].
    pub fn reset(&self, probe: &[i64]) -> Result<UserId, ProtocolError> {
        let mut found = Vec::new();
        for shard in self.shards.iter() {
            found.extend(shard.matches(probe, 2));
            if found.len() > 1 {
                return Err(ProtocolError::AmbiguousMatch);
            }
        }
        found.pop().ok_or(ProtocolError::NoMatch)
    }

    /// Targeted sketch check against a claimed identity, routed straight
    /// to the user's shard (read lock; no cross-shard search — the O(1)
    /// subset probe is not worth a revalidated round trip).
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::authenticate_claimed`].
    pub fn authenticate_claimed(
        &self,
        claimed_id: &str,
        probe: &[i64],
    ) -> Result<bool, ProtocolError> {
        read(&self.shard_for_user(claimed_id).state).authenticate_claimed(claimed_id, probe)
    }

    /// Subset uniqueness check: `Ok(true)` when the probe matches none
    /// of the listed users' records. Ids are grouped by home shard, and
    /// each shard runs its masked find-at-most-1 sweep under its read
    /// lock — like [`SharedServer::authenticate_claimed`], a sweep that
    /// visits only the listed rows is not worth a revalidated
    /// round trip. Every shard is checked even after a match is found,
    /// so an unknown id fails regardless of subset order.
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::check_local_uniqueness`].
    pub fn check_local_uniqueness(
        &self,
        probe: &[i64],
        ids: &[UserId],
    ) -> Result<bool, ProtocolError> {
        let mut by_shard: Vec<Vec<UserId>> = vec![Vec::new(); self.shards.len()];
        for id in ids {
            by_shard[self.shard_index_for_user(id)].push(id.clone());
        }
        let mut unique = true;
        for (shard, subset) in self.shards.iter().zip(&by_shard) {
            if !subset.is_empty() {
                unique &= read(&shard.state).check_local_uniqueness(probe, subset)?;
            }
        }
        Ok(unique)
    }

    /// Identification phase 1: [`SharedServer::identify_batch`] on one
    /// probe. The sketch lookup runs **lock-free** on each shard's
    /// reader; the write lock is taken, briefly, to issue the challenge
    /// (revalidated, see the module docs).
    ///
    /// With more than one shard, *which* record wins when several
    /// enrolled users match the same probe (a false-close or duplicate
    /// enrollment) is earliest-enrolled **within the first matching
    /// shard in routing order** — deterministic, but not necessarily
    /// the globally earliest enrollment as on a single shard. Matching
    /// more than one user is already a protocol-level anomaly (the
    /// paper's false-close probability bounds it), so partitioned
    /// deployments accept this in exchange for not maintaining a global
    /// enrollment order across shards.
    ///
    /// # Errors
    /// [`ProtocolError::NoMatch`] when no shard holds a matching record.
    pub fn begin_identification<R: RngCore + ?Sized>(
        &self,
        probe: &[i64],
        rng: &mut R,
    ) -> Result<IdentChallenge, ProtocolError> {
        let mut results = self.identify_batch(&[probe], rng);
        results.pop().expect("one result per probe")
    }

    /// Batch identification phase 1: resolves many probes per snapshot
    /// sweep, entirely **lock-free** on the scan side. Every shard sees
    /// its whole remaining workload through the reader's batch path —
    /// one snapshot load and (for arena-backed indexes) **one pass over
    /// the shard's storage for the entire batch**, the multi-query
    /// kernel the request scheduler is built on; later shards scan only
    /// the probes the earlier ones missed. The probes are borrowed
    /// throughout, never copied. Each shard's write lock is taken once
    /// to issue its challenges (revalidated, see the module docs).
    /// Results are position-aligned with `probes`.
    ///
    /// Cross-shard match selection follows the same routing-order rule
    /// as [`SharedServer::begin_identification`].
    pub fn identify_batch<R: RngCore + ?Sized>(
        &self,
        probes: &[impl AsRef<[i64]>],
        rng: &mut R,
    ) -> Vec<Result<IdentChallenge, ProtocolError>> {
        let mut results: Vec<Result<IdentChallenge, ProtocolError>> = (0..probes.len())
            .map(|_| Err(ProtocolError::NoMatch))
            .collect();
        // Probes still unresolved after the shards visited so far, and
        // the rows of those probes.
        let mut unresolved: Vec<usize> = (0..probes.len()).collect();
        let mut batch: Vec<&[i64]> = probes.iter().map(AsRef::as_ref).collect();
        for shard in self.shards.iter() {
            if unresolved.is_empty() {
                break;
            }
            let (firsts, mut server) = shard.sweep(|r| r.find_first_batch(&batch), write);
            for (&p, first) in unresolved.iter().zip(firsts) {
                if let Some(slot) = first {
                    let chal = server.challenge_for_record(slot, rng);
                    results[p] = Ok(chal.expect("swept hits are live"));
                }
            }
            unresolved.retain(|&p| results[p].is_err());
            batch.clear();
            batch.extend(unresolved.iter().map(|&p| probes[p].as_ref()));
        }
        results
    }

    /// Verification phase 1 (claimed identity): routes to the user's
    /// shard directly — no cross-shard search.
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::begin_verification`].
    pub fn begin_verification<R: RngCore + ?Sized>(
        &self,
        claimed_id: &str,
        rng: &mut R,
    ) -> Result<IdentChallenge, ProtocolError> {
        write(&self.shard_for_user(claimed_id).state).begin_verification(claimed_id, rng)
    }

    /// Phase 2: verify the response, routed to the issuing shard by the
    /// session-id namespace.
    ///
    /// # Errors
    /// Same as [`AuthenticationServer::finish_identification`].
    pub fn finish_identification(
        &self,
        response: &IdentResponse,
    ) -> Result<IdentOutcome, ProtocolError> {
        write(&self.shard_for_session(response.session).state).finish_identification(response)
    }

    /// Cancels an outstanding challenge, routed to the issuing shard by
    /// the session-id namespace. No timeout calls this: an abandoned
    /// challenge stays in its shard's `pending` map until it is
    /// answered or cancelled here, or, once its record is revoked, until
    /// the shard's next checkpoint compacts it away; nothing caps that
    /// map yet.
    pub fn cancel_session(&self, session: SessionId) -> bool {
        write(&self.shard_for_session(session).state).cancel_session(session)
    }

    /// Checkpoints every shard: compacts tombstones in memory and (for
    /// durable servers) writes a fresh snapshot and truncates each
    /// shard's journal. The compaction is the only reclaim of revoked
    /// enrollments — their index rows, record-table blocks and slots
    /// and open challenges all leave here, and nowhere else.
    /// Shards are checkpointed one at a time, each under its journal
    /// mutex + write lock, so the server keeps serving on the other
    /// `N − 1` shards (and lock-free reads on *this* shard keep
    /// matching against the last published snapshot) while each
    /// snapshot is written. Returns the total record slots reclaimed.
    ///
    /// # Errors
    /// Fails on the first shard whose snapshot cannot be written
    /// ([`ProtocolError::Storage`]); earlier shards keep their new
    /// checkpoints, later shards keep their old ones — both states
    /// recover correctly.
    pub fn checkpoint(&self) -> Result<usize, ProtocolError> {
        let mut reclaimed = 0;
        for shard in self.shards.iter() {
            // Journal mutex first, as in every write.
            let mut journal = lock(&shard.journal);
            reclaimed += write(&shard.state).checkpoint_into(&mut journal)?;
        }
        Ok(reclaimed)
    }

    /// Journal events accumulated across shards since their last
    /// checkpoints (the replay debt a recovery would pay).
    pub fn journal_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(&s.journal).as_ref().map_or(0, |j| j.journal_len()))
            .sum()
    }

    /// Number of enrolled users across all shards.
    pub fn user_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read(&s.state).user_count())
            .sum()
    }

    /// Heap bytes of every shard's record table (see
    /// [`AuthenticationServer::record_heap_bytes`]): what the server
    /// holds per user besides the index rows.
    pub fn record_heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read(&s.state).record_heap_bytes())
            .sum()
    }

    /// Arena bytes every shard still holds for revoked records (see
    /// [`AuthenticationServer::dead_record_bytes`]); 0 after a
    /// [`SharedServer::checkpoint`].
    pub fn dead_record_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read(&s.state).dead_record_bytes())
            .sum()
    }

    /// Total sketch lookups served across all shards (diagnostics):
    /// lock-free reader sweeps plus the state-locked helpers' own
    /// counts.
    pub fn lookup_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| read(&s.state).lookup_count() + s.reads.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BiometricDevice;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn enroll_population<I: EpochRead>(
        server: &SharedServer<I>,
        device: &BiometricDevice,
        users: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<i64>> {
        let mut bios = Vec::new();
        for u in 0..users {
            let bio = server.params().sketch().line().random_vector(dim, rng);
            server
                .enroll(device.enroll(&format!("user-{u}"), &bio, rng).unwrap())
                .unwrap();
            bios.push(bio);
        }
        bios
    }

    fn identification_storm<I: EpochRead + Send + Sync>(server: SharedServer<I>) {
        let params = server.params().clone();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(808);
        let users = 8usize;
        let bios = enroll_population(&server, &device, users, 32, &mut rng);
        assert_eq!(server.user_count(), users);

        std::thread::scope(|scope| {
            for (u, bio) in bios.iter().enumerate() {
                let server = server.clone();
                let device = device.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(9_000 + u as u64);
                    let reading: Vec<i64> = bio
                        .iter()
                        .map(|&x| x + rng.gen_range(-80i64..=80))
                        .collect();
                    let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                    let chal = server.begin_identification(&probe, &mut rng).unwrap();
                    let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                    let outcome = server.finish_identification(&resp).unwrap();
                    assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                });
            }
        });
    }

    #[test]
    fn concurrent_identifications_single_shard() {
        identification_storm(SharedServer::new(SystemParams::insecure_test_defaults()));
    }

    #[test]
    fn concurrent_identifications_four_shards() {
        identification_storm(SharedServer::<EpochIndex>::with_shards(
            SystemParams::insecure_test_defaults(),
            4,
        ));
    }

    #[test]
    fn concurrent_enrollments_all_land() {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 3);
        let device = BiometricDevice::new(params.clone());

        std::thread::scope(|scope| {
            for u in 0..16 {
                let server = server.clone();
                let device = device.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(42 + u as u64);
                    let bio = device.params().sketch().line().random_vector(16, &mut rng);
                    server
                        .enroll(device.enroll(&format!("c-{u}"), &bio, &mut rng).unwrap())
                        .unwrap();
                });
            }
        });
        assert_eq!(server.user_count(), 16);
    }

    /// Revoked rows stay in their sealed segment as tombstones until a
    /// compaction. Two default-threshold segments of synthetic users,
    /// every third user of the first one revoked: the lock-free reader
    /// and the locked path both answer exactly as a one-arena
    /// `ScanIndex` server fed the same script.
    #[test]
    fn revocations_in_a_sealed_segment_answer_like_a_scan_index() {
        use fe_core::{ScanIndex, SecureSketch};
        const SEAL: usize = 65_536; // the default threshold at this dimension
        let params = SystemParams::insecure_test_defaults();
        let mut rng = StdRng::seed_from_u64(0x5EA1);
        let line = *params.sketch().line();
        let donor = BiometricDevice::new(params.clone())
            .enroll("donor", &line.random_vector(4, &mut rng), &mut rng)
            .unwrap();
        let server = SharedServer::new(params.clone());
        let mut reference = AuthenticationServer::<ScanIndex>::from_params(params.clone());
        let mut probes = Vec::new();
        for u in 0..2 * SEAL + 100 {
            let mut record = donor.clone();
            record.id = format!("user-{u}");
            record.helper.sketch.inner = params
                .sketch()
                .sketch(&line.random_vector(24, &mut rng), &mut rng)
                .unwrap();
            if u % 1_000 < 3 {
                probes.push(record.helper.sketch.inner.clone());
            }
            server.enroll(record.clone()).unwrap();
            reference.enroll(record).unwrap();
        }
        for u in (0..SEAL).step_by(3) {
            server.revoke(&format!("user-{u}")).unwrap();
            reference.revoke(&format!("user-{u}")).unwrap();
        }

        let shard = &server.shards[0];
        let state = read(&shard.state);
        let shape = |s: &Arc<fe_core::Segment>| (s.rows(), s.live());
        let segments = state.index().segments();
        assert_eq!(segments.len(), 2);
        assert_eq!(shape(&segments[0]), (SEAL, SEAL - SEAL.div_ceil(3)));
        assert_eq!(shape(&segments[1]), (SEAL, SEAL));
        assert_eq!(state.index().staging_rows(), 100);
        // user-0 is gone, user-1 kept its id.
        assert_ne!(reference.find(&probes[0], None, 1).pop(), Some(0));
        assert_eq!(reference.find(&probes[1], None, 1).pop(), Some(1));
        for probe in &probes {
            let expect = reference.find(probe, None, 1).pop();
            assert_eq!(shard.reader.find_first(probe), expect);
            assert_eq!(state.find(probe, None, 1).pop(), expect);
        }
    }

    #[test]
    fn batch_identification_resolves_whole_queue() {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 4);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(4_242);
        let bios = enroll_population(&server, &device, 10, 32, &mut rng);

        let mut readings = Vec::new();
        let mut probes = Vec::new();
        for bio in &bios {
            let reading: Vec<i64> = bio
                .iter()
                .map(|&x| x + rng.gen_range(-80i64..=80))
                .collect();
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
            readings.push(reading);
        }
        // Two impostors interleaved with the genuine queue.
        let stranger = params.sketch().line().random_vector(32, &mut rng);
        probes.push(device.probe_sketch(&stranger, &mut rng).unwrap());

        let results = server.identify_batch(&probes, &mut rng);
        assert_eq!(results.len(), 11);
        assert!(matches!(results[10], Err(ProtocolError::NoMatch)));
        // Session ids are unique across shard namespaces…
        let mut sessions: Vec<SessionId> = results[..10]
            .iter()
            .map(|r| r.as_ref().unwrap().session)
            .collect();
        sessions.sort_unstable();
        sessions.dedup();
        assert_eq!(sessions.len(), 10);
        // …and every challenge resolves to the right user.
        for (u, result) in results[..10].iter().enumerate() {
            let chal = result.as_ref().unwrap();
            let resp = device.respond(&readings[u], chal, &mut rng).unwrap();
            let outcome = server.finish_identification(&resp).unwrap();
            assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
        }
    }

    #[test]
    fn cancel_session_routes_across_shards() {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 3);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(6_100);
        let bios = enroll_population(&server, &device, 6, 32, &mut rng);

        for (u, bio) in bios.iter().enumerate() {
            let reading: Vec<i64> = bio.iter().map(|&x| x + 20).collect();
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            let chal = server.begin_identification(&probe, &mut rng).unwrap();
            assert!(server.cancel_session(chal.session), "user {u}");
            let resp = device.respond(&reading, &chal, &mut rng).unwrap();
            assert!(matches!(
                server.finish_identification(&resp),
                Err(ProtocolError::UnknownSession)
            ));
        }
        assert!(!server.cancel_session(0), "session 0 is never issued");
    }

    #[test]
    fn durable_shared_server_survives_crash_and_adopts_shard_count() {
        let dir = std::env::temp_dir().join(format!("fe-shared-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(7_700);

        let server = SharedServer::<EpochIndex>::durable(params.clone(), 3, &dir).unwrap();
        let bios = enroll_population(&server, &device, 8, 32, &mut rng);
        server.revoke("user-3").unwrap();
        server.revoke("user-6").unwrap();
        assert_eq!(server.journal_len(), 10);
        drop(server); // crash without checkpoint

        // Reopening with the wrong shard count is refused…
        assert!(matches!(
            SharedServer::<EpochIndex>::durable(params.clone(), 5, &dir),
            Err(ProtocolError::Storage(_))
        ));
        // …while recover() discovers the stored count.
        let server = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
        assert_eq!(server.num_shards(), 3);
        assert_eq!(server.user_count(), 6);

        for (u, bio) in bios.iter().enumerate() {
            let reading: Vec<i64> = bio.iter().map(|&x| x + 31).collect();
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            if u == 3 || u == 6 {
                assert!(matches!(
                    server.begin_identification(&probe, &mut rng),
                    Err(ProtocolError::NoMatch)
                ));
                continue;
            }
            let chal = server.begin_identification(&probe, &mut rng).unwrap();
            let resp = device.respond(&reading, &chal, &mut rng).unwrap();
            assert_eq!(
                server.finish_identification(&resp).unwrap().identity(),
                Some(format!("user-{u}").as_str())
            );
        }

        // Checkpoint compacts every shard's journal; recovery after it
        // still serves the same population.
        server.checkpoint().unwrap();
        assert_eq!(server.journal_len(), 0);
        drop(server);
        let server = SharedServer::<EpochIndex>::recover(params.clone(), &dir).unwrap();
        assert_eq!(server.user_count(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_enroll_unique_journals_refusals_outside_lock() {
        let dir = std::env::temp_dir().join(format!("fe-shared-uniq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(7_900);

        let server = SharedServer::<EpochIndex>::durable(params.clone(), 2, &dir).unwrap();
        let bios = enroll_population(&server, &device, 4, 32, &mut rng);
        // A re-enrollment of user-1's biometric under a fresh id is
        // refused and the refusal is journaled on the home shard.
        let noisy: Vec<i64> = bios[1].iter().map(|&x| x + 40).collect();
        let dup = device.enroll("impostor", &noisy, &mut rng).unwrap();
        assert_eq!(
            server.enroll_unique(dup).unwrap_err(),
            ProtocolError::DuplicateBiometric("user-1".into())
        );
        let journaled = server.journal_len();
        assert!(
            journaled >= 5,
            "4 enrolls + the audit event, got {journaled}"
        );
        drop(server);
        // The refusal replays as a no-op: same population after crash.
        let server = SharedServer::<EpochIndex>::recover(params, &dir).unwrap();
        assert_eq!(server.user_count(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_refuses_when_a_shard_store_is_lost() {
        let dir = std::env::temp_dir().join(format!("fe-shared-lost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::durable(params.clone(), 3, &dir).unwrap();
        drop(server);
        // Lose one shard's data (bad rsync, disk repair, stray rm).
        std::fs::remove_dir_all(dir.join("shard-001")).unwrap();
        // Recovery must refuse instead of silently serving a population
        // with a third of the users gone.
        match SharedServer::<EpochIndex>::recover(params, &dir) {
            Err(ProtocolError::Storage(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("expected missing-shard refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_refuses_empty_directory() {
        let dir = std::env::temp_dir().join(format!("fe-shared-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            SharedServer::<EpochIndex>::recover(SystemParams::insecure_test_defaults(), &dir),
            Err(ProtocolError::Storage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matching_modes_work_across_shards() {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 3);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(12_000);
        let bios = enroll_population(&server, &device, 6, 32, &mut rng);

        // enroll_unique: the duplicate lives on whatever shard "user-2"
        // hashed to; a re-enrollment under a fresh id (hence possibly a
        // different home shard) must still be caught.
        let noisy2: Vec<i64> = bios[2].iter().map(|&x| x + 60).collect();
        let dup = device.enroll("impostor", &noisy2, &mut rng).unwrap();
        assert_eq!(
            server.enroll_unique(dup).unwrap_err(),
            ProtocolError::DuplicateBiometric("user-2".into())
        );
        let fresh = params.sketch().line().random_vector(32, &mut rng);
        server
            .enroll_unique(device.enroll("newbie", &fresh, &mut rng).unwrap())
            .unwrap();
        assert_eq!(server.user_count(), 7);

        // reset: exactly-one across the partition.
        let probe = device.probe_sketch(&noisy2, &mut rng).unwrap();
        assert_eq!(server.reset(&probe).unwrap(), "user-2");
        let stranger = params.sketch().line().random_vector(32, &mut rng);
        let miss = device.probe_sketch(&stranger, &mut rng).unwrap();
        assert_eq!(server.reset(&miss).unwrap_err(), ProtocolError::NoMatch);
        // A cross-shard duplicate (admitted by plain enroll)
        // turns reset ambiguous even when the two matches live on
        // different shards.
        server
            .enroll(device.enroll("user-2-dup", &noisy2, &mut rng).unwrap())
            .unwrap();
        let probe = device.probe_sketch(&bios[2], &mut rng).unwrap();
        assert_eq!(
            server.reset(&probe).unwrap_err(),
            ProtocolError::AmbiguousMatch
        );

        // authenticate_claimed: routed, targeted.
        let probe4 = device
            .probe_sketch(
                &bios[4].iter().map(|&x| x - 30).collect::<Vec<_>>(),
                &mut rng,
            )
            .unwrap();
        assert!(server.authenticate_claimed("user-4", &probe4).unwrap());
        assert!(!server.authenticate_claimed("user-0", &probe4).unwrap());
        assert!(matches!(
            server.authenticate_claimed("nobody", &probe4),
            Err(ProtocolError::UnknownUser(_))
        ));

        // check_local_uniqueness: subset spanning all three shards.
        let others: Vec<_> = vec!["user-0".into(), "user-1".into(), "user-3".into()];
        assert!(server.check_local_uniqueness(&probe4, &others).unwrap());
        let with4: Vec<_> = vec!["user-0".into(), "user-4".into()];
        assert!(!server.check_local_uniqueness(&probe4, &with4).unwrap());
        assert!(matches!(
            server.check_local_uniqueness(&probe4, &["ghost".into()]),
            Err(ProtocolError::UnknownUser(_))
        ));
    }

    #[test]
    fn revocation_routes_to_the_right_shard() {
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 3);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(5_100);
        let bios = enroll_population(&server, &device, 6, 32, &mut rng);

        server.revoke("user-2").unwrap();
        assert_eq!(server.user_count(), 5);
        assert!(server.revoke("user-2").is_err());

        let reading: Vec<i64> = bios[2].iter().map(|&x| x + 10).collect();
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        assert!(matches!(
            server.begin_identification(&probe, &mut rng),
            Err(ProtocolError::NoMatch)
        ));
        // Verification-mode also refuses revoked claims.
        assert!(matches!(
            server.begin_verification("user-2", &mut rng),
            Err(ProtocolError::UnknownUser(_))
        ));
        // Everyone else still identifies.
        let reading: Vec<i64> = bios[4].iter().map(|&x| x - 25).collect();
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp).unwrap().identity(),
            Some("user-4")
        );
    }

    #[test]
    fn lock_free_reads_survive_concurrent_churn() {
        // Readers identify continuously while writers enroll and revoke
        // on the same shards — the lock-free path must keep returning
        // consistent results (matched users are genuine, no panics)
        // through head appends and revocation tombstones.
        let params = SystemParams::insecure_test_defaults();
        let server = SharedServer::<EpochIndex>::with_shards(params.clone(), 2);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(31_000);
        let bios = enroll_population(&server, &device, 6, 32, &mut rng);

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for (u, bio) in bios.iter().enumerate() {
                let server = server.clone();
                let device = device.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(32_000 + u as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let reading: Vec<i64> = bio
                            .iter()
                            .map(|&x| x + rng.gen_range(-80i64..=80))
                            .collect();
                        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                        let chal = server.begin_identification(&probe, &mut rng).unwrap();
                        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
                        let outcome = server.finish_identification(&resp).unwrap();
                        assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
                    }
                });
            }
            // Writer: churn short-lived users through both shards.
            let mut wrng = StdRng::seed_from_u64(33_000);
            for round in 0..20 {
                let bio = params.sketch().line().random_vector(32, &mut wrng);
                let id = format!("churn-{round}");
                server
                    .enroll(device.enroll(&id, &bio, &mut wrng).unwrap())
                    .unwrap();
                server.revoke(&id).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(server.user_count(), 6);
    }
}
