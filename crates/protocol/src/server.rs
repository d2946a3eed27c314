//! The authentication server (`AS`): record storage, sketch matching,
//! challenge management, response verification.
//!
//! [`AuthenticationServer`] is generic over its sketch-lookup structure
//! `I:`[`SketchIndex`] (defaulting to [`EpochIndex`], the one engine
//! every server layer runs), and the read path
//! ([`AuthenticationServer::find`] and
//! [`AuthenticationServer::find_first_batch`], the index's two lookups)
//! is `&self` so a concurrent wrapper can serve many lookups under a
//! shared lock — see [`crate::concurrent::SharedServer`].

use crate::messages::{
    challenge_message, EnrollmentRecord, IdentChallenge, IdentOutcome, IdentResponse, SessionId,
    UserId, WireHelper,
};
use crate::params::SystemParams;
use crate::records::{Live, Located, RecordTable, StoredRecord, Vacancy};
use crate::store::{EnrollmentStore, FileStore, LogEvent, LogEventRef, SnapshotRow, SnapshotRows};
use crate::ProtocolError;
use fe_core::index::store::{canonical, canonical_range};
use fe_core::{EpochIndex, RobustData, ScanIndex, SketchIndex};
use fe_crypto::dsa::{DsaSignature, DsaVerifyingKey};
use fe_crypto::sig::SignatureScheme;
use rand::Rng;
use rand::RngCore;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Index types the server can build from published [`SystemParams`]:
/// [`EpochIndex`], the engine, and [`ScanIndex`], the one-arena
/// reference the oracle suites and kernel benches run servers over.
/// Stores are portable between the two (see
/// [`SystemParams::fingerprint`]).
pub trait BuildIndex: SketchIndex + Sized {
    /// Builds an empty index for the given parameters.
    fn build(params: &SystemParams) -> Self;
}

fn sketch_ring(params: &SystemParams) -> (u64, u64) {
    (
        params.sketch().threshold(),
        params.sketch().line().interval_len(),
    )
}

impl BuildIndex for ScanIndex {
    fn build(params: &SystemParams) -> Self {
        let (t, ka) = sketch_ring(params);
        ScanIndex::with_filter(t, ka, params.filter_config())
    }
}

impl BuildIndex for EpochIndex {
    fn build(params: &SystemParams) -> Self {
        let (t, ka) = sketch_ring(params);
        EpochIndex::with_filter(t, ka, params.filter_config())
    }
}

/// Helper data with nothing in it yet: the scratch value the record
/// readers rebuild rows into.
fn empty_helper() -> WireHelper {
    WireHelper {
        sketch: RobustData {
            inner: Vec::new(),
            tag: Vec::new(),
        },
        seed: Vec::new(),
    }
}

/// The row the index holds for `sketch`, when it differs from the
/// sketch: its canonical ring residues, by [`canonical`] — the one
/// definition every index layout writes and reads back, so nothing is
/// decoded to learn it — built in `row`. The two differ only where a
/// coordinate lies outside `[−(ka−1)/2, ka/2]` (one record in thirteen
/// at the paper's parameters), so one range test over the sketch
/// answers `None` for the rest and the fold runs only for those. The
/// record table keeps only what the row does not reproduce.
fn canonical_row<'a>(row: &'a mut Vec<i64>, sketch: &[i64], ka: u64) -> Option<&'a [i64]> {
    let (lo, hi) = canonical_range(ka);
    if sketch.iter().all(|v| (lo..=hi).contains(v)) {
        return None;
    }
    row.clear();
    row.extend(sketch.iter().map(|&v| canonical(v, ka)));
    Some(row)
}

/// Streams a server's live records in enrollment order, each rebuilt
/// into one scratch [`WireHelper`] — the walk behind every bulk reader
/// (snapshot, export, the normal-approach baseline).
struct LiveRows<'s, I: SketchIndex> {
    server: &'s AuthenticationServer<I>,
    records: Live<'s>,
    helper: WireHelper,
}

impl<I: SketchIndex> SnapshotRows for LiveRows<'_, I> {
    fn next_row(&mut self) -> Option<SnapshotRow<'_>> {
        let server = self.server;
        let (slot, record) = self.records.next()?;
        server.helper_into(slot, record, &mut self.helper);
        Some(SnapshotRow {
            id: record.id(),
            public_key: record.public_key(),
            helper: &self.helper,
        })
    }
}

/// A write planned against the server's state and not yet applied.
/// Every enroll, uniqueness refusal and revocation — a lone server's and
/// each shard's of [`crate::concurrent::SharedServer`] — is planned
/// (`plan_enroll` / `plan_revoke`, which hold every check that can fail),
/// journaled when there is a store, then applied
/// ([`AuthenticationServer::apply`]), in that order.
pub(crate) enum Write {
    /// A validated enrollment and the id-table vacancy it fills.
    Enroll(EnrollmentRecord, Vacancy),
    /// A uniqueness refusal: journaled as an audit record, reported as
    /// [`ProtocolError::DuplicateBiometric`], memory unchanged.
    Refuse { id: UserId, matched: UserId },
    /// Revocation of an enrolled id, and where the id table files it.
    Revoke(UserId, Located),
}

impl Write {
    /// Appends the write to `store`, when there is one — before it is
    /// applied, so an acknowledged write survives a crash.
    pub(crate) fn journal(
        &self,
        store: &mut Option<Box<dyn EnrollmentStore>>,
    ) -> Result<(), ProtocolError> {
        let Some(store) = store else {
            return Ok(());
        };
        store.append(match self {
            Write::Enroll(record, _) => LogEventRef::Enroll(record),
            Write::Refuse { id, matched } => LogEventRef::EnrollRejected { id, matched },
            Write::Revoke(id, _) => LogEventRef::Revoke(id),
        })
    }
}

/// An outstanding challenge (single-use → replay protection).
#[derive(Debug, Clone)]
struct PendingChallenge {
    record_idx: usize,
    challenge: u64,
}

/// The authentication server of Figs. 1–3, generic over its sketch
/// index (default: the epoch engine, the paper's early-abort scan over
/// epoch-published segments).
///
/// Holds only public data: `(ID, pk, P)` per user, the sketch `s` inside
/// `P` once — as the user's index row. Sketch lookup uses
/// conditions (1)–(4) through the index; the heavy crypto per
/// identification is exactly one signature verification regardless of the
/// number of enrolled users.
#[derive(Debug)]
pub struct AuthenticationServer<I: SketchIndex = EpochIndex> {
    params: SystemParams,
    /// Slot-stable record storage: revocation leaves a tombstone so
    /// outstanding indices never shift.
    records: RecordTable,
    index: I,
    /// Scratch for the index row of the record being enrolled.
    row: Vec<i64>,
    pending: HashMap<SessionId, PendingChallenge>,
    next_session: SessionId,
    /// Session-id step, so shard replicas can interleave disjoint
    /// session namespaces (see [`crate::concurrent::SharedServer`]).
    session_stride: u64,
    /// Diagnostic counter: sketch lookups served. Atomic so the hot
    /// read path stays `&self`.
    lookups: AtomicU64,
    /// Optional durable journal: when attached, every enroll/revoke is
    /// persisted (write-ahead) before the in-memory state changes.
    store: Option<Box<dyn EnrollmentStore>>,
}

impl AuthenticationServer<EpochIndex> {
    /// Creates an empty server over the epoch engine.
    pub fn new(params: SystemParams) -> Self {
        Self::from_params(params)
    }
}

impl<I: BuildIndex> AuthenticationServer<I> {
    /// Creates an empty server whose index type `I` is built from
    /// `params` (see [`BuildIndex`]).
    pub fn from_params(params: SystemParams) -> Self {
        let index = I::build(&params);
        Self::with_index(params, index)
    }

    /// Opens (or creates) a durable server backed by a
    /// [`FileStore`] at `dir`: the snapshot and journal tail are
    /// replayed to rebuild the full record set and sketch index, and the
    /// store stays attached so every subsequent enroll/revoke is
    /// journaled.
    ///
    /// Recovery is **idempotent per event**: an enrollment already
    /// present (the crash-between-snapshot-and-journal-reset overlap) is
    /// skipped, as is a revocation of an id that is already gone — so a
    /// journal tail that partially duplicates the snapshot replays
    /// cleanly. Artifacts written under *different* system parameters
    /// are rejected up front via [`SystemParams::fingerprint`], and a
    /// torn final journal write is truncated (see [`FileStore`]).
    ///
    /// ```rust
    /// use fe_protocol::{AuthenticationServer, BiometricDevice, SystemParams};
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), fe_protocol::ProtocolError> {
    /// let dir = std::env::temp_dir().join(format!("fe-recover-doc-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let params = SystemParams::insecure_test_defaults();
    /// let device = BiometricDevice::new(params.clone());
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    ///
    /// // First process lifetime: enroll one user, then "crash" (drop).
    /// let mut server: AuthenticationServer = AuthenticationServer::recover(params.clone(), &dir)?;
    /// let bio = params.sketch().line().random_vector(16, &mut rng);
    /// server.enroll(device.enroll("alice", &bio, &mut rng)?)?;
    /// drop(server);
    ///
    /// // Second lifetime: the journal replays the enrollment.
    /// let mut server: AuthenticationServer = AuthenticationServer::recover(params.clone(), &dir)?;
    /// assert_eq!(server.user_count(), 1);
    /// let probe = device.probe_sketch(&bio, &mut rng)?;
    /// assert!(server.begin_identification(&probe, &mut rng).is_ok());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] / [`ProtocolError::Codec`] when the
    /// store cannot be opened or replayed.
    pub fn recover(params: SystemParams, dir: impl AsRef<Path>) -> Result<Self, ProtocolError> {
        let store = FileStore::open(dir, params.fingerprint())?;
        Self::recover_with_store(params, Box::new(store))
    }

    /// [`AuthenticationServer::recover`] over any [`EnrollmentStore`]
    /// backend (e.g. a [`MemoryStore`](crate::store::MemoryStore) in
    /// tests, or a custom replicated store).
    ///
    /// # Errors
    /// Propagates store load failures.
    pub fn recover_with_store(
        params: SystemParams,
        mut store: Box<dyn EnrollmentStore>,
    ) -> Result<Self, ProtocolError> {
        let events = store.load()?;
        let mut server = Self::replay(params, &events)?;
        server.store = Some(store);
        Ok(server)
    }

    /// A server rebuilt from `events`, every enrollment through the one
    /// enroll path a live server takes.
    fn replay(params: SystemParams, events: &[LogEvent]) -> Result<Self, ProtocolError> {
        let mut server = Self::from_params(params);
        let enrolls = events
            .iter()
            .filter(|e| matches!(e, LogEvent::Enroll(_)))
            .count();
        // Bulk-load hint: recovery knows the population size and sketch
        // dimension up front, so the index and the record table are
        // sized once instead of growing row by row.
        if let Some(LogEvent::Enroll(first)) =
            events.iter().find(|e| matches!(e, LogEvent::Enroll(_)))
        {
            server
                .index
                .reserve(enrolls, first.helper.sketch.inner.len());
            server.records.reserve(enrolls);
        }
        for event in events {
            match event {
                LogEvent::Enroll(record) => match server.validate_enroll(record) {
                    Ok(vacancy) => server.apply_enroll(record, vacancy),
                    // Already present: the snapshot and the journal
                    // tail overlap after a crash between the two.
                    Err(ProtocolError::DuplicateUser(_)) => {}
                    Err(refused) => return Err(refused),
                },
                // Tolerated when absent, as a replayed enroll is.
                LogEvent::Revoke(id) => {
                    if let Some(located) = server.records.located(id) {
                        server.apply_revoke(located);
                    }
                }
                // Audit record of a refused enrollment: nothing to
                // replay — the population never changed.
                LogEvent::EnrollRejected { .. } => {}
            }
        }
        Ok(server)
    }
}

impl<I: SketchIndex> AuthenticationServer<I> {
    /// Creates an empty server around a caller-built index.
    ///
    /// The index must never have held records: record ids must mirror
    /// record slots from 0. A drained index (inserted-then-removed, so
    /// currently empty but with ids already assigned) passes this
    /// constructor's check but is caught by the id-mirror assertion on
    /// the first [`AuthenticationServer::enroll`].
    ///
    /// # Panics
    /// Panics if the index currently holds records.
    pub fn with_index(params: SystemParams, index: I) -> Self {
        assert!(index.is_empty(), "server index must start empty");
        AuthenticationServer {
            params,
            records: RecordTable::new(),
            index,
            row: Vec::new(),
            pending: HashMap::new(),
            next_session: 1,
            session_stride: 1,
            lookups: AtomicU64::new(0),
            store: None,
        }
    }

    /// The system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The sketch index (for diagnostics).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Number of enrolled (non-revoked) users.
    pub fn user_count(&self) -> usize {
        self.records.len()
    }

    /// Restricts this server to the session ids
    /// `start, start + stride, start + 2·stride, …` so several server
    /// shards can issue globally-unique sessions without coordination.
    ///
    /// Must be called before any challenge is issued.
    ///
    /// # Panics
    /// Panics if `stride == 0`, `start == 0` (session 0 is reserved) or
    /// challenges were already issued.
    pub fn set_session_namespace(&mut self, start: SessionId, stride: u64) {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(start >= 1, "session ids start at 1");
        assert!(
            self.pending.is_empty() && self.next_session == 1,
            "session namespace must be set before issuing challenges"
        );
        self.next_session = start;
        self.session_stride = stride;
    }

    /// Rebuilds the helper data of the live `record` in `slot` into
    /// `helper`, bit-identical to what was enrolled: the index row, the
    /// record's patch over it, then tag and seed.
    fn helper_into(&self, slot: usize, record: StoredRecord<'_>, helper: &mut WireHelper) {
        let live = self.index.copy_row_into(slot, &mut helper.sketch.inner);
        assert!(live, "a stored record's index row must be live");
        record.restore(helper);
    }

    fn live_rows(&self) -> LiveRows<'_, I> {
        LiveRows {
            server: self,
            records: self.records.live(),
            helper: empty_helper(),
        }
    }

    /// One value per live record, in enrollment order.
    fn map_live<T>(&self, mut f: impl FnMut(SnapshotRow<'_>) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.records.len());
        let mut rows = self.live_rows();
        while let Some(row) = rows.next_row() {
            out.push(f(row));
        }
        out
    }

    /// All enrolled helper data, in enrollment order (needed by the
    /// normal-approach baseline, which ships every record to the device).
    pub fn all_helpers(&self) -> Vec<(UserId, WireHelper)> {
        self.map_live(|row| (row.id.to_string(), row.helper.clone()))
    }

    /// Visits records in enrollment order — id, public key bytes as
    /// enrolled, helper data — stopping at the first `Some` returned by
    /// the visitor. The helper data is one scratch value rebuilt per
    /// record (no clone per record in the O(N) baseline).
    pub fn visit_records<T>(
        &self,
        mut visit: impl FnMut(&str, &[u8], &WireHelper) -> Option<T>,
    ) -> Option<T> {
        let mut rows = self.live_rows();
        while let Some(row) = rows.next_row() {
            if let Some(found) = visit(row.id, row.public_key, row.helper) {
                return Some(found);
            }
        }
        None
    }

    /// Revokes a user: the record and its sketch are removed, and no
    /// outstanding challenge for the user can be answered any more (see
    /// `apply_revoke`: they are freed at the next compaction). One of the
    /// paper's motivating problems is that a *biometric* is not revocable
    /// once leaked — but the *enrollment* is: after revocation the stored
    /// helper data is gone and the user can re-enroll, obtaining a fresh
    /// key pair from the same biometric.
    ///
    /// # Errors
    /// [`ProtocolError::UnknownUser`] if the id is not enrolled.
    pub fn revoke(&mut self, id: &str) -> Result<(), ProtocolError> {
        self.commit(|server| server.plan_revoke(id))
    }

    /// Plans a revocation (see [`Write`]). The one id lookup of a
    /// revocation happens here: the returned write carries where the id
    /// is filed, which stays true until the apply because nothing else
    /// writes in between (the shard's journal mutex, or `&mut self`).
    pub(crate) fn plan_revoke(&self, id: &str) -> Result<Write, ProtocolError> {
        let located =
            (self.records.located(id)).ok_or_else(|| ProtocolError::UnknownUser(id.to_string()))?;
        Ok(Write::Revoke(id.to_string(), located))
    }

    /// In-memory revocation of the record filed at `located`. Its open
    /// challenges are not searched for: each names a slot that is dead
    /// from here on, so [`AuthenticationServer::finish_identification`]
    /// answers it [`ProtocolError::UnknownSession`], and the next
    /// [`AuthenticationServer::compact`] frees it. Until the challenge
    /// map is bounded, that is when a revoked record's unanswered
    /// challenges are freed — not at the revoke, which would walk every
    /// open challenge of the shard under its write lock.
    fn apply_revoke(&mut self, located: Located) {
        let idx = self.records.revoke(located);
        self.index.remove(idx);
    }

    /// Checks everything that could make [`AuthenticationServer::enroll`]
    /// fail, so the journal append can safely precede the mutation.
    /// The one id lookup of an enrollment happens here: the returned
    /// [`Vacancy`] is what [`AuthenticationServer::apply_enroll`] files
    /// the record under, good until someone else enrolls that id.
    fn validate_enroll(&self, record: &EnrollmentRecord) -> Result<Vacancy, ProtocolError> {
        let vacancy = self
            .records
            .probe(&record.id)
            .ok_or_else(|| ProtocolError::DuplicateUser(record.id.clone()))?;
        if record.public_key.is_empty() {
            return Err(ProtocolError::Malformed("empty public key"));
        }
        // The index panics on sketches it cannot store (mixed
        // dimensions), and validation runs *before* the write-ahead
        // journal append — an unstorable record must be refused here,
        // not journaled and then panicked on (which would poison every
        // future recovery of the store). This also means a journal written before the
        // one-dimension contract (mixed-dimension enrollments) now
        // fails recovery with this clean error instead of replaying:
        // no index can hold such a population any more.
        if matches!(self.index.dim(), Some(d) if d != record.helper.sketch.inner.len()) {
            return Err(ProtocolError::Malformed("sketch dimension mismatch"));
        }
        if !RecordTable::fits(record) {
            return Err(ProtocolError::Malformed("record too large"));
        }
        if self.records.is_full() {
            return Err(ProtocolError::Malformed("record table full"));
        }
        Ok(vacancy)
    }

    /// In-memory enrollment of a pre-validated record: its sketch into
    /// the index, the rest into the record table.
    fn apply_enroll(&mut self, record: &EnrollmentRecord, vacancy: Vacancy) {
        let index_id = self.index.insert(&record.helper.sketch.inner);
        // Release-enforced: an index that had records inserted and then
        // removed passes the `is_empty` construction check but assigns
        // ids offset from the record slots — that must fail loudly at
        // the first enrollment, not corrupt lookups silently.
        assert_eq!(
            index_id,
            self.records.slots(),
            "index ids must mirror record slots"
        );
        let ka = self.params.sketch().line().interval_len();
        let row = canonical_row(&mut self.row, &record.helper.sketch.inner, ka);
        self.records.push(vacancy, record, row);
    }

    /// Stores an enrollment record (Fig. 1, final step). With a store
    /// attached, the record is journaled (write-ahead) before the
    /// in-memory state changes, so an acknowledged enrollment survives a
    /// crash.
    ///
    /// # Errors
    /// [`ProtocolError::DuplicateUser`] if the id is taken;
    /// [`ProtocolError::Malformed`] if the public key fails to parse;
    /// [`ProtocolError::Storage`] when journaling fails (the server
    /// state is then unchanged).
    pub fn enroll(&mut self, record: EnrollmentRecord) -> Result<(), ProtocolError> {
        self.commit(|server| server.plan_enroll(record, false))
    }

    /// Uniqueness-checked enrollment: stores the record only when **no**
    /// enrolled sketch matches it (conditions (1)–(4)), closing the dedup
    /// gap where the same biometric silently enrolls under several ids.
    /// The duplicate scan uses the find-at-most-1 kernel, so it costs no
    /// more than one identification lookup. A refusal is journaled as a
    /// [`LogEvent::EnrollRejected`] audit record (replayed as a no-op).
    ///
    /// # Errors
    /// [`ProtocolError::DuplicateBiometric`] (carrying the already
    /// enrolled id) when a matching record exists; otherwise as
    /// [`AuthenticationServer::enroll`].
    pub fn enroll_unique(&mut self, record: EnrollmentRecord) -> Result<(), ProtocolError> {
        self.commit(|server| server.plan_enroll(record, true))
    }

    /// Plans an enrollment (see [`Write`]): validated, and with `unique`
    /// swept for an enrolled sketch that matches it (find-at-most-1),
    /// which plans a [`Write::Refuse`] instead.
    pub(crate) fn plan_enroll(
        &self,
        record: EnrollmentRecord,
        unique: bool,
    ) -> Result<Write, ProtocolError> {
        let vacancy = self.validate_enroll(&record)?;
        if unique {
            if let Some(&idx) = self.find(&record.helper.sketch.inner, None, 1).first() {
                let matched = self.user_at(idx).expect("index only matches live records");
                return Ok(Write::Refuse {
                    id: record.id,
                    matched: matched.to_string(),
                });
            }
        }
        Ok(Write::Enroll(record, vacancy))
    }

    /// Applies a planned write to memory, after the journal took it.
    ///
    /// # Errors
    /// [`ProtocolError::DuplicateBiometric`] for a [`Write::Refuse`],
    /// which leaves memory as it was.
    pub(crate) fn apply(&mut self, write: Write) -> Result<(), ProtocolError> {
        match write {
            Write::Enroll(record, vacancy) => self.apply_enroll(&record, vacancy),
            Write::Refuse { matched, .. } => {
                return Err(ProtocolError::DuplicateBiometric(matched))
            }
            Write::Revoke(_, located) => self.apply_revoke(located),
        }
        Ok(())
    }

    /// The write sequence over the attached store: plan, journal
    /// (write-ahead), apply.
    fn commit(
        &mut self,
        plan: impl FnOnce(&Self) -> Result<Write, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        let write = plan(self)?;
        write.journal(&mut self.store)?;
        self.apply(write)
    }

    /// The server's one bounded sketch lookup, [`SketchIndex::find`]:
    /// the record slots of at most `budget` matches under conditions
    /// (1)–(4), in enrollment order, among the slots of `subset` when
    /// one is given — the sweep stops as soon as the budget is
    /// collected. Every matching mode below is a point of it. `&self`:
    /// safe under a shared read lock.
    pub fn find(&self, probe: &[i64], subset: Option<&[usize]>, budget: usize) -> Vec<usize> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.index.find(probe, subset, budget)
    }

    /// Batch sketch lookup, [`SketchIndex::find_first_batch`]: the first
    /// matching slot of every probe, position-aligned, with one sweep
    /// for the whole batch. Borrows the probes. `&self`: safe under a
    /// shared read lock.
    pub fn find_first_batch(&self, probes: &[impl AsRef<[i64]>]) -> Vec<Option<usize>> {
        self.lookups
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        self.index.find_first_batch(probes)
    }

    /// The enrolled id living in a record slot (`None` for tombstoned or
    /// out-of-range slots) — lets concurrent wrappers resolve slots
    /// found under a shared lock.
    pub fn user_at(&self, record_idx: usize) -> Option<&str> {
        self.records.get(record_idx).map(|record| record.id())
    }

    /// Reset / account-recovery lookup: succeeds only when **exactly
    /// one** enrolled record matches the probe, returning its id. Uses a
    /// find-at-most-2 sweep, so disambiguation costs the same as a plain
    /// lookup — the scan cancels as soon as a second match is seen.
    /// `&self`: safe under a shared read lock.
    ///
    /// # Errors
    /// [`ProtocolError::NoMatch`] when nothing matches;
    /// [`ProtocolError::AmbiguousMatch`] when two or more records match
    /// (resetting any one of them would be guessing).
    pub fn reset(&self, probe: &[i64]) -> Result<UserId, ProtocolError> {
        match *self.find(probe, None, 2).as_slice() {
            [] => Err(ProtocolError::NoMatch),
            [idx] => Ok(self
                .user_at(idx)
                .expect("index only matches live records")
                .to_string()),
            _ => Err(ProtocolError::AmbiguousMatch),
        }
    }

    /// Targeted (verification-mode) sketch check: does the probe match
    /// the record of `claimed_id` specifically? A one-row subset-masked
    /// sweep — other users' records are never compared, so the cost is
    /// independent of the population. `&self`: safe under a shared read
    /// lock.
    ///
    /// # Errors
    /// [`ProtocolError::UnknownUser`] for unenrolled ids.
    pub fn authenticate_claimed(
        &self,
        claimed_id: &str,
        probe: &[i64],
    ) -> Result<bool, ProtocolError> {
        let idx = self
            .slot_of(claimed_id)
            .ok_or_else(|| ProtocolError::UnknownUser(claimed_id.to_string()))?;
        Ok(!self.find(probe, Some(&[idx]), 1).is_empty())
    }

    /// Subset uniqueness check: `Ok(true)` when the probe matches **none**
    /// of the given users' records (a find-at-most-1 sweep masked to
    /// exactly that subset — e.g. an orb/site checking a new capture
    /// against only its locally enrolled population). `&self`: safe
    /// under a shared read lock.
    ///
    /// # Errors
    /// [`ProtocolError::UnknownUser`] when any listed id is not
    /// enrolled.
    pub fn check_local_uniqueness(
        &self,
        probe: &[i64],
        ids: &[UserId],
    ) -> Result<bool, ProtocolError> {
        let mut subset = Vec::with_capacity(ids.len());
        for id in ids {
            let idx = self
                .slot_of(id)
                .ok_or_else(|| ProtocolError::UnknownUser(id.clone()))?;
            subset.push(idx);
        }
        Ok(self.find(probe, Some(&subset), 1).is_empty())
    }

    /// Issues a challenge for a record found via
    /// [`AuthenticationServer::find`], re-validating that the
    /// record is still live (it can be revoked between a shared-lock
    /// lookup and an exclusive-lock challenge issue). Returns `None` for
    /// revoked or out-of-range slots.
    pub fn challenge_for_record<R: RngCore + ?Sized>(
        &mut self,
        record_idx: usize,
        rng: &mut R,
    ) -> Option<IdentChallenge> {
        self.records.get(record_idx)?;
        Some(self.issue_challenge(record_idx, rng))
    }

    /// Identification phase 1 (Fig. 3): match the probe sketch against
    /// the enrolled records using conditions (1)–(4), and issue a
    /// challenge for the matched record — a batch of one through
    /// [`AuthenticationServer::identify_batch`].
    ///
    /// # Errors
    /// [`ProtocolError::NoMatch`] when no record matches (`⊥`).
    pub fn begin_identification<R: RngCore + ?Sized>(
        &mut self,
        probe: &[i64],
        rng: &mut R,
    ) -> Result<IdentChallenge, ProtocolError> {
        let mut results = self.identify_batch(&[probe], rng);
        results.pop().expect("one result per probe")
    }

    /// Batch identification phase 1: resolves a whole batch of probe
    /// sketches in one call and issues one challenge per matched probe.
    /// Results are position-aligned with `probes`.
    ///
    /// This is the entry point that lets a server amortize both the
    /// index traversal (one pass for the whole batch) and — through
    /// [`crate::concurrent::SharedServer::identify_batch`] — one lock
    /// acquisition over many concurrent devices.
    pub fn identify_batch<R: RngCore + ?Sized>(
        &mut self,
        probes: &[impl AsRef<[i64]>],
        rng: &mut R,
    ) -> Vec<Result<IdentChallenge, ProtocolError>> {
        let matches = self.find_first_batch(probes);
        matches
            .into_iter()
            .map(|m| {
                m.map(|idx| self.issue_challenge(idx, rng))
                    .ok_or(ProtocolError::NoMatch)
            })
            .collect()
    }

    /// Verification phase 1 (the verification-mode protocol): the user
    /// *claims* an identity; the server retrieves that record directly and
    /// issues a challenge — the 1-to-1 path.
    ///
    /// # Errors
    /// [`ProtocolError::UnknownUser`] for unenrolled ids.
    pub fn begin_verification<R: RngCore + ?Sized>(
        &mut self,
        claimed_id: &str,
        rng: &mut R,
    ) -> Result<IdentChallenge, ProtocolError> {
        let record_idx = self
            .slot_of(claimed_id)
            .ok_or_else(|| ProtocolError::UnknownUser(claimed_id.to_string()))?;
        Ok(self.issue_challenge(record_idx, rng))
    }

    fn issue_challenge<R: RngCore + ?Sized>(
        &mut self,
        record_idx: usize,
        rng: &mut R,
    ) -> IdentChallenge {
        let session = self.next_session;
        self.next_session += self.session_stride;
        let challenge: u64 = rng.gen();
        self.pending.insert(
            session,
            PendingChallenge {
                record_idx,
                challenge,
            },
        );
        let record = self
            .records
            .get(record_idx)
            .expect("challenges are only issued for live records");
        let mut helper = empty_helper();
        self.helper_into(record_idx, record, &mut helper);
        IdentChallenge {
            session,
            helper,
            challenge,
        }
    }

    /// Phase 2 (both modes): verify the signed `(c, a)` response. The
    /// challenge is consumed whether or not verification succeeds —
    /// a response can never be replayed.
    ///
    /// # Errors
    /// [`ProtocolError::UnknownSession`] for unknown/expired sessions;
    /// [`ProtocolError::Malformed`] if the signature bytes do not parse.
    pub fn finish_identification(
        &mut self,
        response: &IdentResponse,
    ) -> Result<IdentOutcome, ProtocolError> {
        let pending = self
            .pending
            .remove(&response.session)
            .ok_or(ProtocolError::UnknownSession)?;
        // A user can be revoked between challenge and response.
        let record = self
            .records
            .get(pending.record_idx)
            .ok_or(ProtocolError::UnknownSession)?;
        let signature = DsaSignature::from_bytes(&response.signature, self.params.dsa_params())
            .ok_or(ProtocolError::Malformed("signature length"))?;
        let msg = challenge_message(response.session, pending.challenge, response.nonce);
        let dsa = self.params.dsa();
        let public_key = DsaVerifyingKey::from_bytes(record.public_key());
        if dsa.verify(&public_key, &msg, &signature) {
            Ok(IdentOutcome::Identified(record.id().to_string()))
        } else {
            Ok(IdentOutcome::Rejected)
        }
    }

    /// Cancels an outstanding challenge without verifying a response,
    /// so a device that never answers does not leave its session
    /// consumable forever (nothing calls this on a timer). Returns
    /// `false` for unknown or already-consumed sessions, and for a
    /// session whose record was revoked: its challenge is removed but
    /// could never have been answered.
    pub fn cancel_session(&mut self, session: SessionId) -> bool {
        let pending = self.pending.remove(&session);
        pending.is_some_and(|p| self.records.get(p.record_idx).is_some())
    }

    /// Number of sketch lookups performed (diagnostics).
    pub fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Attaches a durable store to an **empty** server: subsequent
    /// enroll/revoke calls are journaled through it. The store must be
    /// empty too — to resume from a store that already holds events,
    /// use [`AuthenticationServer::recover`] /
    /// [`AuthenticationServer::recover_with_store`] instead (silently
    /// appending after unreplayed history would corrupt the next
    /// recovery).
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] when the store already holds events;
    /// load failures pass through.
    ///
    /// # Panics
    /// Panics if the server already holds records (their enrollment
    /// would be missing from the journal, so a recovery would silently
    /// drop them).
    pub fn attach_store(
        &mut self,
        mut store: Box<dyn EnrollmentStore>,
    ) -> Result<(), ProtocolError> {
        assert!(
            self.records.slots() == 0,
            "attach_store requires an empty server (existing records would not be journaled)"
        );
        let persisted = store.load()?.len();
        if persisted != 0 {
            return Err(ProtocolError::Storage(format!(
                "store already holds {persisted} event(s); use recover() to adopt them"
            )));
        }
        self.store = Some(store);
        Ok(())
    }

    /// The attached enrollment store, if any (for journal diagnostics).
    pub fn store(&self) -> Option<&dyn EnrollmentStore> {
        self.store.as_deref()
    }

    /// Whether `id` is currently enrolled — pre-validation for journal
    /// appends that happen outside the state lock (see
    /// [`crate::concurrent::SharedServer`]).
    pub fn is_enrolled(&self, id: &str) -> bool {
        self.slot_of(id).is_some()
    }

    /// The record slot a user id currently occupies (`None` when not
    /// enrolled) — the inverse of [`AuthenticationServer::user_at`],
    /// for concurrent wrappers that scan lock-free by slot.
    pub fn slot_of(&self, id: &str) -> Option<usize> {
        self.records.find(id)
    }

    /// Detaches and returns the enrollment store, leaving the server
    /// store-less. The sharded server uses this to move each shard's
    /// journal *outside* the state lock so appends (and their fsyncs)
    /// never run inside a critical section a reader could observe.
    pub(crate) fn detach_store(&mut self) -> Option<Box<dyn EnrollmentStore>> {
        self.store.take()
    }

    /// The index's structural generation (see
    /// [`SketchIndex::generation`]): lock-free readers capture this
    /// before a scan and re-check it under the lock to detect a
    /// compaction/renumbering that would invalidate raw record ids.
    pub fn index_generation(&self) -> u64 {
        self.index.generation()
    }

    /// Total record slots held, live **and** tombstoned — what revocation
    /// leaves behind until [`AuthenticationServer::compact`] runs.
    pub fn record_slots(&self) -> usize {
        self.records.slots()
    }

    /// Heap bytes of the record table, exact and read out without
    /// walking the records: the slot vector (8 bytes a slot), the arena's chunks (1 MiB each,
    /// so a small population reads as its one chunk) and the id table
    /// (4 bytes an entry). The index, which holds the sketches, is not
    /// counted (see [`SketchIndex::heap_bytes`]).
    pub fn record_heap_bytes(&self) -> usize {
        self.records.heap_bytes()
    }

    /// Arena bytes still held by revoked records — zeroed when they
    /// were revoked, reclaimed by [`AuthenticationServer::compact`].
    pub fn dead_record_bytes(&self) -> usize {
        self.records.dead_bytes()
    }

    /// Reclaims tombstone slots left by revocation: live records are
    /// renumbered densely (preserving enrollment order), the sketch
    /// index is compacted in lockstep, and outstanding challenge
    /// sessions are remapped — they keep working across the compaction.
    /// Returns the number of slots reclaimed.
    ///
    /// This is the one reclaim: a revoke only tombstones its record slot,
    /// its record-table block and its index row, so without this a
    /// long-lived server's record table and index grow with the number
    /// of enrollments *ever*, not the population currently live — the
    /// index by its 72 B a revoked paper-shape row. It is exposed
    /// separately from [`AuthenticationServer::checkpoint`] for in-memory
    /// deployments, but checkpointing is the natural trigger: the
    /// snapshot pass rewrites every live record anyway.
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.records.slots() - self.records.len();
        if reclaimed == 0 {
            return 0;
        }
        // Both structures drop tombstones in ascending order, so the
        // index's (old, new) pairs and the table's advance in lockstep;
        // the table slides its blocks down in place, and nothing
        // proportional to the population is allocated but its id table.
        let mapping = self.index.compact();
        let mut pairs = mapping.iter();
        self.records.compact(|old, new| {
            assert_eq!(
                pairs.next(),
                Some(&(old, new)),
                "index compaction must renumber densely in enrollment order"
            );
        });
        assert!(pairs.next().is_none(), "index holds rows without records");
        // A challenge of a record revoked since it was issued names a
        // slot the mapping leaves out: it is dropped here.
        self.pending.retain(|_, pending| {
            match mapping.binary_search_by_key(&pending.record_idx, |&(old, _)| old) {
                Ok(at) => {
                    pending.record_idx = mapping[at].1;
                    true
                }
                Err(_) => false,
            }
        });
        reclaimed
    }

    /// Every live record re-assembled as the wire-shaped
    /// [`EnrollmentRecord`] (public data only), in enrollment order —
    /// the snapshot payload.
    pub fn live_enrollment_records(&self) -> Vec<EnrollmentRecord> {
        self.map_live(|row| row.to_record())
    }

    /// Compacts in memory, then (with a store attached) writes a fresh
    /// snapshot of the live population and truncates the journal —
    /// bounding storage, recovery time *and* in-memory tombstone growth
    /// in one pass. Returns the number of record slots reclaimed.
    ///
    /// Snapshot rows are **streamed** out of the record table and the
    /// index (each [`crate::store::SnapshotRow`] is rebuilt into one
    /// scratch buffer), so a checkpoint never materializes the enrolled
    /// population in an intermediate vector.
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] when the snapshot cannot be written;
    /// the in-memory compaction still took effect (it is not undone),
    /// and the previous snapshot + journal remain authoritative on disk.
    pub fn checkpoint(&mut self) -> Result<usize, ProtocolError> {
        let mut store = self.store.take();
        let result = self.checkpoint_into(&mut store);
        self.store = store;
        result
    }

    /// [`AuthenticationServer::checkpoint`] against the store handed in
    /// — this server's own, or a shard's journal that
    /// [`crate::concurrent::SharedServer`] holds outside the state lock.
    /// The snapshot is the streamed [`SnapshotRow`] rewrite, run *after*
    /// [`AuthenticationServer::compact`].
    ///
    /// # Errors
    /// As [`AuthenticationServer::checkpoint`].
    pub(crate) fn checkpoint_into(
        &mut self,
        store: &mut Option<Box<dyn EnrollmentStore>>,
    ) -> Result<usize, ProtocolError> {
        let reclaimed = self.compact();
        if let Some(store) = store {
            store.compact(self.records.len(), &mut self.live_rows())?;
        }
        Ok(reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BiometricDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(users: usize) -> (BiometricDevice, AuthenticationServer, Vec<Vec<i64>>, StdRng) {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut server = AuthenticationServer::new(params.clone());
        let mut rng = StdRng::seed_from_u64(77_000 + users as u64);
        let mut bios = Vec::new();
        for u in 0..users {
            let bio = params.sketch().line().random_vector(48, &mut rng);
            let record = device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap();
            server.enroll(record).unwrap();
            bios.push(bio);
        }
        (device, server, bios, rng)
    }

    fn noisy(bio: &[i64], rng: &mut StdRng) -> Vec<i64> {
        use rand::Rng;
        bio.iter()
            .map(|&x| x + rng.gen_range(-100i64..=100))
            .collect()
    }

    #[test]
    fn full_identification_happy_path() {
        let (device, mut server, bios, mut rng) = setup(10);
        for (u, bio) in bios.iter().enumerate() {
            let reading = noisy(bio, &mut rng);
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            let chal = server.begin_identification(&probe, &mut rng).unwrap();
            let resp = device.respond(&reading, &chal, &mut rng).unwrap();
            let outcome = server.finish_identification(&resp).unwrap();
            assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
        }
    }

    #[test]
    fn generic_servers_identify_across_index_backends() {
        // The same protocol flow works with both index types the server
        // can build from params: the engine and the one-arena reference.
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(77_500);

        fn run<I: SketchIndex>(
            mut server: AuthenticationServer<I>,
            device: &BiometricDevice,
            rng: &mut StdRng,
        ) {
            let params = server.params().clone();
            let mut bios = Vec::new();
            for u in 0..6 {
                let bio = params.sketch().line().random_vector(48, rng);
                server
                    .enroll(device.enroll(&format!("user-{u}"), &bio, rng).unwrap())
                    .unwrap();
                bios.push(bio);
            }
            for (u, bio) in bios.iter().enumerate() {
                use rand::Rng;
                let reading: Vec<i64> = bio
                    .iter()
                    .map(|&x| x + rng.gen_range(-90i64..=90))
                    .collect();
                let probe = device.probe_sketch(&reading, rng).unwrap();
                let chal = server.begin_identification(&probe, rng).unwrap();
                let resp = device.respond(&reading, &chal, rng).unwrap();
                let outcome = server.finish_identification(&resp).unwrap();
                assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
            }
        }

        run(
            AuthenticationServer::<EpochIndex>::from_params(params.clone()),
            &device,
            &mut rng,
        );
        run(
            AuthenticationServer::<ScanIndex>::from_params(params),
            &device,
            &mut rng,
        );
    }

    #[test]
    fn identify_batch_matches_single_path() {
        let (device, mut server, bios, mut rng) = setup(8);
        let mut readings = Vec::new();
        let mut probes = Vec::new();
        for bio in &bios {
            let reading = noisy(bio, &mut rng);
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
            readings.push(reading);
        }
        // One impostor probe in the middle of the batch.
        let stranger = server.params().sketch().line().random_vector(48, &mut rng);
        probes.insert(3, device.probe_sketch(&stranger, &mut rng).unwrap());

        let results = server.identify_batch(&probes, &mut rng);
        assert_eq!(results.len(), probes.len());
        assert_eq!(results[3].as_ref().unwrap_err(), &ProtocolError::NoMatch);
        for (i, result) in results.into_iter().enumerate() {
            if i == 3 {
                continue;
            }
            let u = if i < 3 { i } else { i - 1 };
            let chal = result.unwrap();
            let resp = device.respond(&readings[u], &chal, &mut rng).unwrap();
            let outcome = server.finish_identification(&resp).unwrap();
            assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
        }
        // Batch lookups count toward the diagnostic counter.
        assert_eq!(server.lookup_count(), 9);
    }

    #[test]
    fn session_namespace_interleaves() {
        let (device, _server, bios, mut rng) = setup(1);
        let params = SystemParams::insecure_test_defaults();
        let mut server = AuthenticationServer::new(params);
        server.set_session_namespace(2, 3);
        let record = device.enroll("user-0", &bios[0], &mut rng).unwrap();
        server.enroll(record).unwrap();
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let c1 = server.begin_identification(&probe, &mut rng).unwrap();
        let c2 = server.begin_identification(&probe, &mut rng).unwrap();
        assert_eq!((c1.session, c2.session), (2, 5));
        // Responses still verify under namespaced sessions.
        let resp = device.respond(&reading, &c2, &mut rng).unwrap();
        assert!(server.finish_identification(&resp).unwrap().is_identified());
    }

    #[test]
    #[should_panic(expected = "before issuing challenges")]
    fn session_namespace_rejected_after_first_challenge() {
        let (device, mut server, bios, mut rng) = setup(1);
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        server.begin_identification(&probe, &mut rng).unwrap();
        let _ = device;
        server.set_session_namespace(1, 2);
    }

    #[test]
    fn cancelled_session_cannot_be_answered() {
        let (device, mut server, bios, mut rng) = setup(2);
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        assert!(server.cancel_session(chal.session));
        assert!(!server.cancel_session(chal.session), "already cancelled");
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp).unwrap_err(),
            ProtocolError::UnknownSession
        );
    }

    #[test]
    #[should_panic(expected = "index ids must mirror record slots")]
    fn drained_index_is_caught_at_first_enroll() {
        // A drained index passes the is_empty construction check but has
        // already assigned id 0; the id-mirror assert must fire loudly
        // on the first enrollment (release builds included).
        let params = SystemParams::insecure_test_defaults();
        let mut index = ScanIndex::new(100, 400);
        let stale = index.insert(&[0; 16]);
        index.remove(stale);
        let mut server = AuthenticationServer::with_index(params.clone(), index);
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let bio = params.sketch().line().random_vector(16, &mut rng);
        let _ = server.enroll(device.enroll("x", &bio, &mut rng).unwrap());
    }

    #[test]
    fn challenge_for_record_revalidates_liveness() {
        let (device, mut server, bios, mut rng) = setup(2);
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let idx = server.find(&probe, None, 1)[0];
        server.revoke("user-0").unwrap();
        // The slot was found before revocation; issuing must refuse.
        assert!(server.challenge_for_record(idx, &mut rng).is_none());
        assert!(server.challenge_for_record(999, &mut rng).is_none());
    }

    #[test]
    fn impostor_gets_no_match() {
        let (device, mut server, _bios, mut rng) = setup(5);
        let stranger = server.params().sketch().line().random_vector(48, &mut rng);
        let probe = device.probe_sketch(&stranger, &mut rng).unwrap();
        assert_eq!(
            server.begin_identification(&probe, &mut rng).unwrap_err(),
            ProtocolError::NoMatch
        );
    }

    #[test]
    fn verification_mode_with_claimed_identity() {
        let (device, mut server, bios, mut rng) = setup(5);
        let reading = noisy(&bios[3], &mut rng);
        let chal = server.begin_verification("user-3", &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp).unwrap().identity(),
            Some("user-3")
        );
        // Unknown identity is rejected upfront.
        assert!(matches!(
            server.begin_verification("nobody", &mut rng),
            Err(ProtocolError::UnknownUser(_))
        ));
    }

    #[test]
    fn wrong_user_cannot_answer_verification_challenge() {
        let (device, mut server, bios, mut rng) = setup(5);
        // Claim user-2 but present user-4's biometric: Rep fails on the
        // device (wrong helper data).
        let chal = server.begin_verification("user-2", &mut rng).unwrap();
        let reading = noisy(&bios[4], &mut rng);
        assert!(device.respond(&reading, &chal, &mut rng).is_err());
    }

    #[test]
    fn duplicate_enrollment_rejected() {
        let (device, mut server, bios, mut rng) = setup(2);
        let record = device.enroll("user-0", &bios[0], &mut rng).unwrap();
        assert!(matches!(
            server.enroll(record),
            Err(ProtocolError::DuplicateUser(_))
        ));
    }

    #[test]
    fn enroll_unique_refuses_matching_biometric_and_journals_it() {
        let (device, mut server, bios, mut rng) = setup(0);
        server
            .attach_store(Box::new(crate::store::MemoryStore::new()))
            .unwrap();
        let _ = bios;
        let params = server.params().clone();
        let bio = params.sketch().line().random_vector(48, &mut rng);
        server
            .enroll_unique(device.enroll("alice", &bio, &mut rng).unwrap())
            .unwrap();

        // Same biometric (within noise), fresh id: refused, with the
        // matched user named, and the refusal lands in the journal.
        let again = noisy(&bio, &mut rng);
        let dup = device.enroll("alice-2", &again, &mut rng).unwrap();
        assert_eq!(
            server.enroll_unique(dup).unwrap_err(),
            ProtocolError::DuplicateBiometric("alice".into())
        );
        assert_eq!(server.user_count(), 1);
        assert_eq!(server.store().unwrap().journal_len(), 2);

        // A genuinely different biometric is accepted.
        let other = params.sketch().line().random_vector(48, &mut rng);
        server
            .enroll_unique(device.enroll("bob", &other, &mut rng).unwrap())
            .unwrap();
        assert_eq!(server.user_count(), 2);
    }

    #[test]
    fn reset_requires_exactly_one_match() {
        let (device, mut server, bios, mut rng) = setup(3);
        // One clean match → the id.
        let probe = device
            .probe_sketch(&noisy(&bios[1], &mut rng), &mut rng)
            .unwrap();
        assert_eq!(server.reset(&probe).unwrap(), "user-1");
        // No match → NoMatch.
        let stranger = server.params().sketch().line().random_vector(48, &mut rng);
        let probe = device.probe_sketch(&stranger, &mut rng).unwrap();
        assert_eq!(server.reset(&probe).unwrap_err(), ProtocolError::NoMatch);
        // Enroll the same biometric under a second id (plain enroll
        // admits it): a probe that matches both is ambiguous.
        let record = device
            .enroll("user-1-dup", &noisy(&bios[1], &mut rng), &mut rng)
            .unwrap();
        server.enroll(record).unwrap();
        let probe = device.probe_sketch(&bios[1], &mut rng).unwrap();
        assert_eq!(
            server.reset(&probe).unwrap_err(),
            ProtocolError::AmbiguousMatch
        );
    }

    #[test]
    fn authenticate_claimed_is_targeted() {
        let (device, server, bios, mut rng) = setup(4);
        let probe = device
            .probe_sketch(&noisy(&bios[2], &mut rng), &mut rng)
            .unwrap();
        assert!(server.authenticate_claimed("user-2", &probe).unwrap());
        // Matching SOME user is not enough: the claim is checked against
        // exactly the claimed record.
        assert!(!server.authenticate_claimed("user-0", &probe).unwrap());
        assert!(matches!(
            server.authenticate_claimed("nobody", &probe),
            Err(ProtocolError::UnknownUser(_))
        ));
    }

    #[test]
    fn check_local_uniqueness_masks_to_subset() {
        let (device, server, bios, mut rng) = setup(4);
        let probe = device
            .probe_sketch(&noisy(&bios[3], &mut rng), &mut rng)
            .unwrap();
        let others: Vec<UserId> = vec!["user-0".into(), "user-1".into()];
        // user-3's biometric is unique among {0, 1}…
        assert!(server.check_local_uniqueness(&probe, &others).unwrap());
        // …but not once user-3 joins the subset.
        let all: Vec<UserId> = (0..4).map(|u| format!("user-{u}")).collect();
        assert!(!server.check_local_uniqueness(&probe, &all).unwrap());
        // Empty subset: trivially unique.
        assert!(server.check_local_uniqueness(&probe, &[]).unwrap());
        assert!(matches!(
            server.check_local_uniqueness(&probe, &["ghost".into()]),
            Err(ProtocolError::UnknownUser(_))
        ));
        // user_at resolves live slots and refuses tombstones.
        assert_eq!(server.user_at(3), Some("user-3"));
        assert_eq!(server.user_at(99), None);
    }

    #[test]
    fn replayed_response_rejected() {
        let (device, mut server, bios, mut rng) = setup(3);
        let reading = noisy(&bios[1], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert!(server.finish_identification(&resp).unwrap().is_identified());
        // Same response again: the session is consumed.
        assert_eq!(
            server.finish_identification(&resp).unwrap_err(),
            ProtocolError::UnknownSession
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let (device, mut server, bios, mut rng) = setup(3);
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let mut resp = device.respond(&reading, &chal, &mut rng).unwrap();
        resp.signature[3] ^= 0xff;
        assert_eq!(
            server.finish_identification(&resp).unwrap(),
            IdentOutcome::Rejected
        );
    }

    #[test]
    fn tampered_nonce_rejected() {
        let (device, mut server, bios, mut rng) = setup(3);
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let mut resp = device.respond(&reading, &chal, &mut rng).unwrap();
        resp.nonce ^= 1; // signature no longer covers (c, a)
        assert_eq!(
            server.finish_identification(&resp).unwrap(),
            IdentOutcome::Rejected
        );
    }

    #[test]
    fn revocation_removes_user() {
        let (device, mut server, bios, mut rng) = setup(3);
        assert_eq!(server.user_count(), 3);
        server.revoke("user-1").unwrap();
        assert_eq!(server.user_count(), 2);
        // user-1 can no longer be identified…
        let reading = noisy(&bios[1], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        assert_eq!(
            server.begin_identification(&probe, &mut rng).unwrap_err(),
            ProtocolError::NoMatch
        );
        // …or verified by claim…
        assert!(matches!(
            server.begin_verification("user-1", &mut rng),
            Err(ProtocolError::UnknownUser(_))
        ));
        // …while other users are untouched.
        let reading2 = noisy(&bios[2], &mut rng);
        let probe2 = device.probe_sketch(&reading2, &mut rng).unwrap();
        assert!(server.begin_identification(&probe2, &mut rng).is_ok());
        // Revoking twice fails.
        assert!(server.revoke("user-1").is_err());
    }

    #[test]
    fn revocation_cancels_pending_challenges() {
        let (device, mut server, bios, mut rng) = setup(2);
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        server.revoke("user-0").unwrap();
        assert_eq!(
            server.finish_identification(&resp).unwrap_err(),
            ProtocolError::UnknownSession
        );
    }

    /// A revoke does not search the open challenges: a revoked record's
    /// challenge stays in the map, answers `UnknownSession` and cancels
    /// as `false` before the next compaction, which frees it, and after
    /// it; a live record's challenge issued before both still verifies
    /// at its renumbered slot.
    #[test]
    fn a_revoked_records_challenges_are_refused_and_freed_at_compaction() {
        let (device, mut server, bios, mut rng) = setup(2);
        let mut respond = |server: &mut AuthenticationServer, bio: &[i64]| {
            let reading = noisy(bio, &mut rng);
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            let chal = server.begin_identification(&probe, &mut rng).unwrap();
            device.respond(&reading, &chal, &mut rng).unwrap()
        };
        let before = respond(&mut server, &bios[0]);
        let after = respond(&mut server, &bios[0]);
        let cancelled = respond(&mut server, &bios[0]);
        let live = respond(&mut server, &bios[1]);
        server.revoke("user-0").unwrap();
        assert_eq!(server.pending.len(), 4, "the revoke walks no challenge");
        assert_eq!(
            server.finish_identification(&before).unwrap_err(),
            ProtocolError::UnknownSession
        );
        assert!(!server.cancel_session(cancelled.session));
        assert_eq!(server.compact(), 1);
        assert_eq!(server.pending.len(), 1, "compaction frees the dead one");
        assert_eq!(
            server.finish_identification(&after).unwrap_err(),
            ProtocolError::UnknownSession
        );
        assert_eq!(
            server.finish_identification(&live).unwrap(),
            IdentOutcome::Identified("user-1".into())
        );
    }

    #[test]
    fn reenrollment_after_revocation() {
        let (device, mut server, bios, mut rng) = setup(2);
        server.revoke("user-0").unwrap();
        // Same biometric, same id, fresh enrollment → fresh key pair.
        let record = device.enroll("user-0", &bios[0], &mut rng).unwrap();
        server.enroll(record).unwrap();
        let reading = noisy(&bios[0], &mut rng);
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let chal = server.begin_identification(&probe, &mut rng).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp).unwrap().identity(),
            Some("user-0")
        );
    }

    #[test]
    fn compact_reclaims_slots_and_preserves_protocol_state() {
        let (device, mut server, bios, mut rng) = setup(6);
        // Open a challenge for user-5 *before* compaction; it must
        // survive the renumbering.
        let reading5 = noisy(&bios[5], &mut rng);
        let probe5 = device.probe_sketch(&reading5, &mut rng).unwrap();
        let chal5 = server.begin_identification(&probe5, &mut rng).unwrap();

        for u in 0..4 {
            server.revoke(&format!("user-{u}")).unwrap();
        }
        assert_eq!(server.record_slots(), 6);
        assert_eq!(server.compact(), 4);
        assert_eq!(server.record_slots(), 2);
        assert_eq!(server.index().slots(), 2);
        assert_eq!(server.compact(), 0, "second compaction is a no-op");

        // The outstanding challenge still resolves to the right user.
        let resp5 = device.respond(&reading5, &chal5, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp5).unwrap().identity(),
            Some("user-5")
        );
        // Survivors identify; revoked users stay gone; fresh enrollments
        // land on dense slots.
        let reading4 = noisy(&bios[4], &mut rng);
        let probe4 = device.probe_sketch(&reading4, &mut rng).unwrap();
        let chal4 = server.begin_identification(&probe4, &mut rng).unwrap();
        let resp4 = device.respond(&reading4, &chal4, &mut rng).unwrap();
        assert_eq!(
            server.finish_identification(&resp4).unwrap().identity(),
            Some("user-4")
        );
        let reading0 = noisy(&bios[0], &mut rng);
        let probe0 = device.probe_sketch(&reading0, &mut rng).unwrap();
        assert_eq!(
            server.begin_identification(&probe0, &mut rng).unwrap_err(),
            ProtocolError::NoMatch
        );
        let bio = server.params().sketch().line().random_vector(48, &mut rng);
        let record = device.enroll("user-new", &bio, &mut rng).unwrap();
        server.enroll(record).unwrap();
        assert_eq!(server.record_slots(), 3);
    }

    #[test]
    fn churn_with_checkpoints_keeps_memory_proportional_to_live() {
        let (device, mut server, _bios, mut rng) = setup(2);
        for round in 0..30 {
            // Same dimension as the standing population: one index holds
            // one stamped dimension (see the SketchIndex contract).
            let bio = server.params().sketch().line().random_vector(48, &mut rng);
            let record = device
                .enroll(&format!("churn-{round}"), &bio, &mut rng)
                .unwrap();
            server.enroll(record).unwrap();
            server.revoke(&format!("churn-{round}")).unwrap();
            server.checkpoint().unwrap();
            assert_eq!(server.user_count(), 2);
            assert_eq!(server.record_slots(), 2, "round {round}");
            assert_eq!(server.index().slots(), 2, "round {round}");
        }
    }

    #[test]
    fn durable_server_journals_and_recovers() {
        let dir = std::env::temp_dir().join(format!("fe-server-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(81_000);

        let mut server: AuthenticationServer =
            AuthenticationServer::recover(params.clone(), &dir).unwrap();
        let mut bios = Vec::new();
        for u in 0..4 {
            let bio = params.sketch().line().random_vector(32, &mut rng);
            server
                .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
                .unwrap();
            bios.push(bio);
        }
        server.revoke("user-1").unwrap();
        assert_eq!(server.store().unwrap().journal_len(), 5);
        // Checkpoint mid-history, then more events on the fresh journal.
        server.checkpoint().unwrap();
        assert_eq!(server.store().unwrap().journal_len(), 0);
        server.revoke("user-2").unwrap();
        drop(server); // crash

        let mut server: AuthenticationServer =
            AuthenticationServer::recover(params.clone(), &dir).unwrap();
        assert_eq!(server.user_count(), 2);
        for u in [0usize, 3] {
            let reading = noisy(&bios[u], &mut rng);
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            let chal = server.begin_identification(&probe, &mut rng).unwrap();
            let resp = device.respond(&reading, &chal, &mut rng).unwrap();
            assert_eq!(
                server.finish_identification(&resp).unwrap().identity(),
                Some(format!("user-{u}").as_str())
            );
        }
        for u in [1usize, 2] {
            let reading = noisy(&bios[u], &mut rng);
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            assert_eq!(
                server.begin_identification(&probe, &mut rng).unwrap_err(),
                ProtocolError::NoMatch
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_rejects_mismatched_params() {
        let dir = std::env::temp_dir().join(format!("fe-server-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::insecure_test_defaults();
        let server: AuthenticationServer =
            AuthenticationServer::recover(params.clone(), &dir).unwrap();
        drop(server);
        // Same sketch line, different DSA group ⇒ different fingerprint.
        let other = SystemParams::paper_defaults();
        assert!(matches!(
            AuthenticationServer::<ScanIndex>::recover(other, &dir),
            Err(ProtocolError::Codec(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "empty server")]
    fn attach_store_refuses_populated_server() {
        let (_device, mut server, _bios, _rng) = setup(1);
        server
            .attach_store(Box::new(crate::store::MemoryStore::new()))
            .unwrap();
    }

    #[test]
    fn attach_store_refuses_non_fresh_store() {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(83_000);
        // A store with prior history must be adopted via recover(), not
        // silently appended to.
        let mut populated = crate::store::MemoryStore::new();
        let bio = params.sketch().line().random_vector(8, &mut rng);
        let record = device.enroll("old", &bio, &mut rng).unwrap();
        populated
            .append(crate::store::LogEventRef::Enroll(&record))
            .unwrap();
        let mut server = AuthenticationServer::new(params.clone());
        assert!(matches!(
            server.attach_store(Box::new(populated)),
            Err(ProtocolError::Storage(_))
        ));
        assert!(server.store().is_none());
    }

    #[test]
    fn failed_enroll_does_not_reach_the_journal() {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(82_000);
        let mut server = AuthenticationServer::new(params.clone());
        server
            .attach_store(Box::new(crate::store::MemoryStore::new()))
            .unwrap();

        let bio = params.sketch().line().random_vector(16, &mut rng);
        let record = device.enroll("dup", &bio, &mut rng).unwrap();
        server.enroll(record.clone()).unwrap();
        assert!(server.enroll(record).is_err());
        assert!(server.revoke("ghost").is_err());
        // Only the successful enrollment was journaled.
        assert_eq!(server.store().unwrap().journal_len(), 1);
    }

    #[test]
    fn mismatched_sketch_dimension_is_refused_before_journaling() {
        // The index would panic on a mixed-dimension insert; the server
        // must catch it in validation — *before* the write-ahead append
        // — or the bad record becomes durable and poisons every
        // subsequent recovery.
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(84_000);
        let mut server = AuthenticationServer::new(params.clone());
        server
            .attach_store(Box::new(crate::store::MemoryStore::new()))
            .unwrap();

        let bio16 = params.sketch().line().random_vector(16, &mut rng);
        server
            .enroll(device.enroll("alice", &bio16, &mut rng).unwrap())
            .unwrap();
        let bio32 = params.sketch().line().random_vector(32, &mut rng);
        let bad = device.enroll("bob", &bio32, &mut rng).unwrap();
        assert!(matches!(
            server.enroll(bad),
            Err(ProtocolError::Malformed("sketch dimension mismatch"))
        ));
        // Only alice reached the journal; the server still works.
        assert_eq!(server.store().unwrap().journal_len(), 1);
        assert_eq!(server.user_count(), 1);
    }

    #[test]
    fn unknown_session_rejected() {
        let (_device, mut server, _bios, _rng) = setup(1);
        let resp = IdentResponse {
            session: 999,
            signature: vec![0; 40],
            nonce: 7,
        };
        assert_eq!(
            server.finish_identification(&resp).unwrap_err(),
            ProtocolError::UnknownSession
        );
    }
}
