//! Durable enrollment storage: the append-only journal + snapshot
//! persistence behind crash-safe server recovery.
//!
//! The paper's server holds the whole enrolled population in memory; a
//! restart would silently lose every enrollment. Since helper data is
//! *public* under the paper's model (Sec. VI — an insider can read the
//! stored `(ID, pk, P)` records anyway), persisting it costs no security,
//! and classical fuzzy-extractor theory is explicitly built on storable
//! helper data. This module supplies the storage contract:
//!
//! * [`LogEvent`] — the two facts a server ever needs to remember:
//!   an enrollment (the full public record) or a revocation (the id).
//! * [`EnrollmentStore`] — the storage abstraction the servers journal
//!   through. Implementations must make [`EnrollmentStore::append`]
//!   durable *before* returning, because the server mutates its
//!   in-memory state only after the journal accepts the event
//!   (write-ahead ordering).
//! * [`MemoryStore`] — an in-process backend: no durability, but the
//!   same replay semantics. Useful for tests and for ephemeral
//!   deployments that still want the snapshot/compaction pass.
//! * [`FileStore`] — the durable backend: one directory holding an
//!   append-only journal (`journal.fel`) of CRC-framed events plus a
//!   periodically rewritten, atomically renamed snapshot
//!   (`snapshot.fes`) of the live population. Recovery loads the
//!   snapshot and replays the journal tail; a torn final journal write
//!   (the expected crash artifact) is detected by its frame CRC and
//!   truncated, while artifacts from a *different* parameter set are
//!   rejected by their [`Fingerprint`] before a single record is
//!   misinterpreted.
//!
//! See `DESIGN.md` ("Durability & recovery") for the format diagrams and
//! the reasoning behind each decision.
//!
//! ```rust
//! use fe_protocol::store::{EnrollmentStore, LogEvent, LogEventRef, MemoryStore};
//! use fe_protocol::{BiometricDevice, SystemParams};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fe_protocol::ProtocolError> {
//! let params = SystemParams::insecure_test_defaults();
//! let device = BiometricDevice::new(params.clone());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//!
//! let mut store = MemoryStore::new();
//! let bio = params.sketch().line().random_vector(16, &mut rng);
//! let record = device.enroll("alice", &bio, &mut rng)?;
//! store.append(LogEventRef::Enroll(&record))?;
//! store.append(LogEventRef::Revoke("alice"))?;
//!
//! // Replay returns the events in order; applying them rebuilds the
//! // population (here: alice enrolled, then revoked → empty).
//! let events = store.load()?;
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0], LogEvent::Enroll(record));
//! # Ok(())
//! # }
//! ```

use crate::messages::{EnrollmentRecord, UserId};
use crate::ProtocolError;
use fe_core::codec::{
    self, ArtifactKind, CodecError, Fingerprint, Reader, Version, Writer, FORMAT_VERSION,
};
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One durable fact about the enrolled population.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    /// A user enrolled with this (public) record.
    Enroll(EnrollmentRecord),
    /// The user with this id was revoked.
    Revoke(UserId),
    /// A uniqueness-checked enrollment was *refused* because the
    /// presented sketch already matched the enrolled user `matched`
    /// (see [`AuthenticationServer::enroll_unique`](crate::AuthenticationServer::enroll_unique)).
    /// Pure audit record: replay ignores it, and compaction drops it
    /// with the rest of the journal history.
    EnrollRejected {
        /// The id the refused enrollment carried.
        id: UserId,
        /// The already-enrolled user whose record matched.
        matched: UserId,
    },
}

impl LogEvent {
    /// A borrowed view of this event (see [`LogEventRef`]).
    pub fn as_ref(&self) -> LogEventRef<'_> {
        match self {
            LogEvent::Enroll(record) => LogEventRef::Enroll(record),
            LogEvent::Revoke(id) => LogEventRef::Revoke(id),
            LogEvent::EnrollRejected { id, matched } => LogEventRef::EnrollRejected { id, matched },
        }
    }
}

/// A borrowed [`LogEvent`]: what [`EnrollmentStore::append`] takes, so
/// the write-ahead hot path (`enroll` journals *every* record) never
/// clones sketch vectors just to serialize them.
#[derive(Debug, Clone, Copy)]
pub enum LogEventRef<'a> {
    /// A user enrolled with this (public) record.
    Enroll(&'a EnrollmentRecord),
    /// The user with this id was revoked.
    Revoke(&'a str),
    /// A uniqueness-checked enrollment of `id` was refused because the
    /// sketch matched the enrolled user `matched` (audit record).
    EnrollRejected {
        /// The id the refused enrollment carried.
        id: &'a str,
        /// The already-enrolled user whose record matched.
        matched: &'a str,
    },
}

impl LogEventRef<'_> {
    /// Clones into an owned [`LogEvent`] (what in-memory backends
    /// store).
    pub fn to_event(self) -> LogEvent {
        match self {
            LogEventRef::Enroll(record) => LogEvent::Enroll(record.clone()),
            LogEventRef::Revoke(id) => LogEvent::Revoke(id.to_string()),
            LogEventRef::EnrollRejected { id, matched } => LogEvent::EnrollRejected {
                id: id.to_string(),
                matched: matched.to_string(),
            },
        }
    }
}

const EVENT_ENROLL: u8 = 1;
const EVENT_REVOKE: u8 = 2;
const EVENT_ENROLL_REJECTED: u8 = 3;

/// One snapshot row, borrowed: what [`EnrollmentStore::compact`]
/// streams instead of taking an owned `Vec<EnrollmentRecord>` of the
/// whole population. The server keeps a record's sketch only as its
/// index row, so the helper data here is a scratch value the row source
/// rebuilds for each row (see [`SnapshotRows`]).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRow<'a> {
    /// The enrolled user's identity.
    pub id: &'a str,
    /// Serialized DSA verification key bytes, as enrolled.
    pub public_key: &'a [u8],
    /// Public helper data `P = (s, h, r)`.
    pub helper: &'a crate::messages::WireHelper,
}

impl SnapshotRow<'_> {
    /// Borrows a row from an owned record.
    pub fn of(record: &EnrollmentRecord) -> SnapshotRow<'_> {
        SnapshotRow {
            id: &record.id,
            public_key: &record.public_key,
            helper: &record.helper,
        }
    }

    /// Clones into an owned wire-shaped record (what in-memory
    /// snapshot backends store).
    pub fn to_record(&self) -> EnrollmentRecord {
        EnrollmentRecord {
            id: self.id.to_string(),
            public_key: self.public_key.to_vec(),
            helper: self.helper.clone(),
        }
    }
}

/// The row stream of [`EnrollmentStore::compact`]: a lending iterator,
/// so the source can rebuild every row into one scratch buffer instead
/// of holding (or cloning) a [`WireHelper`](crate::messages::WireHelper)
/// per record.
pub trait SnapshotRows {
    /// The next live record in enrollment order, valid until the next
    /// call; `None` when the population is exhausted.
    fn next_row(&mut self) -> Option<SnapshotRow<'_>>;
}

/// A slice of owned records is a row stream (what
/// [`EnrollmentStore::compact_records`] feeds a store).
impl SnapshotRows for std::slice::Iter<'_, EnrollmentRecord> {
    fn next_row(&mut self) -> Option<SnapshotRow<'_>> {
        self.next().map(SnapshotRow::of)
    }
}

/// Encodes an enrollment record's fields in the layout of
/// [`FORMAT_VERSION`] (no artifact header — callers embed this in
/// framed journal entries or snapshot rows).
pub fn put_record(w: &mut Writer, record: &EnrollmentRecord) {
    put_row(w, &SnapshotRow::of(record), FORMAT_VERSION);
}

/// [`put_record`] for a borrowed snapshot row, in `version`'s layout:
/// `id ‖ public key ‖ sketch ‖ tag ‖ seed`, each length and the sketch
/// as [`Writer::put_field`] and [`Writer::put_sketch`] spell them. The
/// one place the record row is written: version 2 for the journal and
/// the snapshot, version 1 for a journal opened at version 1 and for the
/// wire's two enroll messages.
pub fn put_row(w: &mut Writer, row: &SnapshotRow<'_>, version: Version) {
    w.put_field(row.id.as_bytes(), version);
    w.put_field(row.public_key, version);
    codec::put_helper(w, row.helper, version);
}

/// Decodes a record written by [`put_record`].
///
/// # Errors
/// [`CodecError`] on truncation or malformed fields.
pub fn get_record(r: &mut Reader<'_>) -> Result<EnrollmentRecord, CodecError> {
    get_row(r, FORMAT_VERSION)
}

/// Decodes a record row written by [`put_row`] in `version`.
///
/// # Errors
/// [`CodecError`] on truncation or malformed fields.
pub fn get_row(r: &mut Reader<'_>, version: Version) -> Result<EnrollmentRecord, CodecError> {
    let id = get_id(r, version)?;
    let public_key = r.get_field(version)?.to_vec();
    let helper = codec::get_helper(r, version)?;
    Ok(EnrollmentRecord {
        id,
        public_key,
        helper,
    })
}

/// Reads a user id written by [`Writer::put_field`] in `version`.
fn get_id(r: &mut Reader<'_>, version: Version) -> Result<UserId, CodecError> {
    let bytes = r.get_field(version)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("not utf-8"))
}

/// Encodes one journal event in `version`'s layout as a frame
/// payload, where the caller's frame will hold it.
fn put_event(w: &mut Writer, event: LogEventRef<'_>, version: Version) {
    match event {
        LogEventRef::Enroll(record) => {
            w.put_u8(EVENT_ENROLL);
            put_row(w, &SnapshotRow::of(record), version);
        }
        LogEventRef::Revoke(id) => {
            w.put_u8(EVENT_REVOKE);
            w.put_field(id.as_bytes(), version);
        }
        LogEventRef::EnrollRejected { id, matched } => {
            w.put_u8(EVENT_ENROLL_REJECTED);
            w.put_field(id.as_bytes(), version);
            w.put_field(matched.as_bytes(), version);
        }
    }
}

/// Decodes one journal-frame payload written in `version`.
fn decode_event(payload: &[u8], version: Version) -> Result<LogEvent, CodecError> {
    let mut r = Reader::new(payload);
    let event = match r.get_u8()? {
        EVENT_ENROLL => LogEvent::Enroll(get_row(&mut r, version)?),
        EVENT_REVOKE => LogEvent::Revoke(get_id(&mut r, version)?),
        EVENT_ENROLL_REJECTED => LogEvent::EnrollRejected {
            id: get_id(&mut r, version)?,
            matched: get_id(&mut r, version)?,
        },
        _ => return Err(CodecError::Malformed("unknown event tag")),
    };
    r.expect_end()?;
    Ok(event)
}

/// Storage abstraction the servers journal enrollment state through.
///
/// The contract, in the order a durable server exercises it:
///
/// 1. [`EnrollmentStore::append`] persists one event. The server calls
///    this *before* touching its in-memory state (write-ahead), so an
///    event that fails to persist never exists only in RAM.
/// 2. [`EnrollmentStore::load`] returns every surviving event in append
///    order — snapshot records first (as `Enroll` events), then the
///    journal tail. Replaying them into an empty server reproduces the
///    pre-crash population.
/// 3. [`EnrollmentStore::compact`] replaces all history with a snapshot
///    of the given live records and empties the journal, bounding both
///    storage and future recovery time.
pub trait EnrollmentStore: std::fmt::Debug + Send + Sync {
    /// Durably appends one event (borrowed — implementations clone only
    /// if they keep events in memory).
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] when the event could not be persisted;
    /// the caller must then leave its in-memory state unchanged.
    fn append(&mut self, event: LogEventRef<'_>) -> Result<(), ProtocolError>;

    /// Replays all persisted state as an ordered event sequence.
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] / [`ProtocolError::Codec`] on
    /// unreadable or foreign artifacts (a torn journal *tail* is not an
    /// error — implementations truncate it and return the good prefix).
    fn load(&mut self) -> Result<Vec<LogEvent>, ProtocolError>;

    /// Atomically replaces history with a snapshot of exactly `count`
    /// live records, streamed one [`SnapshotRow`] at a time, and
    /// truncates the journal. Streaming is the point: a checkpoint of
    /// 10⁶ users must not rebuild 10⁶ sketches into an intermediate
    /// vector before the first byte hits disk.
    ///
    /// Implementations may rely on `rows` yielding exactly `count`
    /// items; the server derives both from the same record table.
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] when the snapshot could not be
    /// written; the previous snapshot/journal remain in effect.
    fn compact(&mut self, count: usize, rows: &mut dyn SnapshotRows) -> Result<(), ProtocolError>;

    /// [`EnrollmentStore::compact`] over an owned record slice — the
    /// convenience form tests and small deployments use.
    ///
    /// # Errors
    /// As [`EnrollmentStore::compact`].
    fn compact_records(&mut self, live: &[EnrollmentRecord]) -> Result<(), ProtocolError> {
        self.compact(live.len(), &mut live.iter())
    }

    /// Events appended since the last snapshot (the journal tail length):
    /// the replay work a recovery would have to do beyond snapshot load,
    /// and the usual trigger for scheduling [`EnrollmentStore::compact`].
    fn journal_len(&self) -> usize;
}

/// In-memory [`EnrollmentStore`]: replay/compaction semantics without
/// durability.
#[derive(Debug, Default, Clone)]
pub struct MemoryStore {
    snapshot: Vec<EnrollmentRecord>,
    journal: Vec<LogEvent>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl EnrollmentStore for MemoryStore {
    fn append(&mut self, event: LogEventRef<'_>) -> Result<(), ProtocolError> {
        self.journal.push(event.to_event());
        Ok(())
    }

    fn load(&mut self) -> Result<Vec<LogEvent>, ProtocolError> {
        let mut events: Vec<LogEvent> = self
            .snapshot
            .iter()
            .cloned()
            .map(LogEvent::Enroll)
            .collect();
        events.extend(self.journal.iter().cloned());
        Ok(events)
    }

    fn compact(&mut self, count: usize, rows: &mut dyn SnapshotRows) -> Result<(), ProtocolError> {
        let mut snapshot = Vec::with_capacity(count);
        while let Some(row) = rows.next_row() {
            snapshot.push(row.to_record());
        }
        self.snapshot = snapshot;
        self.journal.clear();
        Ok(())
    }

    fn journal_len(&self) -> usize {
        self.journal.len()
    }
}

/// Size of the artifact header every durable file starts with
/// (magic ‖ version ‖ kind ‖ fingerprint).
const HEADER_LEN: u64 = 4 + 2 + 1 + 8;

/// The journal's file name inside a store directory.
const JOURNAL_FILE: &str = "journal.fel";

fn io_err(context: &str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Storage(format!("{context}: {e}"))
}

/// File-backed [`EnrollmentStore`]: append-only journal + compacted
/// snapshots in one directory.
///
/// # Layout
///
/// * `journal.fel` — artifact header (kind [`ArtifactKind::Journal`]),
///   then zero or more CRC-framed [`LogEvent`]s. Appended on every
///   enroll/revoke; never rewritten except by compaction.
///   Frames are written in the header's [`Version`]: a journal created
///   by an older build keeps taking version-1 frames until the next
///   compaction resets it to a [`FORMAT_VERSION`] header, so no file
///   ever mixes layouts.
/// * `snapshot.fes` — artifact header (kind [`ArtifactKind::Snapshot`]),
///   a `u64` record count, then that many CRC-framed records, always
///   written at [`FORMAT_VERSION`] and read at either version. Written to
///   `snapshot.fes.tmp` first, fsynced, and renamed into place — readers
///   only ever observe a complete snapshot.
///
/// # Crash behavior
///
/// A crash mid-append leaves a torn final frame: a short frame or a CRC
/// mismatch at the end of the file. [`FileStore::open`] detects it and
/// truncates the journal back to the last complete frame immediately —
/// *before* handing out an append handle — so the surviving events are
/// exactly those whose `append` had returned `Ok`. The running store
/// keeps the same promise: it knows the length of the journal's good
/// prefix, and an append whose write (or `sync_data`) fails part-way —
/// a full disk, an I/O error — cuts the file back to that length before
/// returning its error; if the cut fails too, every later append on the
/// handle is refused until the store is reopened. Either way a fresh
/// append never lands behind torn bytes. A bad frame with an intact
/// frame anywhere *behind* it — a CRC failure, or a length word grown
/// past the end of the file — is damage at rest, not a crash: `open`
/// refuses and leaves the file untouched for salvage. A crash mid-compaction
/// leaves at worst a stale `.tmp` file, which the next compaction
/// overwrites; the rename is the commit point.
///
/// # Single-writer lock
///
/// The store holds an exclusive kernel lock (`flock`, through
/// [`File::try_lock`]) on `lock.pid` in its directory for as long as it
/// is open: a second process (or a second `FileStore` in the same
/// process) opening the same directory fails loudly instead of
/// interleaving appends into one journal. The kernel releases the lock
/// when the store is dropped or its process dies, however it dies, so
/// a crashed holder never leaves the store locked. The file itself
/// holds the holder's pid for the refusal message only, and is never
/// deleted: a second opener could lock a fresh file while the first
/// still held the unlinked one.
///
/// # Durability levels
///
/// By default appends are pushed to the OS (`write` + flush): they
/// survive *process* death — the kill-mid-log scenario — but not kernel
/// panic or power loss. [`FileStore::set_sync`] upgrades every append to
/// an `fsync`, trading enroll throughput for full power-failure
/// durability: an unsynced append is `protocol.store.append_us` in
/// `fe-benchmark`'s `churn_durable` (0.87 µs on a 2-thread sandbox);
/// a synced one costs what the device's `fsync` does.
pub struct FileStore {
    dir: PathBuf,
    fingerprint: Fingerprint,
    journal: Journal,
    journal_events: usize,
    sync_every_append: bool,
    torn_bytes_discarded: u64,
    /// `lock.pid`, exclusively locked; never read: dropping the store
    /// closes it, which releases the lock.
    _lock: File,
    /// Journal events decoded by the `open`-time scan, consumed by the
    /// first [`FileStore::load`] so recovery reads and checksums the
    /// journal exactly once. Invalidated by [`FileStore::append`].
    scanned: Option<Vec<LogEvent>>,
}

/// Takes the store's single-writer lock (see [`FileStore`]): opens
/// `dir/lock.pid` without truncating it, locks it exclusively, and only
/// then writes this process's pid into it.
fn lock_dir(dir: &Path) -> Result<File, ProtocolError> {
    let path = dir.join("lock.pid");
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| io_err("open store lock", e))?;
    match file.try_lock() {
        Ok(()) => {}
        Err(TryLockError::WouldBlock) => {
            // Empty while the holder is between its lock and its write.
            let holder = fs::read_to_string(&path).unwrap_or_default();
            let holder = match holder.trim() {
                "" => "?",
                pid => pid,
            };
            return Err(ProtocolError::Storage(format!(
                "store at {} is already open (lock {} held by pid {holder})",
                dir.display(),
                path.display(),
            )));
        }
        Err(TryLockError::Error(e)) => return Err(io_err("lock store", e)),
    }
    file.set_len(0)
        .and_then(|()| writeln!(file, "{}", std::process::id()))
        .map_err(|e| io_err("write store lock", e))?;
    Ok(file)
}

/// What [`Journal::append`] needs of its file, and no more — the seam
/// the failed-append tests put a failing file behind.
trait JournalFile: std::io::Write {
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
    fn sync_data(&mut self) -> std::io::Result<()>;
}

impl JournalFile for File {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        File::sync_data(self)
    }
}

/// The journal's append handle: the `O_APPEND` file, the length of its
/// good prefix, the layout its header names, and the one buffer every
/// frame is encoded in.
struct Journal<F = File> {
    file: F,
    /// The version of the file's header, which every frame appended to
    /// it is written in.
    version: Version,
    /// Bytes of header plus acknowledged frames — where the file is cut
    /// back to when an append fails part-way.
    good_len: u64,
    /// That cut failed (or a compaction died while resetting the file):
    /// the journal may end in part of a frame, and a frame appended
    /// behind it would read as damage at rest. Appends are refused.
    poisoned: bool,
    scratch: Writer,
}

impl<F: JournalFile> Journal<F> {
    fn new(file: F, version: Version, good_len: u64) -> Journal<F> {
        Journal {
            file,
            version,
            good_len,
            poisoned: false,
            scratch: Writer::new(),
        }
    }

    /// Points the handle at a journal file just rewritten to a
    /// [`FORMAT_VERSION`] header and `good_len` bytes, keeping the
    /// scratch buffer.
    fn replace_file(&mut self, file: F, good_len: u64) {
        self.file = file;
        self.version = FORMAT_VERSION;
        self.good_len = good_len;
        self.poisoned = false;
    }

    /// Frames `event` in the scratch buffer — encoded once, where it is
    /// checksummed and written from — and appends it with one
    /// `write_all` (plus `sync_data` when `sync`).
    fn append(&mut self, event: LogEventRef<'_>, sync: bool) -> Result<(), ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Storage(
                "an earlier failure left the journal's tail in doubt; reopen the store".into(),
            ));
        }
        self.scratch.clear();
        let mark = self.scratch.begin_frame();
        put_event(&mut self.scratch, event, self.version);
        self.scratch.end_frame(mark);
        let frame = self.scratch.as_slice();
        match write_through(&mut self.file, frame, sync) {
            Ok(()) => {
                self.good_len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Nobody was told about whatever part of the frame
                // landed; left in place, the next good frame would sit
                // behind it and the next `open` would refuse the store.
                if let Err(cut) = self.file.set_len(self.good_len) {
                    self.poisoned = true;
                    return Err(ProtocolError::Storage(format!(
                        "{e}; cutting the partial frame off failed too: {cut}"
                    )));
                }
                Err(e)
            }
        }
    }
}

fn write_through(
    file: &mut impl JournalFile,
    frame: &[u8],
    sync: bool,
) -> Result<(), ProtocolError> {
    file.write_all(frame)
        .map_err(|e| io_err("append journal event", e))?;
    file.flush().map_err(|e| io_err("flush journal", e))?;
    if sync {
        file.sync_data().map_err(|e| io_err("sync journal", e))?;
    }
    Ok(())
}

/// Result of one journal scan-and-repair pass.
struct JournalScan {
    version: Version,
    events: Vec<LogEvent>,
    torn_bytes: u64,
    /// Length of the file once the torn tail (if any) is cut off.
    good_len: u64,
}

/// Reads the journal, validates its header, decodes every frame, and
/// classifies a bad region: a frame running past end-of-file — or a CRC
/// failure on the *final* frame — is the torn write a crash mid-append
/// leaves (appends are strictly sequential, so a partial frame is
/// always last) and is truncated in place; a CRC failure with intact
/// data *behind* it is damage at rest, which errors with the file
/// preserved for salvage (truncating would destroy acknowledged
/// events). No CRC covers a length word, so a grown one makes a middle
/// frame look like the last: a bad frame is only cut when no intact
/// frame starts anywhere behind its first byte. Shared by `open` (so an
/// append handle never points behind torn bytes) and `load` (when
/// appends have invalidated the cached scan).
fn scan_and_repair_journal(
    path: &Path,
    fingerprint: &Fingerprint,
) -> Result<JournalScan, ProtocolError> {
    let bytes = fs::read(path).map_err(|e| io_err("read journal", e))?;
    let mut r = Reader::new(&bytes);
    let version = r.read_header(ArtifactKind::Journal, fingerprint)?;
    let mut events = Vec::new();
    let good_end = loop {
        if r.is_empty() {
            break bytes.len();
        }
        let frame_start = r.position();
        let torn = match r.get_framed() {
            Ok(payload) => match decode_event(payload, version) {
                Ok(event) => {
                    events.push(event);
                    continue;
                }
                // A frame with a valid CRC but undecodable contents is
                // corruption, not a torn write.
                Err(e) => return Err(ProtocolError::Codec(e)),
            },
            Err(CodecError::Truncated) => CodecError::Truncated,
            Err(CodecError::BadChecksum) if r.is_empty() => CodecError::BadChecksum,
            Err(e) => return Err(ProtocolError::Codec(e)),
        };
        if intact_frame_after(&bytes, frame_start, version) {
            return Err(ProtocolError::Codec(torn));
        }
        break frame_start;
    };
    let torn_bytes = (bytes.len() - good_end) as u64;
    if torn_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open journal for truncation", e))?;
        file.set_len(good_end as u64)
            .map_err(|e| io_err("truncate torn journal tail", e))?;
    }
    Ok(JournalScan {
        version,
        events,
        torn_bytes,
        good_len: good_end as u64,
    })
}

/// Whether a frame whose CRC checks and whose payload decodes starts at
/// some offset of `bytes` after `from`: what a damaged frame with
/// acknowledged frames behind it has, and a torn final write does not.
fn intact_frame_after(bytes: &[u8], from: usize, version: Version) -> bool {
    (from + 1..bytes.len()).any(|at| {
        Reader::new(&bytes[at..])
            .get_framed()
            .is_ok_and(|payload| decode_event(payload, version).is_ok())
    })
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("dir", &self.dir)
            .field("fingerprint", &self.fingerprint.to_string())
            .field("journal_events", &self.journal_events)
            .field("sync_every_append", &self.sync_every_append)
            .finish()
    }
}

impl FileStore {
    /// Opens (creating if needed) the store directory for the given
    /// parameter fingerprint.
    ///
    /// An existing journal's header is validated immediately: a foreign
    /// file or a journal written under different system parameters is
    /// rejected here, before any replay.
    ///
    /// # Errors
    /// [`ProtocolError::Storage`] on I/O failure;
    /// [`ProtocolError::Codec`] when existing artifacts belong to a
    /// different format or parameter set.
    pub fn open(
        dir: impl AsRef<Path>,
        fingerprint: Fingerprint,
    ) -> Result<FileStore, ProtocolError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", e))?;
        // Held from here on; an error below drops it, which unlocks.
        let lock = lock_dir(&dir)?;

        let journal_path = dir.join(JOURNAL_FILE);

        let mut fresh_header = Writer::new();
        fresh_header.put_header(ArtifactKind::Journal, &fingerprint);

        let existing_len = match fs::metadata(&journal_path) {
            Ok(meta) => Some(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("stat journal", e)),
        };
        let scan = match existing_len {
            // Scan (and torn-tail-repair) the journal now, *before* the
            // append handle exists — a fresh append must never land
            // behind torn bytes — and keep the decoded events so the
            // first `load` does not re-read the file.
            Some(len) if len >= HEADER_LEN => scan_and_repair_journal(&journal_path, &fingerprint)?,
            Some(_) => {
                // Torn during creation (crash before the header landed):
                // no frame can have been acknowledged, so rewriting the
                // header loses nothing.
                fs::write(&journal_path, fresh_header.as_slice())
                    .map_err(|e| io_err("rewrite torn journal header", e))?;
                JournalScan {
                    version: FORMAT_VERSION,
                    events: Vec::new(),
                    torn_bytes: 0,
                    good_len: HEADER_LEN,
                }
            }
            None => {
                fs::write(&journal_path, fresh_header.as_slice())
                    .map_err(|e| io_err("create journal", e))?;
                JournalScan {
                    version: FORMAT_VERSION,
                    events: Vec::new(),
                    torn_bytes: 0,
                    good_len: HEADER_LEN,
                }
            }
        };

        let journal = OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err("open journal for append", e))?;
        Ok(FileStore {
            dir,
            fingerprint,
            journal: Journal::new(journal, scan.version, scan.good_len),
            journal_events: scan.events.len(),
            sync_every_append: false,
            torn_bytes_discarded: scan.torn_bytes,
            _lock: lock,
            scanned: Some(scan.events),
        })
    }

    /// Whether `dir` holds a store. [`FileStore::open`] creates the
    /// journal and nothing deletes it, so a store exists exactly when
    /// its journal does.
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(JOURNAL_FILE).is_file()
    }

    /// Upgrades (or downgrades) appends to fsync-per-event durability
    /// (off by default). A [`SharedServer`](crate::concurrent::SharedServer)
    /// shard opens its store itself and never calls this, so its
    /// appends are never fsynced; a synced store serves only through
    /// [`AuthenticationServer::recover_with_store`](crate::AuthenticationServer::recover_with_store).
    pub fn set_sync(&mut self, sync: bool) {
        self.sync_every_append = sync;
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes discarded as torn journal tails since this store was
    /// opened — including the repair [`FileStore::open`] itself performs
    /// (0 when the journal has been clean throughout).
    pub fn torn_bytes_discarded(&self) -> u64 {
        self.torn_bytes_discarded
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.fes")
    }

    fn load_snapshot(&self) -> Result<Vec<LogEvent>, ProtocolError> {
        let bytes = match fs::read(self.snapshot_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read snapshot", e)),
        };
        let mut r = Reader::new(&bytes);
        let version = r.read_header(ArtifactKind::Snapshot, &self.fingerprint)?;
        let count = r.get_u64()?;
        // The count field is not self-validating; cap the preallocation
        // by what the remaining bytes could possibly hold (8 bytes of
        // frame header per record minimum) so a corrupt count cannot
        // trigger a huge allocation — the framed reads below still fail
        // cleanly on any mismatch.
        let plausible = (r.remaining() / 8).min(count as usize);
        let mut events = Vec::with_capacity(plausible);
        for _ in 0..count {
            // Snapshots are written atomically (tmp + rename), so any
            // damage here is corruption, not a torn write → hard error.
            let payload = r.get_framed()?;
            events.push(LogEvent::Enroll(
                get_row(&mut Reader::new(payload), version).map_err(ProtocolError::Codec)?,
            ));
        }
        r.expect_end().map_err(ProtocolError::Codec)?;
        Ok(events)
    }

    /// The journal tail: the `open`-time scan if still valid, otherwise
    /// a fresh scan-and-repair of the file.
    fn journal_tail(&mut self) -> Result<Vec<LogEvent>, ProtocolError> {
        if let Some(events) = self.scanned.take() {
            return Ok(events);
        }
        let scan = scan_and_repair_journal(&self.journal_path(), &self.fingerprint)?;
        self.torn_bytes_discarded += scan.torn_bytes;
        self.journal_events = scan.events.len();
        self.journal.version = scan.version;
        self.journal.good_len = scan.good_len;
        Ok(scan.events)
    }
}

impl EnrollmentStore for FileStore {
    fn append(&mut self, event: LogEventRef<'_>) -> Result<(), ProtocolError> {
        self.journal.append(event, self.sync_every_append)?;
        self.journal_events += 1;
        // The open-time scan no longer reflects the file.
        self.scanned = None;
        Ok(())
    }

    fn load(&mut self) -> Result<Vec<LogEvent>, ProtocolError> {
        let mut events = self.load_snapshot()?;
        events.extend(self.journal_tail()?);
        Ok(events)
    }

    fn compact(&mut self, count: usize, rows: &mut dyn SnapshotRows) -> Result<(), ProtocolError> {
        // 1. Stream the snapshot to a temporary file, one framed row at
        //    a time — the whole population is never materialized in
        //    memory (the server side rebuilds each row into one scratch
        //    buffer from its record table and index).
        let tmp = self.dir.join("snapshot.fes.tmp");
        let file = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", e))?;
        let mut out = std::io::BufWriter::new(file);
        let mut header = Writer::new();
        header.put_header(ArtifactKind::Snapshot, &self.fingerprint);
        header.put_u64(count as u64);
        out.write_all(header.as_slice())
            .map_err(|e| io_err("write snapshot header", e))?;
        let mut written = 0usize;
        // Every row is framed in place in the journal's scratch buffer:
        // a 10⁶-user snapshot allocates no writer and copies each row
        // once, into the `BufWriter`.
        let frame = &mut self.journal.scratch;
        while let Some(row) = rows.next_row() {
            frame.clear();
            let mark = frame.begin_frame();
            put_row(frame, &row, FORMAT_VERSION);
            frame.end_frame(mark);
            out.write_all(frame.as_slice())
                .map_err(|e| io_err("write snapshot row", e))?;
            written += 1;
        }
        // The count header was written first; a lying iterator would
        // produce a snapshot that fails its own load.
        if written != count {
            return Err(ProtocolError::Storage(format!(
                "snapshot row stream produced {written} rows, caller promised {count}"
            )));
        }
        let file = out
            .into_inner()
            .map_err(|e| io_err("flush snapshot", e.into()))?;
        file.sync_all().map_err(|e| io_err("sync snapshot", e))?;
        drop(file);
        // 2. …atomically commit it. The rename itself must be made
        // durable (fsync of the *directory*) before the journal is
        // reset: otherwise power loss could persist the emptied journal
        // while the snapshot's directory entry evaporates, losing every
        // event the snapshot was supposed to cover.
        fs::rename(&tmp, self.snapshot_path()).map_err(|e| io_err("commit snapshot", e))?;
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync store dir", e))?;
        // 3. Only now reset the journal to its bare header, and push
        // the truncation to stable storage too. (A crash between 2 and
        // 3 replays journal events already covered by the snapshot;
        // replay tolerates that by construction — see
        // `AuthenticationServer::recover`.)
        let mut header = Writer::new();
        header.put_header(ArtifactKind::Journal, &self.fingerprint);
        // Until the handle is re-pointed below, its `good_len` describes
        // a file that no longer exists: refuse appends if this fails.
        self.journal.poisoned = true;
        let mut journal =
            File::create(self.journal_path()).map_err(|e| io_err("reset journal", e))?;
        journal
            .write_all(header.as_slice())
            .map_err(|e| io_err("write journal header", e))?;
        journal
            .sync_all()
            .map_err(|e| io_err("sync reset journal", e))?;
        drop(journal);
        let journal = OpenOptions::new()
            .append(true)
            .open(self.journal_path())
            .map_err(|e| io_err("reopen journal", e))?;
        self.journal.replace_file(journal, HEADER_LEN);
        self.journal_events = 0;
        self.scanned = Some(Vec::new());
        Ok(())
    }

    fn journal_len(&self) -> usize {
        self.journal_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemParams;
    use crate::BiometricDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fe-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records(n: usize) -> (SystemParams, Vec<EnrollmentRecord>) {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut rng = StdRng::seed_from_u64(50);
        let records = (0..n)
            .map(|u| {
                let bio = params.sketch().line().random_vector(8, &mut rng);
                device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap()
            })
            .collect();
        (params, records)
    }

    #[test]
    fn event_codec_roundtrip() {
        let (_, records) = sample_records(1);
        for event in [
            LogEvent::Enroll(records[0].clone()),
            LogEvent::Revoke("someone".into()),
            LogEvent::EnrollRejected {
                id: "mallory".into(),
                matched: "alice".into(),
            },
        ] {
            for version in [Version::V1, Version::V2] {
                let mut w = Writer::new();
                put_event(&mut w, event.as_ref(), version);
                assert_eq!(decode_event(w.as_slice(), version).unwrap(), event);
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn revoke_frame_bytes_are_pinned() {
        // len ‖ crc32 ‖ tag ‖ len(id) ‖ id, the length one byte.
        let dir = temp_dir("pinned-frame");
        let (params, _) = sample_records(0);
        let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
        store.append(LogEventRef::Revoke("user-7")).unwrap();
        let journal = fs::read(dir.join("journal.fel")).unwrap();
        assert_eq!(
            hex(&journal[HEADER_LEN as usize..]),
            "000000086250afac0206757365722d37"
        );
        fs::remove_dir_all(&dir).unwrap();

        // Version 1, as written by the commit before frames were encoded
        // in place and the checksum went table-driven: the length a u32.
        let mut w = Writer::new();
        let mark = w.begin_frame();
        put_event(&mut w, LogEventRef::Revoke("user-7"), Version::V1);
        w.end_frame(mark);
        assert_eq!(hex(w.as_slice()), "0000000b76bc7f950200000006757365722d37");
    }

    #[test]
    fn append_reuses_its_scratch_buffer() {
        let dir = temp_dir("scratch");
        let (params, records) = sample_records(2);
        let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
        store.append(LogEventRef::Enroll(&records[0])).unwrap();
        let grown = store.journal.scratch.capacity();
        for i in 0..1_000 {
            store.append(LogEventRef::Enroll(&records[i % 2])).unwrap();
            store.append(LogEventRef::Revoke("user-0")).unwrap();
        }
        assert_eq!(store.journal.scratch.capacity(), grown);
        assert_eq!(store.journal_len(), 2_001);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal file whose next write fails once `budget` more bytes
    /// have landed, whose next `sync_data` fails if `fail_sync`, and
    /// whose `set_len` fails if `fail_set_len`. Each write and sync
    /// fault fires once; everything else goes to the real file.
    struct FaultyFile {
        file: File,
        budget: Option<usize>,
        fail_sync: bool,
        fail_set_len: bool,
    }

    impl FaultyFile {
        fn append_to(dir: &Path) -> FaultyFile {
            FaultyFile {
                file: OpenOptions::new()
                    .append(true)
                    .open(dir.join("journal.fel"))
                    .unwrap(),
                budget: None,
                fail_sync: false,
                fail_set_len: false,
            }
        }
    }

    impl std::io::Write for FaultyFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.budget {
                None => self.file.write(buf),
                Some(0) => {
                    self.budget = None;
                    Err(std::io::Error::other("no space left on device"))
                }
                Some(left) => {
                    let n = left.min(buf.len());
                    self.budget = Some(left - n);
                    self.file.write(&buf[..n])
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    impl JournalFile for FaultyFile {
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            if self.fail_set_len {
                return Err(std::io::Error::other("read-only file system"));
            }
            self.file.set_len(len)
        }

        fn sync_data(&mut self) -> std::io::Result<()> {
            if std::mem::take(&mut self.fail_sync) {
                return Err(std::io::Error::other("input/output error"));
            }
            self.file.sync_data()
        }
    }

    /// A store holding one acknowledged enroll, reopened as a bare
    /// [`Journal`] over a [`FaultyFile`].
    fn faulty_journal(
        dir: &Path,
        first: &EnrollmentRecord,
        fp: Fingerprint,
    ) -> Journal<FaultyFile> {
        let _ = fs::remove_dir_all(dir);
        let mut store = FileStore::open(dir, fp).unwrap();
        store.append(LogEventRef::Enroll(first)).unwrap();
        let good_len = store.journal.good_len;
        drop(store);
        assert_eq!(
            fs::metadata(dir.join("journal.fel")).unwrap().len(),
            good_len
        );
        Journal::new(FaultyFile::append_to(dir), FORMAT_VERSION, good_len)
    }

    #[test]
    fn failed_append_is_cut_off_at_every_byte() {
        let dir = temp_dir("failed-append");
        let (params, records) = sample_records(3);
        let fp = params.fingerprint();
        let mut w = Writer::new();
        let mark = w.begin_frame();
        put_event(&mut w, LogEventRef::Enroll(&records[1]), FORMAT_VERSION);
        w.end_frame(mark);
        let frame_len = w.as_slice().len();
        let acknowledged = vec![
            LogEvent::Enroll(records[0].clone()),
            LogEvent::Enroll(records[2].clone()),
            LogEvent::Revoke("user-0".into()),
        ];

        // `cut` bytes of the second enroll land, then the disk is full;
        // `cut == frame_len` is the whole frame down and the sync failing.
        for cut in 0..=frame_len {
            let mut journal = faulty_journal(&dir, &records[0], fp);
            let before = journal.good_len;
            if cut < frame_len {
                journal.file.budget = Some(cut);
            } else {
                journal.file.fail_sync = true;
            }
            let refused = journal.append(LogEventRef::Enroll(&records[1]), true);
            assert!(
                matches!(refused, Err(ProtocolError::Storage(_))),
                "cut {cut}"
            );
            assert_eq!(journal.good_len, before, "cut {cut}");
            assert_eq!(
                fs::metadata(dir.join("journal.fel")).unwrap().len(),
                before,
                "cut {cut}: the partial frame is still in the file"
            );

            // Later appends on the same handle succeed…
            journal
                .append(LogEventRef::Enroll(&records[2]), true)
                .unwrap();
            journal
                .append(LogEventRef::Revoke("user-0"), false)
                .unwrap();
            drop(journal);
            // …and a reopen replays exactly what was acknowledged.
            let mut store = FileStore::open(&dir, fp).unwrap();
            assert_eq!(store.torn_bytes_discarded(), 0, "cut {cut}");
            assert_eq!(store.load().unwrap(), acknowledged, "cut {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_is_refused_after_a_failed_cut_until_reopen() {
        let dir = temp_dir("failed-cut");
        let (params, records) = sample_records(3);
        let fp = params.fingerprint();
        let mut journal = faulty_journal(&dir, &records[0], fp);
        journal.file.budget = Some(5);
        journal.file.fail_set_len = true;
        assert!(journal
            .append(LogEventRef::Enroll(&records[1]), false)
            .is_err());
        // The residue is still there, so nothing may land behind it —
        // not even once the file would take writes again.
        journal.file.fail_set_len = false;
        for _ in 0..2 {
            assert!(matches!(
                journal.append(LogEventRef::Enroll(&records[2]), false),
                Err(ProtocolError::Storage(_))
            ));
        }
        drop(journal);

        // Reopening finds the residue at the tail, cuts it off as the
        // torn write it is, and appends work again.
        let mut store = FileStore::open(&dir, fp).unwrap();
        assert_eq!(store.torn_bytes_discarded(), 5);
        store.append(LogEventRef::Enroll(&records[2])).unwrap();
        assert_eq!(
            store.load().unwrap(),
            vec![
                LogEvent::Enroll(records[0].clone()),
                LogEvent::Enroll(records[2].clone())
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_store_replay_and_compaction() {
        let (_, records) = sample_records(2);
        let mut store = MemoryStore::new();
        store.append(LogEventRef::Enroll(&records[0])).unwrap();
        store.append(LogEventRef::Enroll(&records[1])).unwrap();
        store.append(LogEventRef::Revoke("user-0")).unwrap();
        assert_eq!(store.journal_len(), 3);
        assert_eq!(store.load().unwrap().len(), 3);

        store.compact_records(&records[1..]).unwrap();
        assert_eq!(store.journal_len(), 0);
        let events = store.load().unwrap();
        assert_eq!(events, vec![LogEvent::Enroll(records[1].clone())]);
    }

    #[test]
    fn file_store_journal_roundtrip() {
        let dir = temp_dir("journal");
        let (params, records) = sample_records(3);
        let fp = params.fingerprint();

        let mut store = FileStore::open(&dir, fp).unwrap();
        for r in &records {
            store.append(LogEventRef::Enroll(r)).unwrap();
        }
        store.append(LogEventRef::Revoke("user-1")).unwrap();
        drop(store); // "crash": nothing flushed beyond OS buffers needed

        let mut store = FileStore::open(&dir, fp).unwrap();
        let events = store.load().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], LogEvent::Enroll(records[0].clone()));
        assert_eq!(events[3], LogEvent::Revoke("user-1".into()));
        assert_eq!(store.torn_bytes_discarded(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_snapshot_and_tail() {
        let dir = temp_dir("snapshot");
        let (params, records) = sample_records(4);
        let fp = params.fingerprint();

        let mut store = FileStore::open(&dir, fp).unwrap();
        for r in &records[..3] {
            store.append(LogEventRef::Enroll(r)).unwrap();
        }
        store.compact_records(&records[..3]).unwrap();
        assert_eq!(store.journal_len(), 0);
        // Post-snapshot tail.
        store.append(LogEventRef::Revoke("user-2")).unwrap();
        store.append(LogEventRef::Enroll(&records[3])).unwrap();
        drop(store);

        let mut store = FileStore::open(&dir, fp).unwrap();
        let events = store.load().unwrap();
        assert_eq!(events.len(), 5); // 3 snapshot + 2 tail
        assert_eq!(events[3], LogEvent::Revoke("user-2".into()));
        assert_eq!(events[4], LogEvent::Enroll(records[3].clone()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_replay() {
        let dir = temp_dir("torn");
        let (params, records) = sample_records(3);
        let fp = params.fingerprint();

        let mut store = FileStore::open(&dir, fp).unwrap();
        for r in &records {
            store.append(LogEventRef::Enroll(r)).unwrap();
        }
        assert_eq!(store.journal_len(), 3);
        drop(store);

        // Reopening counts the persisted frames immediately.
        assert_eq!(FileStore::open(&dir, fp).unwrap().journal_len(), 3);

        // Simulate a crash mid-write: chop bytes off the final frame.
        let journal = dir.join("journal.fel");
        let len = fs::metadata(&journal).unwrap().len();
        let file = OpenOptions::new().write(true).open(&journal).unwrap();
        file.set_len(len - 7).unwrap();
        drop(file);

        let mut store = FileStore::open(&dir, fp).unwrap();
        let events = store.load().unwrap();
        assert_eq!(events.len(), 2, "torn third record must be dropped");
        assert!(store.torn_bytes_discarded() > 0);

        // The truncation repaired the file: append + reload is clean.
        store.append(LogEventRef::Revoke("user-0")).unwrap();
        drop(store);
        let mut store = FileStore::open(&dir, fp).unwrap();
        let events = store.load().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(store.torn_bytes_discarded(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_journal_corruption_is_an_error_and_preserves_the_file() {
        let dir = temp_dir("corrupt");
        let (params, records) = sample_records(2);
        let fp = params.fingerprint();

        let mut store = FileStore::open(&dir, fp).unwrap();
        for r in &records {
            store.append(LogEventRef::Enroll(r)).unwrap();
        }
        drop(store);

        // Flip a byte inside the FIRST frame's payload: CRC fails with a
        // valid frame still behind it — damage at rest, not a torn tail.
        let journal = dir.join("journal.fel");
        let mut bytes = fs::read(&journal).unwrap();
        let idx = HEADER_LEN as usize + 8 + 3;
        bytes[idx] ^= 0xff;
        fs::write(&journal, &bytes).unwrap();

        // Open refuses (acknowledged data would be lost) and must NOT
        // destroy the file: the intact second frame stays salvageable.
        assert!(matches!(
            FileStore::open(&dir, fp),
            Err(ProtocolError::Codec(CodecError::BadChecksum))
        ));
        assert_eq!(
            fs::read(&journal).unwrap().len(),
            bytes.len(),
            "corrupt journal must be preserved for salvage"
        );

        // A corrupt *final* frame, by contrast, is indistinguishable
        // from a torn write and is truncated at open.
        bytes[idx] ^= 0xff; // heal frame 1
        let last = bytes.len() - 3;
        bytes[last] ^= 0xff; // damage frame 2's payload tail
        fs::write(&journal, &bytes).unwrap();
        let mut store = FileStore::open(&dir, fp).unwrap();
        assert!(store.torn_bytes_discarded() > 0);
        let events = store.load().unwrap();
        assert_eq!(events.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A refusal that names `pid` as the holder.
    fn refused_by(result: Result<FileStore, ProtocolError>, pid: u32) {
        match result {
            Err(ProtocolError::Storage(msg)) => {
                assert!(msg.ends_with(&format!("held by pid {pid})")), "{msg}");
            }
            other => panic!("expected a refusal naming pid {pid}, got {other:?}"),
        }
    }

    #[test]
    fn second_open_of_a_live_store_is_refused() {
        let dir = temp_dir("lock");
        let (params, records) = sample_records(1);
        let fp = params.fingerprint();

        let mut store = FileStore::open(&dir, fp).unwrap();
        store.append(LogEventRef::Enroll(&records[0])).unwrap();
        // A second writer on the same directory must fail loudly…
        refused_by(FileStore::open(&dir, fp), std::process::id());
        // …and the failed attempt must not have broken the first
        // holder's lock: a third attempt still fails.
        refused_by(FileStore::open(&dir, fp), std::process::id());
        drop(store);
        // Dropping releases the lock.
        let store = FileStore::open(&dir, fp).unwrap();
        assert_eq!(store.journal_len(), 1);
        drop(store);

        // A leftover `lock.pid` is only a file: whatever it holds, no
        // lock is on it.
        for leftover in [
            "4294000001 12345\n",
            "1 18446744073709551614\n",
            "garbage",
            "",
        ] {
            fs::write(dir.join("lock.pid"), leftover).unwrap();
            let store = FileStore::open(&dir, fp).unwrap();
            assert_eq!(store.journal_len(), 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_rejected_at_open() {
        let dir = temp_dir("fp");
        let (params, records) = sample_records(1);
        let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
        store.append(LogEventRef::Enroll(&records[0])).unwrap();
        drop(store);

        let other = Fingerprint::of(b"different params");
        match FileStore::open(&dir, other) {
            Err(ProtocolError::Codec(CodecError::FingerprintMismatch { .. })) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_journal_header_is_rewritten() {
        let dir = temp_dir("short-header");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.fel"), b"FEC").unwrap(); // torn at creation
        let (params, _) = sample_records(0);
        let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
        assert!(store.load().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_mode_appends_still_replay() {
        let dir = temp_dir("sync");
        let (params, records) = sample_records(1);
        let mut store = FileStore::open(&dir, params.fingerprint()).unwrap();
        store.set_sync(true);
        store.append(LogEventRef::Enroll(&records[0])).unwrap();
        assert_eq!(store.load().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
