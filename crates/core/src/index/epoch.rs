//! Epoch-published storage engine: one append-only **head** segment
//! that is filled in place until it seals, plus the immutable **sealed
//! segments** it became, read without waiting for writers.
//!
//! # Shape
//!
//! ```text
//!   writer state                      published snapshot (RwLock<Arc>)
//!   ┌──────────────────────┐          ┌────────────────────────────┐
//!   │ head: Arc<Segment>   │──Arc────▶│ head: Arc<Segment>         │
//!   │ segments:            │──Arc────▶│ segments: Vec<Arc<Segment>>│
//!   │   [sealed][sealed]   │          │ generation                 │
//!   └──────────────────────┘          └────────────────────────────┘
//! ```
//!
//! Writers (`insert`/`remove`/`compact`, all `&mut self`) and readers
//! share every segment — the head included — through `Arc`s. The head
//! is reserved once, for `seal_rows` rows, and never moves: an insert
//! writes its row past the published row count and then release-stores
//! the count, a scan acquire-loads the count once and reads nothing at
//! or past it (DESIGN.md "Publication invariant"), so showing a row to
//! readers costs one atomic store and no copy — and no later copy
//! either: a row is written once and stays where it was written. Only
//! a change to the segment *list* (the head sealing, a tombstone
//! rewrite, `compact`, `clear`) publishes a fresh immutable
//! `Snapshot`, by replacing the `Arc` behind one shared
//! `std::sync::RwLock` — once per `seal_rows` inserts, not once per
//! insert. Readers obtained via [`EpochRead::reader`] take the read
//! lock only to clone that `Arc`, release it, and sweep segments + head
//! against the clone unsynchronized; a snapshot stays valid for the
//! whole sweep because the reader holds an `Arc`, and a superseded
//! snapshot is freed when its last `Arc` drops — the whole reclamation
//! rule.
//!
//! # Tiers and lifecycle
//!
//! * **head** — the open segment. Its columns are *reserved* at
//!   `seal_rows` rows when the dimension is stamped — uninitialised
//!   memory nothing touches, so pages the process does not pay for
//!   until rows land in them — and inserts append there. The insert that fills it **seals** it: the same
//!   `Arc`, the same allocation, joins the segment list, and a fresh
//!   head starts.
//! * **sealed** — every listed segment. Its rows never change and are
//!   never copied by routine inserts. The one thing that rewrites a
//!   sealed segment is revocation: once a quarter of its rows are
//!   tombstoned, the `remove` that got it there (or the seal of a head
//!   that filled already that dead) copies its live rows into a
//!   smaller segment, off the read path — readers keep scanning the
//!   previous snapshot. [`EpochIndex::maintain`] applies the same
//!   rule to every segment on demand.
//!
//! Revoking a row — in the head or in a sealed segment alike — flips a
//! bit in its segment's *tombstone words*: `AtomicU64`s read by
//! in-flight scans through the already-published `Arc<Segment>`, so
//! revocation needs no republish and never blocks a reader.
//!
//! # Id assignment
//!
//! Ids are assigned densely in insertion order and never renumbered
//! outside [`SketchIndex::compact`]/[`SketchIndex::clear`]. Segments
//! hold ascending, disjoint id ranges (dense-from-base when sealed, a
//! sorted sparse id list after a rewrite dropped tombstoned rows), and
//! the head holds the tail; scanning segments in list order and the
//! head last therefore yields globally ascending matches and
//! first-hit-wins reproduces earliest-enrolled-wins exactly.

use std::fmt;
use std::sync::{Arc, RwLock};

use super::store::{CellWidth, FilterConfig, Row, RowMask, SketchArena, TILE_ROWS};
use super::{RecordId, SketchIndex};

/// Rows at which the head seals, unless 8 MiB of rows is fewer (see
/// [`default_seal_rows`]): large enough that the per-segment sweep
/// set-up and the snapshot swap amortise to nothing, small enough that
/// a tombstone rewrite under the writer's lock copies at most this
/// many rows.
const DEFAULT_SEAL_ROWS: usize = 65_536;

/// Row bytes the default head reserves at most, whatever the
/// dimension — each row once, its row column and the plane lanes that
/// hold its leading buckets together; [`DEFAULT_SEAL_ROWS`] of the
/// paper's 72-byte rows (64 B of row column, 8 of plane) are 4.5 MiB
/// of it.
const DEFAULT_SEAL_BYTES: usize = 8 << 20;

/// The default seal threshold for rows that store `row_bytes` bytes:
/// [`DEFAULT_SEAL_ROWS`] rows or [`DEFAULT_SEAL_BYTES`] of rows,
/// whichever is fewer rows — in whole tiles, at least one — so what a
/// first enroll reserves is bounded for any dimension (8 MiB per
/// index at `dim = 1 024`, not 72).
fn default_seal_rows(row_bytes: usize) -> usize {
    let by_bytes = DEFAULT_SEAL_BYTES / row_bytes.max(1) / TILE_ROWS * TILE_ROWS;
    by_bytes.clamp(TILE_ROWS, DEFAULT_SEAL_ROWS)
}

/// A segment is rewritten live-only once this fraction of its rows is
/// tombstoned (the denominator of `rows / 4`).
const MAINTAIN_TOMBSTONE_DIVISOR: usize = 4;

/// Global-id map for a segment's rows.
#[derive(Debug, Clone)]
enum Ids {
    /// Rows `0..rows` are ids `base..base + rows` (the head, and every
    /// segment as it seals).
    Dense(RecordId),
    /// Row `r` is `ids[r]`; strictly ascending (a rewrite that dropped
    /// tombstoned rows).
    Sparse(Vec<RecordId>),
}

impl Ids {
    fn id_of(&self, row: usize) -> RecordId {
        match self {
            Ids::Dense(base) => base + row,
            Ids::Sparse(ids) => ids[row],
        }
    }

    fn row_of(&self, id: RecordId, rows: usize) -> Option<usize> {
        match self {
            Ids::Dense(base) => {
                if id >= *base && id - base < rows {
                    Some(id - base)
                } else {
                    None
                }
            }
            Ids::Sparse(ids) => ids.binary_search(&id).ok(),
        }
    }

    /// One past the highest id held (0 for an impossible empty segment).
    fn end_id(&self, rows: usize) -> RecordId {
        match self {
            Ids::Dense(base) => base + rows,
            Ids::Sparse(ids) => ids.last().map_or(0, |last| last + 1),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Ids::Dense(_) => 0,
            Ids::Sparse(ids) => ids.capacity() * std::mem::size_of::<RecordId>(),
        }
    }
}

/// One arena of the index plus the ids of its rows: the open head
/// while the writer appends to it, a sealed segment afterwards — the
/// same allocation throughout.
///
/// Rows only ever arrive at the end (and only in the head); a row that
/// is there never changes. Revocations flip the arena's atomic
/// tombstone bits, which concurrent scans read through the published
/// `Arc<Segment>`.
#[derive(Debug, Clone)]
pub struct Segment {
    arena: SketchArena,
    ids: Ids,
}

impl Segment {
    /// Row count (live and dead).
    pub fn rows(&self) -> usize {
        self.arena.rows()
    }

    /// Live rows.
    pub fn live(&self) -> usize {
        self.arena.len()
    }

    /// The rows a rewrite or a compaction carries over, ascending.
    fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows()).filter(|&row| self.arena.is_live(row))
    }

    /// Has the tombstone share reached the rewrite threshold?
    fn is_sparse(&self) -> bool {
        let revoked = self.rows() - self.live();
        revoked > 0 && revoked * MAINTAIN_TOMBSTONE_DIVISOR >= self.rows()
    }

    /// Bytes the rows held occupy (see [`SketchArena::used_bytes`]):
    /// all of a sealed segment, the written part of the head.
    fn heap_bytes(&self) -> usize {
        self.arena.used_bytes() + self.ids.heap_bytes() + std::mem::size_of::<Segment>()
    }
}

/// One immutable published view: the segment list and the head. It
/// holds no row data of its own — rows appended to the head after the
/// snapshot was published are visible through it.
#[derive(Debug)]
struct Snapshot {
    segments: Vec<Arc<Segment>>,
    head: Arc<Segment>,
    generation: u64,
}

impl Snapshot {
    fn view(&self) -> View<'_> {
        View {
            segments: &self.segments,
            head: &self.head,
        }
    }
}

/// Borrowed scan view shared by the writer-side trait methods (over
/// live writer state) and the detached reader (over a snapshot).
struct View<'a> {
    segments: &'a [Arc<Segment>],
    head: &'a Segment,
}

impl View<'_> {
    /// The one tier walk behind every lookup: for each probe, its
    /// `budget` lowest live matching ids, ascending, optionally only
    /// among `subset`. Tiers hold ascending, disjoint id ranges, so
    /// each tier serves the probes still short of their budget with
    /// **one** arena sweep — however many probes there are and whether
    /// or not the tier has tombstones, whose words the sweep reads in
    /// place — and appending tier after tier keeps every list ascending.
    fn sweep(
        &self,
        probes: &[&[i64]],
        subset: Option<&[RecordId]>,
        budget: usize,
    ) -> Vec<Vec<RecordId>> {
        let mut out = vec![Vec::new(); probes.len()];
        let mut open: Vec<usize> = (0..probes.len()).collect();
        let tiers = self.segments.iter().map(Arc::as_ref).chain([self.head]);
        for seg in tiers {
            // Every open probe still lacks at least `budget - found`.
            let Some(found) = open.iter().map(|&p| out[p].len()).min() else {
                break;
            };
            let rows = seg.rows();
            let mask = subset.map(|ids| {
                RowMask::from_rows(ids.iter().filter_map(|&id| seg.ids.row_of(id, rows)))
            });
            if mask.as_ref().is_some_and(RowMask::is_empty) {
                continue;
            }
            let refs: Vec<&[i64]> = open.iter().map(|&p| probes[p]).collect();
            for (k, row) in seg.arena.sweep(&refs, mask.as_ref(), budget - found) {
                let hits = &mut out[open[k]];
                if hits.len() < budget {
                    hits.push(seg.ids.id_of(row));
                }
            }
            open.retain(|&p| out[p].len() < budget);
        }
        out
    }

    /// [`View::sweep`] for one probe.
    fn find(&self, probe: &[i64], subset: Option<&[RecordId]>, budget: usize) -> Vec<RecordId> {
        self.sweep(&[probe], subset, budget).swap_remove(0)
    }

    /// [`View::sweep`] for a batch of lowest-id lookups.
    fn find_first_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        let refs: Vec<&[i64]> = probes.iter().map(Vec::as_slice).collect();
        let hits = self.sweep(&refs, None, 1);
        hits.iter().map(|h| h.first().copied()).collect()
    }
}

/// A detached identification reader over some epoch-published index.
///
/// Implementors are cheap-to-clone handles that can be scanned from
/// any thread while the owning index keeps mutating; every call
/// observes every write completed before the call.
pub trait IndexReader: Send + Sync + 'static {
    /// The structural generation of the snapshot the last/next scan
    /// observes (see [`SketchIndex::generation`]); callers compare it
    /// against the writer's to detect an id renumbering race.
    fn generation(&self) -> u64;

    /// Lowest live matching id (earliest-enrolled-wins).
    fn find_first(&self, probe: &[i64]) -> Option<RecordId>;

    /// [`IndexReader::find_first`] for every probe with shared sweeps.
    fn find_first_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>>;

    /// Up to `budget` lowest live matching ids, ascending.
    fn find_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId>;

    /// Bounded match restricted to `subset` (unknown/dead ids skipped).
    fn find_in_subset(&self, probe: &[i64], subset: &[RecordId], budget: usize) -> Vec<RecordId>;
}

/// A [`SketchIndex`] that can hand out detached [`IndexReader`]s.
pub trait EpochRead: SketchIndex {
    /// The reader handle type.
    type Reader: IndexReader;

    /// A detached reader over this index's published snapshots. The
    /// handle stays valid (and keeps observing new publishes) for the
    /// life of the index's shared state, even across `&mut` writes.
    fn reader(&self) -> Self::Reader;
}

/// The shared slot a snapshot is published through: the write lock is
/// held only to replace the `Arc`, a read lock only to clone it, so
/// neither section can panic.
type Published = Arc<RwLock<Arc<Snapshot>>>;

/// The current snapshot of `cell`: one read-lock section, one `Arc`
/// clone.
fn load(cell: &Published) -> Arc<Snapshot> {
    Arc::clone(&cell.read().expect("a snapshot section cannot panic"))
}

/// The reader over an [`EpochIndex`] (see [`EpochRead`]).
///
/// Every scan clones the current snapshot's `Arc` under the shared
/// read lock, releases it, then sweeps the snapshot unsynchronized; a
/// scan holds no lock while it sweeps and never waits for an insert or
/// a revoke, only — for that one clone — for a publish in progress.
#[derive(Clone)]
pub struct EpochReader {
    cell: Published,
}

impl fmt::Debug for EpochReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = load(&self.cell);
        f.debug_struct("EpochReader")
            .field("segments", &snap.segments.len())
            .field("head_rows", &snap.head.rows())
            .field("generation", &snap.generation)
            .finish()
    }
}

impl IndexReader for EpochReader {
    fn generation(&self) -> u64 {
        load(&self.cell).generation
    }

    fn find_first(&self, probe: &[i64]) -> Option<RecordId> {
        load(&self.cell)
            .view()
            .find(probe, None, 1)
            .first()
            .copied()
    }

    fn find_first_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        load(&self.cell).view().find_first_batch(probes)
    }

    fn find_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId> {
        load(&self.cell).view().find(probe, None, budget)
    }

    fn find_in_subset(&self, probe: &[i64], subset: &[RecordId], budget: usize) -> Vec<RecordId> {
        load(&self.cell).view().find(probe, Some(subset), budget)
    }
}

/// The epoch-published segmented index (module docs: [`crate::index::epoch`]).
pub struct EpochIndex {
    t: u64,
    ka: u64,
    filter: FilterConfig,
    /// Rows the head is reserved for and seals at; `None` takes
    /// [`default_seal_rows`] of the stamped dimension.
    seal_rows: Option<usize>,
    /// Sealed segments, ascending disjoint id ranges.
    segments: Vec<Arc<Segment>>,
    /// The open segment, shared with the published snapshot: this index
    /// is its only writer, under its own `&mut self`.
    head: Arc<Segment>,
    /// Stamped by the first insert (or `reserve`); enforced here, not
    /// only by the arenas, because it is what sizes each fresh head.
    dim: Option<usize>,
    generation: u64,
    cell: Published,
    /// How many snapshots [`EpochIndex::publish`] has swapped in.
    publishes: u64,
}

impl fmt::Debug for EpochIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochIndex")
            .field("t", &self.t)
            .field("ka", &self.ka)
            .field("segments", &self.segments.len())
            .field("staging_rows", &self.head.rows())
            .field("staging_base", &self.head_base())
            .field("generation", &self.generation)
            .field("publishes", &self.publishes())
            .field("live", &self.len())
            .finish()
    }
}

impl EpochIndex {
    /// An epoch index over a ring of circumference `ka` with threshold
    /// `t` and the default prefilter.
    pub fn new(t: u64, ka: u64) -> EpochIndex {
        EpochIndex::with_filter(t, ka, FilterConfig::default())
    }

    /// Like [`EpochIndex::new`] with an explicit prefilter
    /// configuration (applied to the head and every future segment).
    /// The head seals at 65 536 rows or 8 MiB of rows, whichever is
    /// fewer rows for the stamped dimension.
    pub fn with_filter(t: u64, ka: u64, filter: FilterConfig) -> EpochIndex {
        EpochIndex::with_seal(t, ka, filter, None)
    }

    /// Like [`EpochIndex::with_filter`], sealing the head at exactly
    /// `seal_rows` rows. Tests drive tiny thresholds so a small
    /// population crosses many seals; production uses the default.
    ///
    /// # Panics
    /// Panics if `seal_rows` is zero.
    pub fn with_seal_rows(t: u64, ka: u64, filter: FilterConfig, seal_rows: usize) -> EpochIndex {
        assert!(seal_rows > 0, "the seal threshold must be positive");
        EpochIndex::with_seal(t, ka, filter, Some(seal_rows))
    }

    fn with_seal(t: u64, ka: u64, filter: FilterConfig, seal_rows: Option<usize>) -> EpochIndex {
        // Unstamped, so nothing is reserved yet: the first insert or
        // `reserve` swaps in a head sized for the dimension it brings.
        let head = Arc::new(Segment {
            arena: SketchArena::with_filter(t, ka, filter),
            ids: Ids::Dense(0),
        });
        let cell = Arc::new(RwLock::new(Arc::new(Snapshot {
            segments: Vec::new(),
            head: Arc::clone(&head),
            generation: 0,
        })));
        EpochIndex {
            t,
            ka,
            filter,
            seal_rows,
            segments: Vec::new(),
            head,
            dim: None,
            generation: 0,
            cell,
            publishes: 0,
        }
    }

    /// How many snapshots have been published: the swap gauge, which
    /// shows that a head write did not swap.
    pub(crate) fn publishes(&self) -> u64 {
        self.publishes
    }

    /// The sealed segments (diagnostics, benches).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Rows currently in the open head.
    pub fn staging_rows(&self) -> usize {
        self.head.rows()
    }

    /// The id of the head's row 0.
    fn head_base(&self) -> RecordId {
        self.head.ids.id_of(0)
    }

    /// Every tier in id order: the sealed segments, then the head.
    fn tiers(&self) -> impl Iterator<Item = &Segment> {
        let head = std::iter::once(self.head.as_ref());
        self.segments.iter().map(Arc::as_ref).chain(head)
    }

    fn view(&self) -> View<'_> {
        View {
            segments: &self.segments,
            head: &self.head,
        }
    }

    /// Publishes the segment list and the head as a fresh snapshot —
    /// needed only when one of the two was *replaced*; rows appended to
    /// the head and tombstones flipped anywhere are visible through the
    /// snapshot already out. The superseded snapshot is freed here, or
    /// by whichever sweep drops the last `Arc` to it.
    fn publish(&mut self) {
        let snapshot = Arc::new(Snapshot {
            segments: self.segments.clone(),
            head: Arc::clone(&self.head),
            generation: self.generation,
        });
        let old = std::mem::replace(
            &mut *self.cell.write().expect("a snapshot section cannot panic"),
            snapshot,
        );
        self.publishes += 1;
        // It may hold the last `Arc` of a rewritten segment: freed with
        // the write lock already released.
        drop(old);
    }

    /// Starts an empty head for ids `base..`, reserved in full once the
    /// dimension is known (no publish).
    fn start_head(&mut self, base: RecordId) {
        let mut arena = SketchArena::with_filter(self.t, self.ka, self.filter);
        if let Some(dim) = self.dim {
            let row_bytes = CellWidth::row_bytes(self.ka, dim);
            let rows = self
                .seal_rows
                .unwrap_or_else(|| default_seal_rows(row_bytes));
            arena.reserve(rows, dim);
        }
        let ids = Ids::Dense(base);
        self.head = Arc::new(Segment { arena, ids });
    }

    /// Stamps the dimension on first use and checks it afterwards.
    /// `true` when this call stamped it — the head was replaced by a
    /// reserved one, which the caller must publish.
    fn stamp(&mut self, dim: usize) -> bool {
        let fresh = self.dim.is_none();
        let stamped = *self.dim.get_or_insert(dim);
        assert_eq!(
            dim, stamped,
            "sketch dimension {dim} does not match the index's stamped dimension {stamped}"
        );
        if fresh {
            self.start_head(self.head_base());
        }
        fresh
    }

    /// Appends one row to the head, sealing it when that fills it.
    /// Returns the row's id and whether the segment list or the head
    /// was replaced; publishing is the caller's, so `compact` can
    /// rebuild unseen.
    fn append(&mut self, row: Row<'_>, dim: usize) -> (RecordId, bool) {
        let stamped = self.stamp(dim);
        let id = self.head_base() + self.head.arena.append(row);
        let full = self.head.arena.is_full();
        if full {
            // The full head joins the list as it is — same allocation,
            // same `Arc` — unless it filled a quarter dead already; a
            // fresh one takes the ids after it.
            self.segments.push(Arc::clone(&self.head));
            self.rewrite_if_sparse(self.segments.len() - 1);
            self.start_head(id + 1);
        }
        (id, stamped || full)
    }

    /// The tombstone rule, one segment at a time: rewrites segment `i`
    /// live-only (or drops it, all dead) once a quarter of its rows are
    /// tombstoned, so revocation-heavy workloads do not sweep dead rows
    /// forever. `true` when the list changed; publishing is the
    /// caller's.
    fn rewrite_if_sparse(&mut self, i: usize) -> bool {
        if !self.segments[i].is_sparse() {
            return false;
        }
        let old = Arc::clone(&self.segments[i]);
        let live = old.live();
        if live == 0 {
            self.segments.remove(i);
            return true;
        }
        let dim = self.dim.expect("a row exists, so the dimension is stamped");
        let mut arena = SketchArena::with_filter(self.t, self.ka, self.filter);
        arena.reserve(live, dim);
        let mut ids = Vec::with_capacity(live);
        for row in old.live_rows() {
            arena.append(Row::Stored(&old.arena, row));
            ids.push(old.ids.id_of(row));
        }
        let ids = Ids::Sparse(ids);
        self.segments[i] = Arc::new(Segment { arena, ids });
        true
    }

    /// Applies the tombstone rule to every sealed segment and returns
    /// how many it rewrote. `remove` and the seal already apply it to
    /// the segment they touch, so on an index driven through its own
    /// methods this finds nothing to do, cheaply; it stays for callers
    /// written to invoke it after revocation bursts.
    pub fn maintain(&mut self) -> usize {
        let mut rewritten = 0;
        let mut i = 0;
        while i < self.segments.len() {
            let had = self.segments.len();
            rewritten += usize::from(self.rewrite_if_sparse(i));
            // An all-dead segment leaves the list: `i` names the next.
            i += usize::from(self.segments.len() == had);
        }
        if rewritten > 0 {
            self.publish();
        }
        rewritten
    }

    /// The tier holding `id` — its position in the segment list, or one
    /// past the list for the head — and the row `id` has there.
    fn locate(&self, id: RecordId) -> Option<(usize, &Segment, usize)> {
        let i = self
            .segments
            .partition_point(|s| s.ids.end_id(s.rows()) <= id);
        let seg = self.segments.get(i).map_or(&*self.head, Arc::as_ref);
        seg.ids.row_of(id, seg.rows()).map(|row| (i, seg, row))
    }
}

impl SketchIndex for EpochIndex {
    fn insert(&mut self, sketch: &[i64]) -> RecordId {
        let (id, replaced) = self.append(Row::Sketch(sketch), sketch.len());
        if replaced {
            self.publish();
        }
        id
    }

    fn lookup(&self, probe: &[i64]) -> Option<RecordId> {
        self.view().find(probe, None, 1).first().copied()
    }

    fn lookup_all(&self, probe: &[i64]) -> Vec<RecordId> {
        self.view().find(probe, None, usize::MAX)
    }

    fn lookup_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId> {
        self.view().find(probe, None, budget)
    }

    fn lookup_in_subset(&self, probe: &[i64], subset: &[RecordId], budget: usize) -> Vec<RecordId> {
        self.view().find(probe, Some(subset), budget)
    }

    fn lookup_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        self.view().find_first_batch(probes)
    }

    // Head or sealed, the atomic tombstone flip is visible through the
    // already-published `Arc<Segment>` — no republish needed, unless
    // the flip is the one that makes a sealed segment worth rewriting.
    fn remove(&mut self, id: RecordId) -> bool {
        let Some((i, seg, row)) = self.locate(id) else {
            return false;
        };
        if !seg.arena.revoke(row) {
            return false;
        }
        if i < self.segments.len() && self.rewrite_if_sparse(i) {
            self.publish();
        }
        true
    }

    fn len(&self) -> usize {
        self.tiers().map(Segment::live).sum()
    }

    fn slots(&self) -> usize {
        self.tiers().map(Segment::rows).sum()
    }

    fn dim(&self) -> Option<usize> {
        self.dim
    }

    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool {
        out.clear();
        self.locate(id)
            .is_some_and(|(_, seg, row)| seg.arena.copy_row_into(row, out))
    }

    // Rewrites drop dead rows, so live ids can exceed `slots()`: walk
    // the tiers, not an id range.
    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        for seg in self.tiers() {
            seg.arena
                .for_each_live(|row, sketch| f(seg.ids.id_of(row), sketch));
        }
    }

    // The head is reserved whole when the dimension is stamped and
    // segments are sized when they are built, so a hint only stamps.
    fn reserve(&mut self, _additional: usize, dim: usize) {
        if self.stamp(dim) {
            self.publish();
        }
    }

    // The open head is charged for the rows it holds — their cells,
    // complete plane groups and tombstone words — not for the untouched
    // reservation behind them, which is address space, not memory: the
    // figure tracks what the process has resident. Writer and snapshot
    // share every segment, head included, so each is counted once; the
    // snapshot adds its own list.
    fn heap_bytes(&self) -> usize {
        let list = |segments: &Vec<Arc<Segment>>| {
            segments.capacity() * std::mem::size_of::<Arc<Segment>>()
        };
        let snapshot = list(&load(&self.cell).segments) + std::mem::size_of::<Snapshot>();
        list(&self.segments) + snapshot + self.tiers().map(Segment::heap_bytes).sum::<usize>()
    }

    fn clear(&mut self) {
        self.segments.clear();
        self.start_head(0);
        self.generation += 1;
        self.publish();
    }

    // Rebuilt tier by tier, copying cells: the old tiers stay published
    // (and untouched) until the one publish at the end swaps in the
    // renumbered list together with the new generation.
    fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        let mut mapping = Vec::with_capacity(self.len());
        let old_head = Arc::clone(&self.head);
        let old: Vec<Arc<Segment>> = self.segments.drain(..).chain([old_head]).collect();
        self.start_head(0);
        for seg in &old {
            for row in seg.live_rows() {
                let dim = self.dim.expect("a row exists, so the dimension is stamped");
                let (new_id, _) = self.append(Row::Stored(&seg.arena, row), dim);
                mapping.push((seg.ids.id_of(row), new_id));
            }
        }
        self.generation += 1;
        self.publish();
        mapping
    }

    fn generation(&self) -> u64 {
        self.generation
    }
}

impl EpochRead for EpochIndex {
    type Reader = EpochReader;

    fn reader(&self) -> EpochReader {
        EpochReader {
            cell: Arc::clone(&self.cell),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn sealing_at(t: u64, ka: u64, seal_rows: usize) -> EpochIndex {
        EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), seal_rows)
    }

    fn tiny(t: u64, ka: u64) -> EpochIndex {
        // A threshold small enough that a 50-record test population
        // seals a dozen heads. (The shared trait-contract suites in
        // `index::tests` also run over `EpochIndex`.)
        sealing_at(t, ka, 4)
    }

    #[test]
    #[should_panic(expected = "stamped dimension")]
    fn mixed_dimension_insert_panics_across_seal() {
        let mut index = sealing_at(10, 64, 1);
        index.insert(&[1, 2, 3]);
        // The first insert sealed at once (threshold 1), so the head is
        // a fresh one — the index-level stamp must still reject a
        // different dimension.
        index.insert(&[1, 2]);
    }

    /// The head is handed over, not copied, and counted: inserting
    /// `3·64 + 5` rows swaps the snapshot four times — the stamp and
    /// three seals — and each listed segment *is* the head that was
    /// filling when its rows arrived.
    #[test]
    fn a_full_head_joins_the_list_without_a_copy() {
        let mut index = sealing_at(10, 4096, 64);
        let mut heads = Vec::new();
        for i in 0..3 * 64 + 5 {
            assert_eq!(index.insert(&[40 * (i % 100) as i64, i as i64]), i);
            if i % 64 == 0 {
                heads.push(Arc::clone(&index.head));
            }
        }
        assert_eq!(index.publishes(), 4, "the stamp and three seals");
        assert_eq!((index.segments().len(), index.staging_rows()), (3, 5));
        for (head, segment) in heads.iter().zip(index.segments()) {
            assert!(Arc::ptr_eq(head, segment), "a sealed segment is its head");
            assert_eq!((segment.rows(), segment.live()), (64, 64));
        }
        assert!(Arc::ptr_eq(&heads[3], &index.head));
        assert_eq!((index.len(), index.slots()), (3 * 64 + 5, 3 * 64 + 5));
    }

    #[test]
    fn sealed_rows_revoke_via_tombstones() {
        // Ring 4096 with spacing 100 ≫ t keeps every record distinct
        // under the cyclic-distance-≤-t predicate.
        let mut index = sealing_at(10, 4096, 8);
        for i in 0..20 {
            index.insert(&[100 * i, 100 * i]);
        }
        let reader = index.reader();
        // Row 3 sealed long ago; revoke it (one row in eight: no
        // rewrite) and check both paths agree.
        assert!(index.remove(3));
        assert!(!index.remove(3), "double revoke reports false");
        assert_eq!(index.lookup(&[300, 300]), None);
        assert_eq!(reader.find_first(&[300, 300]), None);
        assert_eq!(index.len(), 19);
        let mut out = Vec::new();
        assert!(!index.copy_row_into(3, &mut out));
        assert!(index.copy_row_into(4, &mut out));
        assert_eq!(out, vec![400, 400]);
        assert_eq!((index.slots(), index.segments()[0].rows()), (20, 8));
    }

    /// The tombstone rule runs itself: the `remove` that brings a
    /// sealed segment to a quarter dead rewrites it live-only, a head
    /// that fills already that dead is rewritten as it seals, ids
    /// survive both, and `maintain` finds nothing left to do.
    #[test]
    fn the_tombstone_rule_is_self_triggering() {
        let mut index = sealing_at(10, 4096, 8);
        let reader = index.reader();
        for i in 0..8 {
            index.insert(&[100 * i, 100 * i]);
        }
        assert!(index.remove(1));
        assert_eq!(index.segments()[0].rows(), 8, "one dead row in eight stays");
        let stores = index.publishes();
        assert!(index.remove(6));
        assert_eq!(index.publishes(), stores + 1, "the rewrite publishes");
        assert_eq!((index.segments()[0].rows(), index.slots()), (6, 6));
        // A head that is half dead when its eighth row lands.
        for i in 8..16 {
            let id = index.insert(&[100 * i, 100 * i]);
            if i < 12 {
                assert!(index.remove(id));
            }
        }
        assert_eq!((index.segments().len(), index.segments()[1].rows()), (2, 4));
        assert_eq!(
            (index.len(), index.slots(), index.staging_rows()),
            (10, 10, 0)
        );
        for i in 0..16usize {
            let p = [100 * i as i64, 100 * i as i64];
            let expect = (![1, 6, 8, 9, 10, 11].contains(&i)).then_some(i);
            assert_eq!(index.lookup(&p), expect, "id {i} across rewrites");
            assert_eq!(reader.find_first(&p), expect);
        }
        assert!(!index.remove(6), "a row a rewrite dropped stays revoked");
        // Going one by one, rows 12..16 shrink their segment to nothing
        // and it leaves the list.
        assert!((12..16).all(|id| index.remove(id)));
        assert_eq!((index.segments().len(), index.len()), (1, 6));
        assert_eq!(index.maintain(), 0, "every segment already obeys the rule");
    }

    #[test]
    fn reader_observes_every_publish() {
        let mut index = tiny(10, 64);
        let reader = index.reader();
        assert_eq!(reader.find_first(&[5, 5]), None);
        let id = index.insert(&[5, 5]);
        assert_eq!(reader.find_first(&[5, 5]), Some(id));
        index.remove(id);
        assert_eq!(reader.find_first(&[5, 5]), None);
    }

    #[test]
    fn reader_matches_writer_across_churn() {
        let mut index = tiny(25, 200);
        let reader = index.reader();
        let mut ids = Vec::new();
        for i in 0..60i64 {
            ids.push(index.insert(&[100 * (i % 7), 100 * ((i * 3) % 7), i]));
            if i % 3 == 0 {
                index.remove(ids[(i as usize) / 2]);
            }
            let probe = [100 * (i % 7), 100 * ((i * 3) % 7), i];
            assert_eq!(reader.find_first(&probe), index.lookup(&probe));
            assert_eq!(
                reader.find_at_most(&probe, 4),
                index.lookup_at_most(&probe, 4)
            );
        }
        let subset: Vec<RecordId> = ids.iter().step_by(3).copied().collect();
        let probe = [0, 0, 0];
        assert_eq!(
            reader.find_in_subset(&probe, &subset, 8),
            index.lookup_in_subset(&probe, &subset, 8)
        );
        let probes: Vec<Vec<i64>> = (0..7)
            .map(|i| vec![100 * (i % 7), 100 * ((i * 3) % 7), i])
            .collect();
        assert_eq!(
            reader.find_first_batch(&probes),
            index.lookup_batch(&probes)
        );
    }

    #[test]
    fn concurrent_readers_never_block_and_see_published_rows() {
        let mut index = sealing_at(10, 64, 8);
        let reader = index.reader();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let reader = reader.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut seen = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        // Any published row either matches its own
                        // probe or was revoked; a match must be exact.
                        if let Some(id) = reader.find_first(&[7, 7]) {
                            assert_eq!(id % 2, 1, "only odd ids carry [7,7]");
                            seen += 1;
                        }
                        std::hint::spin_loop();
                    }
                    seen
                });
            }
            for i in 0..400usize {
                let v = if i % 2 == 1 { [7i64, 7] } else { [1000, 1000] };
                let id = index.insert(&v);
                if i % 5 == 0 && i % 2 == 1 {
                    index.remove(id);
                }
            }
            index.maintain();
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(index.lookup(&[7, 7]).map(|id| id % 2), Some(1));
    }

    /// The publication rule, counted: rows appended to the head and
    /// tombstones flipped in it reach readers through the snapshot
    /// already out — zero swaps — and a seal swaps exactly once.
    #[test]
    fn only_a_changed_segment_list_swaps_the_snapshot() {
        let cap = 100; // not a multiple of 64: the seal lands mid-group
        let mut index = sealing_at(10, 4096, cap);
        let reader = index.reader();
        index.reserve(0, 2); // stamps the dimension: the one reservation
        let (stores, snapshot) = (index.publishes(), load(&index.cell));
        for i in 0..cap - 1 {
            assert_eq!(index.insert(&[40 * i as i64, 7]), i);
            assert_eq!(reader.find_first(&[40 * i as i64, 7]), Some(i));
        }
        // One row in five: short of the quarter that would have the
        // seal rewrite the head instead of listing it.
        for i in (0..cap - 1).step_by(5) {
            assert!(index.remove(i));
            assert_eq!(reader.find_first(&[40 * i as i64, 7]), None);
        }
        assert_eq!(index.publishes(), stores, "head writes must not swap");
        assert!(Arc::ptr_eq(&snapshot, &load(&index.cell)));
        assert_eq!(format!("{reader:?}"), format!("{:?}", index.reader()));
        assert!(format!("{reader:?}").contains("head_rows: 99"));

        index.insert(&[3960, 7]); // row `cap`: the seal
        assert_eq!(index.publishes(), stores + 1, "a seal swaps once");
        assert_eq!((index.segments().len(), index.staging_rows()), (1, 0));
        assert_eq!(reader.find_first(&[3960, 7]), Some(cap - 1));
        // The sealed segment is the old head itself, not a copy of it.
        assert!(Arc::ptr_eq(&snapshot.head, &index.segments()[0]));
    }

    /// Reclamation is the refcount: a sweep in flight keeps the
    /// snapshot it cloned alive across a seal — nothing else does — and
    /// dropping that clone frees it.
    #[test]
    fn a_superseded_snapshot_is_freed_by_its_last_holder() {
        let mut index = sealing_at(10, 4096, 4);
        index.insert(&[0, 0]);
        let in_flight = load(&index.cell);
        let weak = Arc::downgrade(&in_flight);
        for i in 1..4 {
            index.insert(&[100 * i, 0]); // the fourth row seals
        }
        assert_eq!(index.segments().len(), 1);
        assert!(
            !Arc::ptr_eq(&in_flight, &load(&index.cell)),
            "the seal swapped"
        );
        assert_eq!(Arc::strong_count(&in_flight), 1, "only the sweep holds it");
        drop(in_flight);
        assert!(weak.upgrade().is_none(), "its last holder freed it");
    }

    #[test]
    fn reserve_is_only_a_size_hint() {
        let mut index = tiny(10, 64);
        index.reserve(1 << 20, 2);
        let reader = index.reader();
        let id = index.insert(&[9, 9]);
        assert_eq!(reader.find_first(&[9, 9]), Some(id));
        assert_eq!(index.lookup(&[9, 9]), Some(id));
        assert!(index.heap_bytes() < 4096, "nothing is charged for the hint");
    }

    #[test]
    fn heap_bytes_counts_segments_and_garbage() {
        let mut index = tiny(10, 64);
        let base = index.heap_bytes();
        for i in 0..40i64 {
            index.insert(&[i, i]);
        }
        let grown = index.heap_bytes();
        assert!(grown > base, "segments and snapshot must be accounted");
        let seg_bytes: usize = index.segments().iter().map(|s| s.heap_bytes()).sum();
        assert!(grown >= seg_bytes, "total covers per-segment metadata");
    }

    #[test]
    fn clear_resets_and_bumps_generation() {
        let mut index = tiny(10, 64);
        for i in 0..20i64 {
            index.insert(&[i, i]);
        }
        let reader = index.reader();
        let gen_before = index.generation();
        index.clear();
        assert_eq!(index.len(), 0);
        assert_eq!(index.slots(), 0);
        assert!(index.generation() > gen_before);
        assert_eq!(reader.generation(), index.generation());
        assert_eq!(reader.find_first(&[0, 0]), None);
        assert_eq!(index.insert(&[5, 5]), 0, "ids restart after clear");
    }
}
