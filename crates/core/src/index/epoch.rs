//! Epoch-published storage engine: one append-only **head** segment
//! that is filled in place until it seals, plus the immutable **sealed
//! segments** it became, read without waiting for writers.
//!
//! # Shape
//!
//! ```text
//!   EpochIndex (the writer)        published cell (RwLock<Arc>)
//!   ┌──────────────────────┐       ┌──────────────────────┐
//!   │ current ─────────────┼──┐ ┌──┼── Arc               │
//!   └──────────────────────┘  │ │  └──────────────────────┘
//!                             ▼ ▼
//!               Snapshot ┌────────────────────────────┐
//!                        │ segments: Vec<Arc<Segment>>│ [sealed][sealed]
//!                        │ head: Arc<Segment>         │ [open head ──▶]
//!                        │ generation                 │
//!                        └────────────────────────────┘
//! ```
//!
//! The writer's state *is* the snapshot it last published: one
//! `Arc<Snapshot>`, held by the index and by the cell readers load.
//! Writers (`insert`/`remove`/`compact`, all `&mut self`) and readers
//! share every segment — the head included — through it. The head
//! is reserved once, for `seal_rows` rows, and never moves: an insert
//! writes its row past the published row count and then release-stores
//! the count, a scan acquire-loads the count once and reads nothing at
//! or past it (DESIGN.md "Publication invariant"), so showing a row to
//! readers costs one atomic store and no copy — and no later copy
//! either: a row is written once and stays where it was written. Only
//! a change to the segment *list* or the head (the dimension stamp, the
//! head sealing, `compact`) publishes a fresh immutable `Snapshot`, by
//! replacing the `Arc` behind one shared `std::sync::RwLock` — once per
//! `seal_rows` inserts, not once per insert — and the code that makes
//! the change publishes it. Readers obtained via
//! [`EpochRead::reader`] take the read lock only to clone that `Arc`,
//! release it, and sweep segments + head against the clone
//! unsynchronized; a snapshot stays valid for the whole sweep because
//! the reader holds an `Arc`, and a superseded snapshot is freed when
//! its last `Arc` drops — the whole reclamation rule.
//!
//! # Tiers and lifecycle
//!
//! * **head** — the open segment. Its columns are *reserved* at
//!   `seal_rows` rows when the dimension is stamped — uninitialised
//!   memory nothing touches, so pages the process does not pay for
//!   until rows land in them — and inserts append there. The insert that fills it **seals** it: the same
//!   `Arc`, the same allocation, joins the segment list, and a fresh
//!   head starts.
//! * **sealed** — every listed segment: a full head, as it was, so
//!   exactly the seal threshold's rows. Its rows never change and
//!   nothing copies them but [`SketchIndex::compact`].
//!
//! Revoking a row — in the head or in a sealed segment alike — flips a
//! bit in its segment's *tombstone words*: `AtomicU64`s read by
//! in-flight scans through the already-published `Arc<Segment>`. That
//! is all it does: no copy, no republish, and it never blocks a reader.
//! A dead row costs a sweep its liveness bit, and a block with no live
//! candidate no phase-1 pass at all. Compaction — a server's
//! `checkpoint` — is the one way dead rows leave the index, at the same
//! moment as the record table's blocks and slots: it appends the live
//! rows to a fresh index and publishes that index's tiers once.
//!
//! # Id assignment
//!
//! Ids are assigned densely in insertion order and never renumbered
//! outside [`SketchIndex::compact`]. A tier's rows are the ids from its
//! base on — segment `i`'s base is `i` times the seal threshold, the
//! head's the one after the last sealed row — so an id maps to its row
//! by a subtraction. Scanning segments in list order and the head last
//! yields globally ascending matches, and first-hit-wins reproduces
//! earliest-enrolled-wins exactly.

use std::fmt;
use std::sync::{Arc, RwLock};

use super::store::{CellWidth, FilterConfig, Row, RowMask, SketchArena, TILE_ROWS};
use super::{RecordId, SketchIndex};

/// Rows at which the head seals, unless 8 MiB of rows is fewer (see
/// [`default_seal_rows`]): large enough that the per-segment sweep
/// set-up and the snapshot swap amortise to nothing, small enough that
/// a head barely filled reserves 4.5 MiB of address space at the
/// paper's shape.
const DEFAULT_SEAL_ROWS: usize = 65_536;

/// Row bytes the default head reserves at most, whatever the
/// dimension — each row once, its row column and the plane bits that
/// hold its cells together; [`DEFAULT_SEAL_ROWS`] of the paper's
/// 72-byte rows (56 B of row column, 16 of plane) are 4.5 MiB
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

/// One arena of the index and the id of its first row: the open head
/// while the writer appends to it, a sealed segment afterwards — the
/// same allocation throughout.
///
/// Rows only ever arrive at the end (and only in the head); a row that
/// is there never changes. Revocations flip the arena's atomic
/// tombstone bits, which concurrent scans read through the published
/// `Arc<Segment>`.
#[derive(Debug)]
pub struct Segment {
    arena: SketchArena,
    /// Rows `0..rows` are ids `base..base + rows`.
    base: RecordId,
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

    /// The row `id` has here, if it is one of this segment's.
    fn row_of(&self, id: RecordId) -> Option<usize> {
        id.checked_sub(self.base).filter(|&row| row < self.rows())
    }

    /// Bytes the rows held occupy (see [`SketchArena::used_bytes`]):
    /// all of a sealed segment, the written part of the head.
    fn heap_bytes(&self) -> usize {
        self.arena.used_bytes() + std::mem::size_of::<Segment>()
    }
}

/// One immutable published view: the segment list and the head — the
/// writer's state and every reader's. It holds no row data of its own:
/// rows appended to the head after the snapshot was published are
/// visible through it.
#[derive(Debug)]
struct Snapshot {
    /// Sealed segments, ascending disjoint id ranges, each exactly the
    /// seal threshold's rows.
    segments: Vec<Arc<Segment>>,
    /// The open segment: the index is its only writer, under its own
    /// `&mut self`. Its arena carries the ring, the prefilter and —
    /// once stamped — the dimension of every segment.
    head: Arc<Segment>,
    generation: u64,
}

impl Snapshot {
    /// Every tier in id order: the sealed segments, then the head.
    fn tiers(&self) -> impl Iterator<Item = &Segment> {
        let head = std::iter::once(self.head.as_ref());
        self.segments.iter().map(Arc::as_ref).chain(head)
    }

    /// The one tier walk behind every lookup: for each probe, its
    /// `budget` lowest live matching ids, ascending, optionally only
    /// among `subset`. Tiers hold ascending, disjoint id ranges, so
    /// each tier serves the probes still short of their budget with
    /// **one** arena sweep — however many probes there are and however
    /// many of the tier's rows are dead, whose tombstone words the sweep
    /// reads in place — and appending tier after tier keeps every list
    /// ascending.
    fn sweep(
        &self,
        probes: &[impl AsRef<[i64]>],
        subset: Option<&[RecordId]>,
        budget: usize,
    ) -> Vec<Vec<RecordId>> {
        let mut out = vec![Vec::new(); probes.len()];
        let mut open: Vec<usize> = (0..probes.len()).collect();
        for seg in self.tiers() {
            // Every open probe still lacks at least `budget - found`.
            let Some(found) = open.iter().map(|&p| out[p].len()).min() else {
                break;
            };
            let mask =
                subset.map(|ids| RowMask::from_rows(ids.iter().filter_map(|&id| seg.row_of(id))));
            let refs: Vec<&[i64]> = open.iter().map(|&p| probes[p].as_ref()).collect();
            for (k, row) in seg.arena.sweep(&refs, mask.as_ref(), budget - found) {
                let hits = &mut out[open[k]];
                if hits.len() < budget {
                    hits.push(seg.base + row);
                }
            }
            open.retain(|&p| out[p].len() < budget);
        }
        out
    }
}

/// The first id of each probe's hits: a budget-1 sweep as a batch answer.
fn firsts(hits: Vec<Vec<RecordId>>) -> Vec<Option<RecordId>> {
    hits.into_iter().map(|mut h| h.pop()).collect()
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

    /// [`SketchIndex::find`] on the current snapshot: the `budget`
    /// lowest live matching ids, ascending, among `subset` when given.
    fn find(&self, probe: &[i64], subset: Option<&[RecordId]>, budget: usize) -> Vec<RecordId>;

    /// [`SketchIndex::find_first_batch`] on the current snapshot: one
    /// snapshot load and one sweep per tier for the whole batch.
    fn find_first_batch(&self, probes: &[impl AsRef<[i64]>]) -> Vec<Option<RecordId>>
    where
        Self: Sized;

    /// Lowest live matching id (earliest-enrolled-wins).
    fn find_first(&self, probe: &[i64]) -> Option<RecordId> {
        self.find(probe, None, 1).pop()
    }
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

    fn find(&self, probe: &[i64], subset: Option<&[RecordId]>, budget: usize) -> Vec<RecordId> {
        load(&self.cell)
            .sweep(&[probe], subset, budget)
            .swap_remove(0)
    }

    fn find_first_batch(&self, probes: &[impl AsRef<[i64]>]) -> Vec<Option<RecordId>> {
        firsts(load(&self.cell).sweep(probes, None, 1))
    }
}

/// The epoch-published segmented index (module docs: [`crate::index::epoch`]).
pub struct EpochIndex {
    /// Rows the head is reserved for and seals at; `None` takes
    /// [`default_seal_rows`] of the stamped dimension.
    seal_rows: Option<usize>,
    /// The snapshot last published: the writer reads and appends
    /// through it, readers load it from `cell`.
    current: Arc<Snapshot>,
    cell: Published,
    /// How many snapshots [`EpochIndex::publish`] has swapped in.
    publishes: u64,
}

impl fmt::Debug for EpochIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = &self.current.head;
        f.debug_struct("EpochIndex")
            .field("t", &head.arena.t())
            .field("ka", &head.arena.ka())
            .field("segments", &self.current.segments.len())
            .field("staging_rows", &head.rows())
            .field("staging_base", &head.base)
            .field("generation", &self.current.generation)
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
        EpochIndex::from_head(SketchArena::with_filter(t, ka, filter), None)
    }

    /// Like [`EpochIndex::with_filter`], sealing the head at exactly
    /// `seal_rows` rows. Tests drive tiny thresholds so a small
    /// population crosses many seals; production uses the default.
    ///
    /// # Panics
    /// Panics if `seal_rows` is zero.
    pub fn with_seal_rows(t: u64, ka: u64, filter: FilterConfig, seal_rows: usize) -> EpochIndex {
        assert!(seal_rows > 0, "the seal threshold must be positive");
        EpochIndex::from_head(SketchArena::with_filter(t, ka, filter), Some(seal_rows))
    }

    /// An empty index whose head is `arena`, unstamped, so nothing is
    /// reserved yet: the first insert or `reserve` swaps in a head
    /// sized for the dimension it brings.
    fn from_head(arena: SketchArena, seal_rows: Option<usize>) -> EpochIndex {
        let current = Arc::new(Snapshot {
            segments: Vec::new(),
            head: Arc::new(Segment { arena, base: 0 }),
            generation: 0,
        });
        EpochIndex {
            seal_rows,
            cell: Arc::new(RwLock::new(Arc::clone(&current))),
            current,
            publishes: 0,
        }
    }

    /// How many snapshots have been published: the swap gauge, which
    /// shows that a head write did not swap.
    pub(crate) fn publishes(&self) -> u64 {
        self.publishes
    }

    /// A no-op: every write is published before the call that made it
    /// returns. It stays for callers written against an index that
    /// deferred publication to a flush.
    pub fn flush(&mut self) {}

    /// The sealed segments (diagnostics, benches).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.current.segments
    }

    /// Rows currently in the open head.
    pub fn staging_rows(&self) -> usize {
        self.current.head.rows()
    }

    /// Makes `snapshot` the writer's state and the readers' — the one
    /// swap, made by whichever write replaced the segment list or the
    /// head; rows appended to the head and tombstones flipped anywhere
    /// are visible through the snapshot already out. The superseded
    /// snapshot is freed here, or by whichever sweep drops the last
    /// `Arc` to it.
    fn publish(&mut self, snapshot: Snapshot) {
        self.current = Arc::new(snapshot);
        let old = std::mem::replace(
            &mut *self.cell.write().expect("a snapshot section cannot panic"),
            Arc::clone(&self.current),
        );
        self.publishes += 1;
        // It may hold the last `Arc` of a compacted segment: freed with
        // the write lock already released.
        drop(old);
    }

    /// An empty head for ids `base..`, reserved in full for `dim`
    /// coordinates, over the current head's ring and prefilter.
    fn fresh_head(&self, base: RecordId, dim: usize) -> Arc<Segment> {
        let mut arena = self.current.head.arena.empty_like();
        let rows = self
            .seal_rows
            .unwrap_or_else(|| default_seal_rows(CellWidth::row_bytes(arena.ka(), dim)));
        arena.reserve(rows, dim);
        Arc::new(Segment { arena, base })
    }

    /// Stamps the dimension on first use — publishing a head reserved
    /// for it — and checks it afterwards.
    fn stamp(&mut self, dim: usize) {
        if let Some(stamped) = self.dim() {
            assert_eq!(
                dim, stamped,
                "sketch dimension {dim} does not match the index's stamped dimension {stamped}"
            );
            return;
        }
        let head = self.fresh_head(self.current.head.base, dim);
        self.publish(Snapshot {
            segments: self.current.segments.clone(),
            head,
            generation: self.current.generation,
        });
    }

    /// Appends one row to the head and returns its id; the insert that
    /// fills the head seals it and publishes the longer list.
    fn append(&mut self, row: Row<'_>, dim: usize) -> RecordId {
        self.stamp(dim);
        let head = &self.current.head;
        let id = head.base + head.arena.append(row);
        if head.arena.is_full() {
            // The full head joins the list as it is — same allocation,
            // same `Arc`, dead rows and all; a fresh one takes the ids
            // after it.
            let sealed = &self.current.segments;
            debug_assert!(
                sealed.iter().all(|s| s.rows() == head.rows()),
                "every sealed segment holds exactly the seal threshold's rows"
            );
            let segments = sealed.iter().chain([head]).map(Arc::clone).collect();
            self.publish(Snapshot {
                segments,
                head: self.fresh_head(id + 1, dim),
                generation: self.current.generation,
            });
        }
        id
    }

    /// Returns 0 and does nothing: compaction
    /// ([`SketchIndex::compact`], which a server's `checkpoint` runs) is
    /// the one way dead rows leave the index. It stays, as
    /// [`EpochIndex::flush`] does, for callers written against an index
    /// that rewrote segments with many revoked rows on demand.
    pub fn maintain(&mut self) -> usize {
        0
    }

    /// The tier holding `id` and the row `id` has there. Every sealed
    /// segment holds the seal threshold's rows, so `id` divided by it
    /// is the segment's position — past the list, the head.
    fn locate(&self, id: RecordId) -> Option<(&Segment, usize)> {
        let Snapshot { segments, head, .. } = &*self.current;
        let position = segments.first().map_or(0, |first| id / first.rows());
        let seg = segments.get(position).map_or(&**head, Arc::as_ref);
        seg.row_of(id).map(|row| (seg, row))
    }
}

impl SketchIndex for EpochIndex {
    fn insert(&mut self, sketch: &[i64]) -> RecordId {
        self.append(Row::Sketch(sketch), sketch.len())
    }

    fn find(&self, probe: &[i64], subset: Option<&[RecordId]>, budget: usize) -> Vec<RecordId> {
        self.current.sweep(&[probe], subset, budget).swap_remove(0)
    }

    fn find_first_batch(&self, probes: &[impl AsRef<[i64]>]) -> Vec<Option<RecordId>> {
        firsts(self.current.sweep(probes, None, 1))
    }

    // Head or sealed, the atomic tombstone flip is visible through the
    // already-published `Arc<Segment>`: no copy and no republish. The
    // row stays in its segment until `compact`.
    fn remove(&mut self, id: RecordId) -> bool {
        self.locate(id)
            .is_some_and(|(seg, row)| seg.arena.revoke(row))
    }

    fn len(&self) -> usize {
        self.current.tiers().map(Segment::live).sum()
    }

    fn slots(&self) -> usize {
        self.current.tiers().map(Segment::rows).sum()
    }

    // The head's stamp is the index's: `stamp` reserves every head after
    // the first for the one dimension, and refuses any other.
    fn dim(&self) -> Option<usize> {
        self.current.head.arena.dim()
    }

    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool {
        out.clear();
        self.locate(id)
            .is_some_and(|(seg, row)| seg.arena.copy_row_into(row, out))
    }

    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        for seg in self.current.tiers() {
            seg.arena
                .for_each_live(&mut |row, sketch| f(seg.base + row, sketch));
        }
    }

    // The head is reserved whole when the dimension is stamped and
    // segments are sized when they are built, so a hint only stamps.
    fn reserve(&mut self, _additional: usize, dim: usize) {
        self.stamp(dim);
    }

    // The open head is charged for the rows it holds — their column
    // bytes, plane bits and tombstone words — not for the untouched
    // reservation behind them, which is address space, not memory: the
    // figure tracks what the process has resident. Writer and readers
    // share one snapshot, so its list and every segment, head included,
    // are counted once.
    fn heap_bytes(&self) -> usize {
        let list = self.current.segments.capacity() * std::mem::size_of::<Arc<Segment>>();
        let tiers: usize = self.current.tiers().map(Segment::heap_bytes).sum();
        list + std::mem::size_of::<Snapshot>() + tiers
    }

    // The one reclaim: the live rows' cells appended, in id order, to a
    // fresh index over the same ring, prefilter and dimension, leaving
    // dead rows — and all-dead segments — behind. The old tiers stay
    // published (and untouched) until the one publish at the end swaps
    // in the fresh index's tiers together with the new generation.
    fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        let mut fresh = EpochIndex::from_head(self.current.head.arena.empty_like(), self.seal_rows);
        let mut mapping = Vec::with_capacity(self.len());
        if let Some(dim) = self.dim() {
            fresh.stamp(dim);
            for seg in self.current.tiers() {
                for row in (0..seg.rows()).filter(|&row| seg.arena.is_live(row)) {
                    let new_id = fresh.append(Row::Stored(&seg.arena, row), dim);
                    mapping.push((seg.base + row, new_id));
                }
            }
        }
        let tiers = &fresh.current;
        self.publish(Snapshot {
            segments: tiers.segments.clone(),
            head: Arc::clone(&tiers.head),
            generation: self.current.generation + 1,
        });
        mapping
    }

    fn generation(&self) -> u64 {
        self.current.generation
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
                heads.push(Arc::clone(&index.current.head));
            }
        }
        assert_eq!(index.publishes(), 4, "the stamp and three seals");
        assert_eq!((index.segments().len(), index.staging_rows()), (3, 5));
        for (head, segment) in heads.iter().zip(index.segments()) {
            assert!(Arc::ptr_eq(head, segment), "a sealed segment is its head");
            assert_eq!((segment.rows(), segment.live()), (64, 64));
        }
        assert!(Arc::ptr_eq(&heads[3], &index.current.head));
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
        // Row 3 sealed long ago; revoke it and check both paths agree.
        assert!(index.remove(3));
        assert!(!index.remove(3), "double revoke reports false");
        assert_eq!(index.find_first(&[300, 300]), None);
        assert_eq!(reader.find_first(&[300, 300]), None);
        assert_eq!(index.len(), 19);
        let mut out = Vec::new();
        assert!(!index.copy_row_into(3, &mut out));
        assert!(index.copy_row_into(4, &mut out));
        assert_eq!(out, vec![400, 400]);
        assert_eq!((index.slots(), index.segments()[0].rows()), (20, 8));
    }

    /// A revoke only flips its tombstone bit, however many rows of a
    /// segment are dead: a whole sealed segment and over a quarter of
    /// another revoked swap no snapshot and free no byte, every id
    /// answers as before — dead ones not at all — through the index and
    /// through a reader taken before the revokes, and `maintain` finds
    /// nothing to do. `compact` is the reclaim: one publish, one
    /// generation.
    #[test]
    fn a_revoke_only_flips_its_tombstone() {
        let mut index = sealing_at(10, 4096, 8);
        for i in 0..20 {
            index.insert(&[100 * i, 100 * i]);
        }
        let reader = index.reader();
        let (stores, bytes, generation) =
            (index.publishes(), index.heap_bytes(), index.generation());
        let dead = |i: usize| i < 8 || [9, 11, 14].contains(&i);
        for id in (0..20).filter(|&i| dead(i)) {
            assert!(index.remove(id));
        }
        assert_eq!((index.publishes(), index.heap_bytes()), (stores, bytes));
        let shape: Vec<_> = index
            .segments()
            .iter()
            .map(|s| (s.rows(), s.live()))
            .collect();
        assert_eq!(shape, [(8, 0), (8, 5)], "dead rows stay where they were");
        assert_eq!((index.len(), index.slots()), (9, 20));
        for i in 0..20usize {
            let p = [100 * i as i64, 100 * i as i64];
            let expect = (!dead(i)).then_some(i);
            assert_eq!(index.find_first(&p), expect, "id {i}");
            assert_eq!(reader.find_first(&p), expect, "id {i} through the reader");
        }
        assert!(!index.remove(3), "a dead row stays dead");
        assert_eq!(index.maintain(), 0);

        let mapping = index.compact();
        let survivors = (0..20).filter(|&i| !dead(i));
        assert!(mapping.iter().map(|&(old, _)| old).eq(survivors));
        assert!(mapping.iter().map(|&(_, new)| new).eq(0..9));
        assert_eq!(index.publishes(), stores + 1, "compaction publishes once");
        assert_eq!(index.generation(), generation + 1);
        assert_eq!((index.segments().len(), index.slots()), (1, 9));
        assert!(index.heap_bytes() < bytes, "compaction reclaims");
        assert_eq!(reader.find_first(&[1_900, 1_900]), Some(8));
    }

    /// The two edges of compaction into a fresh index: an unstamped
    /// index stays unstamped, and a stamped one whose rows are all dead
    /// keeps its dimension and restarts its ids at 0. Either way the
    /// fresh tiers go out in one publish, with the next generation.
    #[test]
    fn compaction_keeps_the_stamp_and_drops_every_dead_row() {
        let mut index = sealing_at(10, 4096, 4);
        let reader = index.reader();
        assert!(index.compact().is_empty());
        assert_eq!((index.publishes(), index.generation()), (1, 1));
        assert_eq!((index.dim(), reader.generation()), (None, 1));

        for i in 0..10 {
            index.insert(&[100 * i, 0, 0]);
        }
        for id in 0..10 {
            assert!(index.remove(id));
        }
        let (stores, generation) = (index.publishes(), index.generation());
        assert!(index.compact().is_empty());
        assert_eq!(index.publishes(), stores + 1, "compaction publishes once");
        assert_eq!(index.generation(), generation + 1);
        assert_eq!(index.dim(), Some(3), "the stamp outlives every row");
        assert_eq!((index.slots(), index.segments().len()), (0, 0));
        assert_eq!(index.insert(&[500, 0, 0]), 0);
        assert_eq!(reader.find_first(&[500, 0, 0]), Some(0));
    }

    /// What the paper-shape index holds beside its rows — 72.125 B a row
    /// of row column, plane bits and tombstone words — at 65 536 + 128
    /// rows, one sealed segment and a 128-row head: the list's one
    /// `Arc` (8 B of capacity), `size_of::<Snapshot>()` (40 B) and two
    /// `Segment`s (248 B each). A field or a list copy more fails here,
    /// by name, before it uses up the 656 B that
    /// `tests/epoch_model.rs`'s per-row bound leaves at that shape.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn beside_its_rows_a_paper_index_holds_one_snapshot_and_two_segments() {
        let mut index = EpochIndex::new(100, 400);
        let rows = 65_536 + 128;
        for i in 0..rows {
            let row: Vec<i64> = (0..64).map(|j| ((i * 7 + j * 13) % 400) as i64).collect();
            index.insert(&row);
        }
        assert_eq!((index.segments().len(), index.staging_rows()), (1, 128));
        let overhead = index.heap_bytes() as f64 - 72.125 * rows as f64;
        assert_eq!(overhead, 544.0);
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
            assert_eq!(reader.find_first(&probe), index.find_first(&probe));
            assert_eq!(reader.find(&probe, None, 4), index.find(&probe, None, 4));
        }
        let subset: Vec<RecordId> = ids.iter().step_by(3).copied().collect();
        let probe = [0, 0, 0];
        assert_eq!(
            reader.find(&probe, Some(&subset), 8),
            index.find(&probe, Some(&subset), 8)
        );
        let probes: Vec<Vec<i64>> = (0..7)
            .map(|i| vec![100 * (i % 7), 100 * ((i * 3) % 7), i])
            .collect();
        assert_eq!(
            reader.find_first_batch(&probes),
            index.find_first_batch(&probes)
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
        assert_eq!(index.find_first(&[7, 7]).map(|id| id % 2), Some(1));
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
        // One row in five: the seal lists the head, dead rows and all.
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
        assert_eq!(index.find_first(&[9, 9]), Some(id));
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
}
