//! Epoch-published storage engine: a small append-only **head**
//! segment plus immutable **sealed segments**, with a lock-free read
//! path.
//!
//! # Shape
//!
//! [`EpochIndex`] splits storage into tiers:
//!
//! ```text
//!   writer state                      published snapshot (ArcCell)
//!   ┌──────────────────────┐          ┌────────────────────────────┐
//!   │ head: Arc<Segment>   │──Arc────▶│ head: Arc<Segment>         │
//!   │ segments:            │──Arc────▶│ segments: Vec<Arc<Segment>>│
//!   │   [run][run][sealed] │          │ generation                 │
//!   └──────────────────────┘          └────────────────────────────┘
//! ```
//!
//! Writers (`insert`/`remove`/`compact`, all `&mut self`) and readers
//! share every segment — the head included — through `Arc`s. The head
//! is allocated once, for `staging_cap` rows, and never moves: an
//! insert writes its row past the published row count and then
//! release-stores the count, a scan acquire-loads the count once and
//! reads nothing at or past it (DESIGN.md "Publication invariant"), so
//! showing a row to readers costs one atomic store and no copy. Only a
//! change to the segment *list* (freeze, merge, `maintain`, `compact`,
//! `clear`, import) publishes a fresh immutable `Snapshot` through the
//! vendored [`crossbeam::epoch::ArcCell`] — once per `staging_cap`
//! inserts, not once per insert. Readers obtained via
//! [`EpochRead::reader`] load the current snapshot (an epoch pin plus
//! one atomic pointer read — **no `RwLock`, no `Mutex`**) and sweep
//! segments + head against it; a snapshot stays valid for the whole
//! sweep because the reader holds an `Arc`, and superseded snapshots
//! are reclaimed only once every reader pinned before the swap has
//! unpinned (the epoch reclamation rule).
//!
//! # Tiers and lifecycle
//!
//! * **head** — the open segment. Inserts append here; once it holds
//!   `staging_cap` rows it is *frozen* — the same allocation joins the
//!   segment list as a run — and a fresh head starts.
//! * **runs** — small frozen segments awaiting consolidation. When
//!   `merge_runs` of them accumulate they are merged (live rows only)
//!   into one larger segment; this *is* the incremental compaction:
//!   tombstoned rows vanish from the merged output off the read path,
//!   while readers keep scanning the pre-merge snapshot.
//! * **sealed** — segments whose merged size reached `seal_rows`. They
//!   are never merged again by routine churn ([`EpochIndex::maintain`]
//!   rewrites a sealed segment only once a quarter of its rows are
//!   tombstoned), and their on-disk form is the columnar snapshot
//!   frame (see [`SketchIndex::export_segments`]).
//!
//! Revoking a row — in the head or in a frozen segment alike — flips a
//! bit in its segment's *tombstone words*: `AtomicU64`s read by
//! in-flight scans through the already-published `Arc<Segment>`, so
//! revocation needs no republish and never blocks a reader.
//!
//! # Id assignment
//!
//! Ids are assigned densely in insertion order and never renumbered
//! outside [`SketchIndex::compact`]/[`SketchIndex::clear`]. Segments
//! hold ascending, disjoint id ranges (dense-from-base right after a
//! freeze, a sorted sparse id list after a merge dropped tombstoned
//! rows), and the head holds the tail; scanning segments in list order
//! and the head last therefore yields globally ascending matches and
//! first-hit-wins reproduces earliest-enrolled-wins exactly.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crossbeam::epoch::ArcCell;

use super::store::{FilterConfig, Row, RowMask, SketchArena};
use super::{RecordId, SketchIndex};

/// Rows the head holds before it is frozen into a run segment: the
/// unit the head is allocated in and the publish interval. Large
/// enough that a run is worth a sweep of its own and the snapshot swap
/// amortises to nothing per insert, small enough (≈ 140 KB at the
/// paper's dimension) that an idle index wastes little.
const DEFAULT_STAGING_CAP: usize = 1024;

/// Frozen runs that trigger a consolidating merge.
const DEFAULT_MERGE_RUNS: usize = 8;

/// Rows at which a merged segment is sealed (exempt from routine
/// merging, exported verbatim by checkpoints).
const DEFAULT_SEAL_ROWS: usize = 65_536;

/// A sealed segment rewrite triggers once this fraction of its rows
/// are tombstoned (numerator/denominator of `rows / 4`).
const MAINTAIN_TOMBSTONE_DIVISOR: usize = 4;

/// Version tag leading every exported segment blob.
const SEGMENT_BLOB_VERSION: u32 = 1;

/// Global-id map for a segment's rows.
#[derive(Debug, Clone)]
enum Ids {
    /// Rows `0..rows` are ids `base..base + rows` (the head, a frozen
    /// head, or a merge that dropped nothing).
    Dense(RecordId),
    /// Row `r` is `ids[r]`; strictly ascending (a merge that dropped
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
/// while the writer appends to it, a frozen run or a sealed segment
/// afterwards — the same allocation throughout.
///
/// Rows only ever arrive at the end (and only in the head); a row that
/// is there never changes. Revocations flip the arena's atomic
/// tombstone bits, which concurrent scans read through the published
/// `Arc<Segment>`.
#[derive(Debug, Clone)]
pub struct Segment {
    arena: SketchArena,
    ids: Ids,
    sealed: bool,
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

    /// Sealed segments are exempt from routine merging and are what
    /// checkpoints export verbatim.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// The rows a merge or a compaction carries over, ascending.
    fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows()).filter(|&row| self.arena.is_live(row))
    }

    fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes() + self.ids.heap_bytes() + std::mem::size_of::<Segment>()
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
/// live writer state) and the lock-free reader (over a snapshot).
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

/// A lock-free identification reader over some epoch-published index.
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

/// A [`SketchIndex`] that can hand out lock-free [`IndexReader`]s.
pub trait EpochRead: SketchIndex {
    /// The reader handle type.
    type Reader: IndexReader;

    /// A detached reader over this index's published snapshots. The
    /// handle stays valid (and keeps observing new publishes) for the
    /// life of the index's shared state, even across `&mut` writes.
    fn reader(&self) -> Self::Reader;
}

/// The lock-free reader over an [`EpochIndex`] (see [`EpochRead`]).
///
/// Every scan loads the current snapshot under an epoch pin — one
/// atomic pointer read plus an `Arc` refcount — then sweeps it
/// unsynchronized; no scan ever takes a lock or blocks a writer.
#[derive(Clone)]
pub struct EpochReader {
    cell: Arc<ArcCell<Snapshot>>,
}

impl fmt::Debug for EpochReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.cell.load();
        f.debug_struct("EpochReader")
            .field("segments", &snap.segments.len())
            .field("head_rows", &snap.head.rows())
            .field("generation", &snap.generation)
            .finish()
    }
}

impl IndexReader for EpochReader {
    fn generation(&self) -> u64 {
        self.cell.load().generation
    }

    fn find_first(&self, probe: &[i64]) -> Option<RecordId> {
        self.cell
            .load()
            .view()
            .find(probe, None, 1)
            .first()
            .copied()
    }

    fn find_first_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        self.cell.load().view().find_first_batch(probes)
    }

    fn find_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId> {
        self.cell.load().view().find(probe, None, budget)
    }

    fn find_in_subset(&self, probe: &[i64], subset: &[RecordId], budget: usize) -> Vec<RecordId> {
        self.cell.load().view().find(probe, Some(subset), budget)
    }
}

/// The epoch-published segmented index (module docs: [`crate::index::epoch`]).
pub struct EpochIndex {
    t: u64,
    ka: u64,
    filter: FilterConfig,
    staging_cap: usize,
    merge_runs: usize,
    seal_rows: usize,
    /// Frozen segments, ascending disjoint id ranges.
    segments: Vec<Arc<Segment>>,
    /// The open segment, shared with the published snapshot: this index
    /// is its only writer, under its own `&mut self`.
    head: Arc<Segment>,
    /// Stamped by the first insert (or `reserve`); enforced here, not
    /// only by the arenas, because it is what sizes each fresh head.
    dim: Option<usize>,
    generation: u64,
    cell: Arc<ArcCell<Snapshot>>,
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
            .field("live", &self.len())
            .finish()
    }
}

impl Clone for EpochIndex {
    /// Clones the *contents* into an independent index with its own
    /// head and publication cell: readers of the original never observe
    /// the clone's writes. Frozen segments are shared (`Arc`) until the
    /// clone merges or compacts them away.
    fn clone(&self) -> EpochIndex {
        let mut clone = EpochIndex {
            segments: self.segments.clone(),
            head: Arc::new(Segment::clone(&self.head)),
            dim: self.dim,
            generation: self.generation,
            ..EpochIndex::with_thresholds(
                self.t,
                self.ka,
                self.filter,
                self.staging_cap,
                self.merge_runs,
                self.seal_rows,
            )
        };
        clone.publish();
        clone
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
    pub fn with_filter(t: u64, ka: u64, filter: FilterConfig) -> EpochIndex {
        EpochIndex::with_thresholds(
            t,
            ka,
            filter,
            DEFAULT_STAGING_CAP,
            DEFAULT_MERGE_RUNS,
            DEFAULT_SEAL_ROWS,
        )
    }

    /// Full-control constructor: `staging_cap` rows freeze the head
    /// into a run, `merge_runs` runs trigger a consolidating merge,
    /// `seal_rows` rows seal a merged segment. Tests drive tiny
    /// thresholds to exercise every tier; production uses the
    /// defaults.
    ///
    /// # Panics
    /// Panics if any threshold is zero.
    pub fn with_thresholds(
        t: u64,
        ka: u64,
        filter: FilterConfig,
        staging_cap: usize,
        merge_runs: usize,
        seal_rows: usize,
    ) -> EpochIndex {
        assert!(
            staging_cap > 0 && merge_runs > 0 && seal_rows > 0,
            "epoch thresholds must be positive"
        );
        // Unstamped, so nothing is allocated yet: the first insert or
        // `reserve` swaps in a head sized for the dimension it brings.
        let head = Arc::new(Segment {
            arena: SketchArena::with_filter(t, ka, filter),
            ids: Ids::Dense(0),
            sealed: false,
        });
        let cell = Arc::new(ArcCell::new(Arc::new(Snapshot {
            segments: Vec::new(),
            head: Arc::clone(&head),
            generation: 0,
        })));
        EpochIndex {
            t,
            ka,
            filter,
            staging_cap,
            merge_runs,
            seal_rows,
            segments: Vec::new(),
            head,
            dim: None,
            generation: 0,
            cell,
        }
    }

    /// The frozen segments (diagnostics, benches, checkpoint export).
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

    /// Every tier in id order: the frozen segments, then the head.
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
    /// snapshot already out.
    fn publish(&mut self) {
        self.cell.store(Arc::new(Snapshot {
            segments: self.segments.clone(),
            head: Arc::clone(&self.head),
            generation: self.generation,
        }));
    }

    /// A segment over `arena` whose `sealed` flag follows its capacity
    /// (a head is frozen exactly when full, so capacity is its final
    /// row count).
    fn segment(&self, arena: SketchArena, ids: Ids, rows: usize) -> Arc<Segment> {
        Arc::new(Segment {
            arena,
            ids,
            sealed: rows >= self.seal_rows,
        })
    }

    /// Starts an empty head for ids `base..`, allocated in full once
    /// the dimension is known (no publish).
    fn start_head(&mut self, base: RecordId) {
        let mut arena = SketchArena::with_filter(self.t, self.ka, self.filter);
        if let Some(dim) = self.dim {
            arena.reserve(self.staging_cap, dim);
        }
        self.head = self.segment(arena, Ids::Dense(base), self.staging_cap);
    }

    /// Stamps the dimension on first use and checks it afterwards.
    /// `true` when this call stamped it — the head was replaced by an
    /// allocated one, which the caller must publish.
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

    /// Appends one row to the head, freezing (and merging) when that
    /// fills it. Returns the row's id and whether the segment list or
    /// the head was replaced; publishing is the caller's, so `compact`
    /// can rebuild unseen.
    fn append(&mut self, row: Row<'_>, dim: usize) -> (RecordId, bool) {
        let mut replaced = self.stamp(dim);
        let id = self.head_base() + self.head.arena.append(row);
        if self.head.rows() >= self.staging_cap {
            // The full head joins the list as it is — same allocation,
            // same `Arc` — and a fresh one takes the ids after it.
            self.segments.push(Arc::clone(&self.head));
            self.start_head(id + 1);
            self.maybe_merge();
            replaced = true;
        }
        (id, replaced)
    }

    /// Merges the trailing unsealed runs once `merge_runs` of them
    /// accumulate. Copies live rows only — this is the incremental
    /// compaction: tombstoned rows vanish here, off the read path
    /// (readers keep sweeping the previous snapshot until the next
    /// publish swaps in the merged list).
    fn maybe_merge(&mut self) {
        let tail_start = self
            .segments
            .iter()
            .rposition(|s| s.sealed)
            .map_or(0, |i| i + 1);
        if self.segments.len() - tail_start >= self.merge_runs {
            self.merge_range(tail_start..self.segments.len());
        }
    }

    /// Rewrites `range` (adjacent segments) into at most one live-only
    /// segment, copying cells arena to arena. Does not publish; callers
    /// do.
    fn merge_range(&mut self, range: Range<usize>) {
        let start = range.start;
        let merged: Vec<Arc<Segment>> = self.segments.drain(range).collect();
        let total_live: usize = merged.iter().map(|s| s.live()).sum();
        if total_live == 0 {
            return;
        }
        let dim = self
            .dim
            .expect("segments exist, so the dimension is stamped");
        let mut arena = SketchArena::with_filter(self.t, self.ka, self.filter);
        arena.reserve(total_live, dim);
        let mut ids: Vec<RecordId> = Vec::with_capacity(total_live);
        for seg in &merged {
            for row in seg.live_rows() {
                arena.append(Row::Stored(&seg.arena, row));
                ids.push(seg.ids.id_of(row));
            }
        }
        let base = ids[0];
        let dense = ids.iter().enumerate().all(|(i, &id)| id == base + i);
        let ids = if dense {
            Ids::Dense(base)
        } else {
            Ids::Sparse(ids)
        };
        let rows = arena.rows();
        self.segments.insert(start, self.segment(arena, ids, rows));
    }

    /// Background maintenance: rewrites any **sealed** segment whose
    /// tombstone count reached a quarter of its rows (routine merging
    /// never touches sealed segments, so without this a revocation-
    /// heavy workload would scan dead rows forever). Returns the
    /// number of segments rewritten. Cheap no-op when nothing
    /// qualifies, so callers may invoke it opportunistically after
    /// revocation bursts.
    pub fn maintain(&mut self) -> usize {
        let mut rewritten = 0;
        let mut i = 0;
        while i < self.segments.len() {
            let seg = &self.segments[i];
            let revoked = seg.rows() - seg.live();
            if seg.sealed && revoked > 0 && revoked * MAINTAIN_TOMBSTONE_DIVISOR >= seg.rows() {
                let had = self.segments.len();
                self.merge_range(i..i + 1);
                rewritten += 1;
                // A fully-dead segment merges to nothing.
                if self.segments.len() == had {
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        if rewritten > 0 {
            self.publish();
        }
        rewritten
    }

    /// The tier holding `id` and the row it has there.
    fn locate(&self, id: RecordId) -> Option<(&Segment, usize)> {
        let i = self
            .segments
            .partition_point(|s| s.ids.end_id(s.rows()) <= id);
        let seg = self.segments.get(i).map_or(&*self.head, Arc::as_ref);
        seg.ids.row_of(id, seg.rows()).map(|row| (seg, row))
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

    // Head or frozen, the atomic tombstone flip is visible through the
    // already-published `Arc<Segment>` — no republish needed.
    fn remove(&mut self, id: RecordId) -> bool {
        self.locate(id)
            .is_some_and(|(seg, row)| seg.arena.revoke(row))
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
            .is_some_and(|(seg, row)| seg.arena.copy_row_into(row, out))
    }

    // Merges drop dead rows, so live ids can exceed `slots()`: walk
    // the tiers, not an id range.
    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        for seg in self.tiers() {
            seg.arena
                .for_each_live(|row, sketch| f(seg.ids.id_of(row), sketch));
        }
    }

    // The head is allocated whole when the dimension is stamped and
    // segments are sized when they are built, so a hint only stamps.
    fn reserve(&mut self, _additional: usize, dim: usize) {
        if self.stamp(dim) {
            self.publish();
        }
    }

    fn heap_bytes(&self) -> usize {
        let list = |segments: &Vec<Arc<Segment>>| {
            segments.capacity() * std::mem::size_of::<Arc<Segment>>()
        };
        // Writer and snapshot share every segment, head included, so
        // each is counted once; the snapshot adds its own list.
        let snapshot = list(&self.cell.load().segments) + std::mem::size_of::<Snapshot>();
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

    fn export_segments(&self) -> Option<Vec<u8>> {
        export_blob(self)
    }

    fn import_segments(&mut self, blob: &[u8]) -> Option<usize> {
        import_blob(self, blob)
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

// ---------------------------------------------------------------------------
// Sealed-segment blob: the checkpoint sidecar format.
//
// Layout (all little-endian):
//   u32 version · u64 t · u64 ka · u32 dim · u32 segment-count
//   per segment: u64 rows · u64 cell-byte-len · cells · u32 word-count
//                · liveness words (tombstones already folded in)
//
// Only a fully-live dense prefix is exportable: `checkpoint()` compacts
// first, so its segments are exactly that shape, and the snapshot rows
// it writes are numbered `0..count` in the same order — which is what
// lets recovery skip re-inserting the covered prefix.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct BlobReader<'a> {
    buf: &'a [u8],
}

impl<'a> BlobReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Encodes the sealed, fully-live, dense-from-zero prefix of the
/// segment list; `None` when there is nothing exportable in that shape
/// (callers then persist nothing and recovery replays the journal).
fn export_blob(index: &EpochIndex) -> Option<Vec<u8>> {
    let dim = index.dim?;
    let mut prefix = Vec::new();
    let mut expected_base = 0usize;
    for seg in &index.segments {
        let full = matches!(seg.ids, Ids::Dense(base) if base == expected_base)
            && seg.sealed
            && seg.live() == seg.rows();
        if !full {
            break;
        }
        expected_base += seg.rows();
        prefix.push(seg);
    }
    if prefix.is_empty() {
        return None;
    }
    let mut out = Vec::new();
    put_u32(&mut out, SEGMENT_BLOB_VERSION);
    put_u64(&mut out, index.t);
    put_u64(&mut out, index.ka);
    put_u32(&mut out, dim as u32);
    put_u32(&mut out, prefix.len() as u32);
    for seg in prefix {
        let (cells, live_words) = seg.arena.export_parts();
        put_u64(&mut out, seg.rows() as u64);
        put_u64(&mut out, cells.len() as u64);
        out.extend_from_slice(&cells);
        put_u32(&mut out, live_words.len() as u32);
        for w in live_words {
            put_u64(&mut out, w);
        }
    }
    Some(out)
}

/// Installs a blob produced by [`export_blob`] into an **empty** index
/// with matching ring parameters; returns the number of records the
/// imported segments cover (ids `0..n`), which recovery uses to skip
/// that many snapshot re-inserts. `None` (leaving the index empty) on
/// any mismatch — the caller then falls back to a full replay.
fn import_blob(index: &mut EpochIndex, blob: &[u8]) -> Option<usize> {
    if !index.is_empty() || index.slots() != 0 {
        return None;
    }
    let mut r = BlobReader { buf: blob };
    if r.u32()? != SEGMENT_BLOB_VERSION || r.u64()? != index.t || r.u64()? != index.ka {
        return None;
    }
    let dim = r.u32()? as usize;
    if !index.sketch_dim_ok(dim) || dim == 0 {
        return None;
    }
    // Both counts come straight from the blob: neither may size an
    // allocation beyond what the bytes left could hold (a segment costs
    // at least its 20 header bytes, a liveness word 8).
    let count = r.u32()? as usize;
    if count > r.buf.len() / 20 {
        return None;
    }
    let mut segments = Vec::with_capacity(count);
    let mut base = 0usize;
    for _ in 0..count {
        let rows = usize::try_from(r.u64()?).ok()?;
        let cell_len = usize::try_from(r.u64()?).ok()?;
        let cells = r.take(cell_len)?;
        let words = r.u32()? as usize;
        let live: Vec<u64> = r
            .take(words.checked_mul(8)?)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("a chunk of 8 bytes")))
            .collect();
        let arena =
            SketchArena::from_parts(index.t, index.ka, index.filter, dim, rows, cells, &live)?;
        // The export contract is a fully-live prefix; reject anything
        // else rather than silently resurrecting or dropping rows.
        if arena.len() != rows || rows == 0 {
            return None;
        }
        segments.push(Arc::new(Segment {
            arena,
            ids: Ids::Dense(base),
            sealed: true,
        }));
        base += rows;
    }
    if !r.buf.is_empty() || segments.is_empty() {
        return None;
    }
    index.segments = segments;
    index.dim = Some(dim);
    index.start_head(base);
    index.publish();
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tiny(t: u64, ka: u64) -> EpochIndex {
        // Thresholds small enough that a 50-record test population
        // exercises freeze, merge, and seal. (The shared trait-contract
        // suites in `index::tests` also run over `EpochIndex`.)
        EpochIndex::with_thresholds(t, ka, FilterConfig::default(), 4, 2, 16)
    }

    #[test]
    #[should_panic(expected = "stamped dimension")]
    fn mixed_dimension_insert_panics_across_freeze() {
        let mut index = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 1, 2, 16);
        index.insert(&[1, 2, 3]);
        // First insert froze immediately (cap 1), so the head is a
        // fresh one — the index-level stamp must still reject a
        // different dimension.
        index.insert(&[1, 2]);
    }

    #[test]
    fn tiers_form_and_merge() {
        let mut index = tiny(10, 64);
        for i in 0..50 {
            index.insert(&[i, i + 1]);
        }
        assert!(!index.segments().is_empty(), "freezes must have fired");
        assert!(
            index.segments().iter().any(|s| s.is_sealed()),
            "merges must have sealed at least one segment"
        );
        assert_eq!(index.len(), 50);
        assert_eq!(index.slots(), 50);
    }

    #[test]
    fn frozen_rows_revoke_via_tombstones() {
        // Ring 4096 with spacing 100 ≫ t keeps every record distinct
        // under the cyclic-distance-≤-t predicate.
        let mut index = tiny(10, 4096);
        for i in 0..20 {
            index.insert(&[100 * i, 100 * i]);
        }
        let reader = index.reader();
        // Row 3 froze long ago; revoke it and check both paths agree.
        assert!(index.remove(3));
        assert!(!index.remove(3), "double revoke reports false");
        assert_eq!(index.lookup(&[300, 300]), None);
        assert_eq!(reader.find_first(&[300, 300]), None);
        assert_eq!(index.len(), 19);
        let mut out = Vec::new();
        assert!(!index.copy_row_into(3, &mut out));
        assert!(index.copy_row_into(4, &mut out));
        assert_eq!(out, vec![400, 400]);
    }

    #[test]
    fn merges_drop_dead_rows_but_keep_ids() {
        let mut index = EpochIndex::with_thresholds(10, 4096, FilterConfig::default(), 2, 2, 1024);
        for i in 0..4 {
            index.insert(&[100 * i, 100 * i]);
        }
        // Two runs of 2 merged into one segment of 4; revoke inside it,
        // then force another merge cycle over fresh runs.
        assert!(index.remove(1));
        for i in 4..8 {
            index.insert(&[100 * i, 100 * i]);
        }
        assert_eq!(index.len(), 7);
        assert_eq!(index.lookup(&[100, 100]), None);
        for i in [0usize, 2, 3, 4, 5, 6, 7] {
            let p = [100 * i as i64, 100 * i as i64];
            assert_eq!(index.lookup(&p), Some(i), "id {i} must survive merges");
        }
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
        let mut index = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 8, 2, 64);
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
        crossbeam::epoch::pin(); // touch the epoch machinery once more
        assert_eq!(index.lookup(&[7, 7]).map(|id| id % 2), Some(1));
    }

    #[test]
    fn maintain_rewrites_tombstone_heavy_sealed_segments() {
        let mut index = EpochIndex::with_thresholds(10, 4096, FilterConfig::default(), 4, 2, 8);
        for i in 0..16i64 {
            index.insert(&[i * 100, i * 100]);
        }
        let sealed_rows: usize = index
            .segments()
            .iter()
            .filter(|s| s.is_sealed())
            .map(|s| s.rows())
            .sum();
        assert!(sealed_rows >= 8, "setup must have sealed a segment");
        for id in 0..8 {
            index.remove(id);
        }
        let before: usize = index.slots();
        assert!(index.maintain() > 0, "a sealed segment was tombstone-heavy");
        assert!(index.slots() < before, "rewrite must drop dead rows");
        for i in 8..16i64 {
            assert_eq!(index.lookup(&[i * 100, i * 100]), Some(i as usize));
        }
        assert_eq!(index.maintain(), 0, "second pass finds nothing to do");
    }

    /// The publication rule, counted: rows appended to the head and
    /// tombstones flipped in it reach readers through the snapshot
    /// already out — zero swaps — and a freeze swaps exactly once.
    #[test]
    fn only_a_changed_segment_list_swaps_the_snapshot() {
        let cap = 100; // not a multiple of 64: the freeze lands mid-group
        let mut index = EpochIndex::with_thresholds(10, 4096, FilterConfig::default(), cap, 4, 512);
        let reader = index.reader();
        index.reserve(0, 2); // stamps the dimension: the one allocation
        let (stores, snapshot) = (index.cell.store_count(), index.cell.load());
        for i in 0..cap - 1 {
            assert_eq!(index.insert(&[40 * i as i64, 7]), i);
            assert_eq!(reader.find_first(&[40 * i as i64, 7]), Some(i));
        }
        for i in 0..cap - 1 {
            assert!(index.remove(i));
            assert_eq!(reader.find_first(&[40 * i as i64, 7]), None);
        }
        assert_eq!(
            index.cell.store_count(),
            stores,
            "head writes must not swap"
        );
        assert!(Arc::ptr_eq(&snapshot, &index.cell.load()));
        assert_eq!(format!("{reader:?}"), format!("{:?}", index.reader()));
        assert!(format!("{reader:?}").contains("head_rows: 99"));

        index.insert(&[3960, 7]); // row `cap`: the freeze
        assert_eq!(index.cell.store_count(), stores + 1, "a freeze swaps once");
        assert_eq!((index.segments().len(), index.staging_rows()), (1, 0));
        assert_eq!(reader.find_first(&[3960, 7]), Some(cap - 1));
        // The frozen run is the old head itself, not a copy of it.
        assert!(Arc::ptr_eq(&snapshot.head, &index.segments()[0]));
    }

    #[test]
    fn reserve_is_only_a_size_hint() {
        let mut index = tiny(10, 64);
        index.reserve(1 << 20, 2);
        let reader = index.reader();
        let id = index.insert(&[9, 9]);
        assert_eq!(reader.find_first(&[9, 9]), Some(id));
        assert_eq!(index.lookup(&[9, 9]), Some(id));
        assert!(index.heap_bytes() < 4096, "nothing is sized by the hint");
    }

    #[test]
    fn export_import_round_trip() {
        let mut index = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 4, 2, 8);
        for i in 0..20i64 {
            index.insert(&[i * 10, i * 10]);
        }
        // Compact first, as checkpoint() does: export wants the
        // fully-live dense sealed prefix.
        index.compact();
        let blob = index.export_segments().expect("sealed prefix exists");
        let mut restored = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 4, 2, 8);
        let covered = restored.import_segments(&blob).expect("import");
        assert!(covered > 0 && covered <= 20);
        // Replay the uncovered tail exactly as recovery would.
        let mut scratch = Vec::new();
        for id in covered..20 {
            assert!(index.copy_row_into(id, &mut scratch));
            assert_eq!(restored.insert(&scratch), id);
        }
        assert_eq!(restored.len(), index.len());
        for i in 0..20i64 {
            assert_eq!(
                restored.lookup(&[i * 10, i * 10]),
                index.lookup(&[i * 10, i * 10])
            );
        }
        // Readers see the imported rows.
        assert_eq!(restored.reader().find_first(&[0, 0]), Some(0));
    }

    #[test]
    fn import_rejects_mismatches() {
        let mut index = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 4, 2, 8);
        for i in 0..20i64 {
            index.insert(&[i * 10, i * 10]);
        }
        index.compact();
        let blob = index.export_segments().expect("sealed prefix exists");
        // Wrong ring.
        let mut other = EpochIndex::new(10, 128);
        assert_eq!(other.import_segments(&blob), None);
        // Non-empty target.
        let mut busy = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 4, 2, 8);
        busy.insert(&[1, 1]);
        assert_eq!(busy.import_segments(&blob), None);
        // Truncated blob.
        let mut fresh = EpochIndex::with_thresholds(10, 64, FilterConfig::default(), 4, 2, 8);
        assert_eq!(fresh.import_segments(&blob[..blob.len() - 1]), None);
        assert!(fresh.is_empty(), "failed import must leave the index empty");
        // Counts the bytes behind them cannot back: 2³² − 1 segments in
        // a 28-byte blob, 2³² − 1 liveness words in a 48-byte one, and
        // a row count whose `rows · dim` overflows. Each must be
        // refused before anything is sized from it.
        let header = &blob[..24]; // version ‖ t ‖ ka ‖ dim
        let segment = |rows: u64, words: u32| {
            let mut hostile = [header, &1u32.to_le_bytes()].concat();
            hostile.extend_from_slice(&rows.to_le_bytes());
            hostile.extend_from_slice(&0u64.to_le_bytes()); // no cell bytes
            hostile.extend_from_slice(&words.to_le_bytes());
            hostile
        };
        for hostile in [
            [header, &u32::MAX.to_le_bytes()].concat(),
            segment(1, u32::MAX),
            segment(1 << 63, 0),
        ] {
            assert_eq!(fresh.import_segments(&hostile), None);
            assert!(fresh.is_empty(), "failed import must leave the index empty");
        }
    }

    #[test]
    fn export_declines_without_sealed_prefix() {
        let mut index = EpochIndex::new(10, 64); // seal_rows = 65536
        for i in 0..50i64 {
            index.insert(&[i, i]);
        }
        assert_eq!(index.export_segments(), None);
        assert_eq!(EpochIndex::new(10, 64).export_segments(), None);
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
