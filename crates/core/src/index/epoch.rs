//! Epoch-published storage engine: a small mutable **head** arena plus
//! immutable **sealed segments**, with a lock-free read path.
//!
//! # Shape
//!
//! [`EpochIndex`] splits storage into tiers:
//!
//! ```text
//!   writer state                      published snapshot (ArcCell)
//!   ┌──────────────────────┐          ┌───────────────────────────┐
//!   │ staging SketchArena  │──clone──▶│ head: Arc<SketchArena>    │
//!   │ segments:            │──Arc────▶│ segments: Vec<Arc<Segment>>│
//!   │   [run][run][sealed] │          │ head_base, generation     │
//!   └──────────────────────┘          └───────────────────────────┘
//! ```
//!
//! Writers (`insert`/`remove`/`compact`, all `&mut self`) mutate only
//! the staging arena and the segment *list*; every visible change is
//! published as a fresh immutable `Snapshot` through the vendored
//! [`crossbeam::epoch::ArcCell`]. Readers obtained via
//! [`EpochRead::reader`] load the current snapshot (an epoch pin plus
//! one atomic pointer read — **no `RwLock`, no `Mutex`**) and sweep
//! head + segments against it; a snapshot stays valid for the whole
//! sweep because the reader holds an `Arc`, and superseded snapshots
//! are reclaimed only once every reader pinned before the swap has
//! unpinned (the epoch reclamation rule).
//!
//! # Tiers and lifecycle
//!
//! * **staging** — the mutable head arena. Inserts append here; once it
//!   reaches `staging_cap` rows it is *frozen* into an immutable run
//!   segment and a fresh staging arena starts.
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
//! Revoking a row in a frozen segment flips a bit in the segment's
//! *tombstone words* — per-segment `AtomicU64`s read by in-flight
//! scans through the already-published `Arc<Segment>`, so revocation
//! needs no republish and never blocks a reader. Revoking a staging
//! row republishes the head clone.
//!
//! # Id assignment
//!
//! Ids are assigned densely in insertion order and never renumbered
//! outside [`SketchIndex::compact`]/[`SketchIndex::clear`]. Segments
//! hold ascending, disjoint id ranges (dense-from-base right after a
//! freeze, a sorted sparse id list after a merge dropped tombstoned
//! rows), and the staging arena holds the tail `head_base..`; scanning
//! segments in list order therefore yields globally ascending matches
//! and first-hit-wins reproduces earliest-enrolled-wins exactly.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::epoch::ArcCell;

use super::store::{FilterConfig, RowFilter, RowMask, SketchArena};
use super::{RecordId, SketchIndex};

/// Rows the staging arena may hold before it is frozen into a run
/// segment. Small enough that the per-insert head republish (a clone
/// of the staging arena) stays cheap, large enough that runs are
/// worth scanning.
const DEFAULT_STAGING_CAP: usize = 1024;

/// Frozen runs that trigger a consolidating merge.
const DEFAULT_MERGE_RUNS: usize = 8;

/// Rows at which a merged segment is sealed (exempt from routine
/// merging, exported verbatim by checkpoints).
const DEFAULT_SEAL_ROWS: usize = 65_536;

/// `reserve` hints at or above this many rows switch the index into
/// bulk-load mode (no per-insert publish) until [`SketchIndex::flush`];
/// smaller hints keep the publish-per-write contract so interactive
/// callers never observe a stale snapshot.
const BULK_RESERVE_THRESHOLD: usize = 4096;

/// A sealed segment rewrite triggers once this fraction of its rows
/// are tombstoned (numerator/denominator of `rows / 4`).
const MAINTAIN_TOMBSTONE_DIVISOR: usize = 4;

/// Version tag leading every exported segment blob.
const SEGMENT_BLOB_VERSION: u32 = 1;

/// Where a segment's column data lives.
///
/// The trait seam for the beyond-RAM cold tier: `Anon` segments own
/// their arena in heap memory; `File` names a columnar snapshot frame
/// on disk that a future mmap backend will map read-only instead of
/// materializing. Today every constructed segment is `Anon` — the
/// variant (and [`Segment::backing`]) pin down the API so the mmap
/// work is a backend swap, not an index redesign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentBacking {
    /// Heap-resident arena (the only backing constructed today).
    Anon,
    /// Columnar frame at this path, to be mapped rather than loaded.
    File(std::path::PathBuf),
}

/// Global-id map for a frozen segment's rows.
#[derive(Debug)]
enum Ids {
    /// Rows `0..rows` are ids `base..base + rows` (a freshly frozen
    /// staging arena, or a merge that dropped nothing).
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

/// An immutable frozen arena plus revocation state.
///
/// The arena (rows, liveness words, prefilter plane) never changes
/// after construction; post-freeze revocations land in the `tombstones`
/// words, which concurrent scans read atomically through the published
/// `Arc<Segment>` — a row is live iff its arena liveness bit is set
/// *and* its tombstone bit is clear.
#[derive(Debug)]
pub struct Segment {
    arena: SketchArena,
    ids: Ids,
    /// Post-freeze revocations, bit `r % 64` of word `r / 64`.
    tombstones: Vec<AtomicU64>,
    /// Count of set tombstone bits (all flips go through `revoke`,
    /// which runs under the index's `&mut self`, so this never races
    /// with itself — it is atomic only so readers may load it).
    revoked: AtomicUsize,
    sealed: bool,
    backing: SegmentBacking,
}

impl Segment {
    fn from_arena(arena: SketchArena, ids: Ids, sealed: bool, backing: SegmentBacking) -> Segment {
        let words = arena.rows().div_ceil(64);
        Segment {
            tombstones: (0..words).map(|_| AtomicU64::new(0)).collect(),
            revoked: AtomicUsize::new(0),
            arena,
            ids,
            sealed,
            backing,
        }
    }

    /// Frozen row count (live and dead).
    pub fn rows(&self) -> usize {
        self.arena.rows()
    }

    /// Live rows: arena-live minus post-freeze tombstones.
    pub fn live(&self) -> usize {
        self.arena.len() - self.revoked.load(Ordering::SeqCst)
    }

    /// Sealed segments are exempt from routine merging and are what
    /// checkpoints export verbatim.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Where this segment's columns live (the mmap seam).
    pub fn backing(&self) -> &SegmentBacking {
        &self.backing
    }

    fn is_tombstoned(&self, row: usize) -> bool {
        self.tombstones[row / 64].load(Ordering::SeqCst) & (1 << (row % 64)) != 0
    }

    /// Flips the tombstone bit for `row`; `true` if the row was live.
    /// Writer-side only (`&mut` on the owning index), but the flip is
    /// atomic so a published scan observes either the row or its
    /// absence — never a torn word.
    fn revoke(&self, row: usize) -> bool {
        if !self.arena.is_live(row) {
            return false;
        }
        let bit = 1u64 << (row % 64);
        if self.tombstones[row / 64].fetch_or(bit, Ordering::SeqCst) & bit != 0 {
            return false;
        }
        self.revoked.fetch_add(1, Ordering::SeqCst);
        true
    }

    fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
            + self.tombstones.capacity() * std::mem::size_of::<AtomicU64>()
            + self.ids.heap_bytes()
            + std::mem::size_of::<Segment>()
    }
}

/// One immutable published view: the segment list plus a clone of the
/// staging arena at publish time.
#[derive(Debug)]
struct Snapshot {
    segments: Vec<Arc<Segment>>,
    head: Arc<SketchArena>,
    head_base: RecordId,
    generation: u64,
}

impl Snapshot {
    fn view(&self) -> View<'_> {
        View {
            segments: &self.segments,
            head: &self.head,
            head_base: self.head_base,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.head.heap_bytes()
            + self.segments.capacity() * std::mem::size_of::<Arc<Segment>>()
            + std::mem::size_of::<Snapshot>()
    }
}

/// Borrowed scan view shared by the writer-side trait methods (over
/// live writer state) and the lock-free reader (over a snapshot).
struct View<'a> {
    segments: &'a [Arc<Segment>],
    head: &'a SketchArena,
    head_base: RecordId,
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
        for tier in 0..=self.segments.len() {
            // Every open probe still lacks at least `budget - found`.
            let Some(found) = open.iter().map(|&p| out[p].len()).min() else {
                break;
            };
            let seg = self.segments.get(tier); // `None`: the head
            let arena = seg.map_or(self.head, |s| &s.arena);
            let mask = subset.map(|ids| {
                RowMask::from_rows(ids.iter().filter_map(|&id| match seg {
                    Some(s) => s.ids.row_of(id, s.rows()).filter(|&r| !s.is_tombstoned(r)),
                    None => id.checked_sub(self.head_base).filter(|&r| r < arena.rows()),
                }))
            });
            if mask.as_ref().is_some_and(RowMask::is_empty) {
                continue;
            }
            let rows = match (&mask, seg) {
                (Some(mask), _) => RowFilter::Only(mask.words()),
                (None, Some(s)) if s.revoked.load(Ordering::SeqCst) > 0 => {
                    RowFilter::Except(&s.tombstones)
                }
                _ => RowFilter::All,
            };
            let refs: Vec<&[i64]> = open.iter().map(|&p| probes[p]).collect();
            for (k, row) in arena.sweep(&refs, rows, budget - found) {
                let hits = &mut out[open[k]];
                if hits.len() < budget {
                    hits.push(seg.map_or(self.head_base + row, |s| s.ids.id_of(row)));
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
/// observes some published snapshot that is at least as fresh as the
/// last write completed before the call.
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
    /// The mutable head; rows here are ids `staging_base..`.
    staging: SketchArena,
    staging_base: RecordId,
    /// Stamped by the first insert (or `reserve`); enforced here, not
    /// only by the arenas, because each freeze starts an unstamped
    /// staging arena that would otherwise accept a new dimension.
    dim: Option<usize>,
    generation: u64,
    /// Bulk-load mode: publishes suppressed until `flush`.
    bulk: bool,
    cell: Arc<ArcCell<Snapshot>>,
}

impl fmt::Debug for EpochIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochIndex")
            .field("t", &self.t)
            .field("ka", &self.ka)
            .field("segments", &self.segments.len())
            .field("staging_rows", &self.staging.rows())
            .field("staging_base", &self.staging_base)
            .field("generation", &self.generation)
            .field("live", &self.len())
            .finish()
    }
}

impl Clone for EpochIndex {
    /// Clones the *contents* into an independent index with its own
    /// publication cell: readers of the original never observe the
    /// clone's writes. Frozen segments are shared (`Arc`) until the
    /// clone merges or compacts them away.
    fn clone(&self) -> EpochIndex {
        EpochIndex {
            t: self.t,
            ka: self.ka,
            filter: self.filter,
            staging_cap: self.staging_cap,
            merge_runs: self.merge_runs,
            seal_rows: self.seal_rows,
            segments: self.segments.clone(),
            staging: self.staging.clone(),
            staging_base: self.staging_base,
            dim: self.dim,
            generation: self.generation,
            bulk: self.bulk,
            cell: Arc::new(ArcCell::new(Arc::new(Snapshot {
                segments: self.segments.clone(),
                head: Arc::new(self.staging.clone()),
                head_base: self.staging_base,
                generation: self.generation,
            }))),
        }
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
        let staging = SketchArena::with_filter(t, ka, filter);
        let cell = Arc::new(ArcCell::new(Arc::new(Snapshot {
            segments: Vec::new(),
            head: Arc::new(staging.clone()),
            head_base: 0,
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
            staging,
            staging_base: 0,
            dim: None,
            generation: 0,
            bulk: false,
            cell,
        }
    }

    /// The frozen segments (diagnostics, benches, checkpoint export).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Rows currently in the mutable head.
    pub fn staging_rows(&self) -> usize {
        self.staging.rows()
    }

    fn view(&self) -> View<'_> {
        View {
            segments: &self.segments,
            head: &self.staging,
            head_base: self.staging_base,
        }
    }

    /// Publishes the current writer state as a fresh snapshot.
    fn publish(&mut self) {
        self.cell.store(Arc::new(Snapshot {
            segments: self.segments.clone(),
            head: Arc::new(self.staging.clone()),
            head_base: self.staging_base,
            generation: self.generation,
        }));
    }

    /// Freezes the staging arena into a run segment (no publish).
    fn freeze(&mut self) {
        let rows = self.staging.rows();
        if rows == 0 {
            return;
        }
        let mut fresh = SketchArena::with_filter(self.t, self.ka, self.filter);
        if let Some(dim) = self.dim {
            fresh.reserve(self.staging_cap, dim);
        }
        let arena = std::mem::replace(&mut self.staging, fresh);
        let sealed = rows >= self.seal_rows;
        self.segments.push(Arc::new(Segment::from_arena(
            arena,
            Ids::Dense(self.staging_base),
            sealed,
            SegmentBacking::Anon,
        )));
        self.staging_base += rows;
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
    /// segment. Does not publish; callers do.
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
        let mut scratch = Vec::new();
        for seg in &merged {
            for row in 0..seg.rows() {
                if seg.is_tombstoned(row) || !seg.arena.copy_row_into(row, &mut scratch) {
                    continue;
                }
                arena.push(&scratch);
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
        let sealed = arena.rows() >= self.seal_rows;
        self.segments.insert(
            start,
            Arc::new(Segment::from_arena(
                arena,
                ids,
                sealed,
                SegmentBacking::Anon,
            )),
        );
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
            let revoked = seg.revoked.load(Ordering::SeqCst);
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
        if rewritten > 0 && !self.bulk {
            self.publish();
        }
        rewritten
    }

    fn segment_of(&self, id: RecordId) -> Option<(usize, usize)> {
        let i = self
            .segments
            .partition_point(|s| s.ids.end_id(s.rows()) <= id);
        let seg = self.segments.get(i)?;
        seg.ids.row_of(id, seg.rows()).map(|row| (i, row))
    }
}

impl SketchIndex for EpochIndex {
    fn insert(&mut self, sketch: &[i64]) -> RecordId {
        let dim = *self.dim.get_or_insert(sketch.len());
        assert_eq!(
            sketch.len(),
            dim,
            "sketch dimension {} does not match the index's stamped dimension {dim}",
            sketch.len()
        );
        let row = self.staging.push(sketch);
        let id = self.staging_base + row;
        if self.staging.rows() >= self.staging_cap {
            self.freeze();
            self.maybe_merge();
        }
        if !self.bulk {
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

    fn remove(&mut self, id: RecordId) -> bool {
        if id >= self.staging_base {
            let removed = self.staging.remove(id - self.staging_base);
            if removed && !self.bulk {
                self.publish();
            }
            return removed;
        }
        // Frozen row: the atomic tombstone flip is visible through the
        // already-published Arc<Segment> — no republish needed.
        match self.segment_of(id) {
            Some((i, row)) => self.segments[i].revoke(row),
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.segments.iter().map(|s| s.live()).sum::<usize>() + self.staging.len()
    }

    fn slots(&self) -> usize {
        self.segments.iter().map(|s| s.rows()).sum::<usize>() + self.staging.rows()
    }

    fn dim(&self) -> Option<usize> {
        self.dim
    }

    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool {
        if id >= self.staging_base {
            return self.staging.copy_row_into(id - self.staging_base, out);
        }
        match self.segment_of(id) {
            Some((i, row)) => {
                let seg = &self.segments[i];
                if seg.is_tombstoned(row) {
                    out.clear();
                    false
                } else {
                    seg.arena.copy_row_into(row, out)
                }
            }
            None => {
                out.clear();
                false
            }
        }
    }

    // Merges drop dead rows, so live ids can exceed `slots()`: walk
    // the tiers, not an id range.
    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        let mut scratch = Vec::new();
        for seg in &self.segments {
            for row in 0..seg.rows() {
                if !seg.is_tombstoned(row) && seg.arena.copy_row_into(row, &mut scratch) {
                    f(seg.ids.id_of(row), &scratch);
                }
            }
        }
        let base = self.staging_base;
        self.staging
            .for_each_live(|row, sketch| f(base + row, sketch));
    }

    fn reserve(&mut self, additional: usize, dim: usize) {
        let stamped = *self.dim.get_or_insert(dim);
        assert_eq!(dim, stamped, "reserve dimension must match the stamp");
        self.staging.reserve(additional.min(self.staging_cap), dim);
        if additional >= BULK_RESERVE_THRESHOLD {
            // Bulk load: suppress per-insert publishes until `flush`
            // (recovery calls it; readers created mid-load would see a
            // stale but consistent snapshot, which recovery never does).
            self.bulk = true;
        }
    }

    fn heap_bytes(&self) -> usize {
        let mut bytes = self.staging.heap_bytes()
            + self.segments.capacity() * std::mem::size_of::<Arc<Segment>>();
        for seg in &self.segments {
            bytes += seg.heap_bytes();
        }
        // The published snapshot duplicates the head clone and segment
        // list; superseded snapshots awaiting epoch reclamation cost
        // about the same each (their heads were ≤ one staging_cap of
        // the current one), so estimate the garbage list at the live
        // snapshot's footprint per retiree.
        let snap = self.cell.load();
        let snap_bytes = snap.heap_bytes();
        bytes + snap_bytes + self.cell.retired_len() * snap_bytes
    }

    fn clear(&mut self) {
        self.segments.clear();
        self.staging.clear();
        self.staging_base = 0;
        self.generation += 1;
        self.bulk = false;
        self.publish();
    }

    fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        let live = self.live_records();
        self.segments.clear();
        self.staging.clear();
        self.staging_base = 0;
        let was_bulk = self.bulk;
        self.bulk = true;
        let mut mapping = Vec::with_capacity(live.len());
        for (old_id, sketch) in &live {
            let new_id = self.insert(sketch);
            mapping.push((*old_id, new_id));
        }
        self.bulk = was_bulk;
        self.generation += 1;
        if !self.bulk {
            self.publish();
        }
        mapping
    }

    fn flush(&mut self) {
        self.bulk = false;
        self.publish();
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
        for &w in live_words {
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
    let count = r.u32()? as usize;
    let mut segments = Vec::with_capacity(count);
    let mut base = 0usize;
    for _ in 0..count {
        let rows = r.u64()? as usize;
        let cell_len = r.u64()? as usize;
        let cells = r.take(cell_len)?;
        let words = r.u32()? as usize;
        let mut live = Vec::with_capacity(words);
        for _ in 0..words {
            live.push(r.u64()?);
        }
        let arena =
            SketchArena::from_parts(index.t, index.ka, index.filter, dim, rows, cells, live)?;
        // The export contract is a fully-live prefix; reject anything
        // else rather than silently resurrecting or dropping rows.
        if arena.len() != rows || rows == 0 {
            return None;
        }
        segments.push(Arc::new(Segment::from_arena(
            arena,
            Ids::Dense(base),
            true,
            SegmentBacking::Anon,
        )));
        base += rows;
    }
    if !r.buf.is_empty() || segments.is_empty() {
        return None;
    }
    index.segments = segments;
    index.staging_base = base;
    index.dim = Some(dim);
    if !index.bulk {
        index.publish();
    }
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // First insert froze immediately (cap 1), so the staging arena
        // is fresh and unstamped — the index-level stamp must still
        // reject a different dimension.
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
        for seg in index.segments() {
            assert_eq!(*seg.backing(), SegmentBacking::Anon);
        }
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

    #[test]
    fn bulk_reserve_defers_publish_until_flush() {
        let mut index = tiny(10, 64);
        index.reserve(BULK_RESERVE_THRESHOLD, 2);
        let reader = index.reader();
        let id = index.insert(&[9, 9]);
        assert_eq!(
            reader.find_first(&[9, 9]),
            None,
            "bulk mode must not publish per insert"
        );
        assert_eq!(index.lookup(&[9, 9]), Some(id), "writer view stays fresh");
        index.flush();
        assert_eq!(reader.find_first(&[9, 9]), Some(id));
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
