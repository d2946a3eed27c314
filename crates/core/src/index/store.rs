//! The columnar sketch storage engine behind every index.
//!
//! # Why not `Vec<Option<Vec<i64>>>`
//!
//! The paper's identification cost is dominated by the per-record integer
//! scan over conditions (1)–(4). Row-of-pointers storage fights the
//! hardware three ways: one heap allocation and one pointer chase per record, 8 bytes
//! per coordinate when the ring (`ka = 400` at the paper's parameters)
//! fits in 9 bits, and a cloned copy of every sketch on each snapshot
//! or compaction pass. [`SketchArena`] fixes all three:
//!
//! * **One contiguous buffer.** All sketches live in a single
//!   dimension-stamped column buffer (row-major, one stride), so the
//!   early-abort scan walks memory linearly and the prefetcher wins.
//! * **Ring-adaptive rows.** Every stored coordinate is a residue mod
//!   `ka`, so a row is **packed** in `max(8, ⌈log₂ ka⌉)` bits a
//!   coordinate on every ring — the paper's `log₂(ka + 1)` bits
//!   (Theorem 3) rounded up, 72 bytes at the paper's `64 × ka = 400`
//!   instead of 512, of which the prefilter plane holds the 2 cell
//!   bits of each coordinate (16 B) and the row column the 7 offset
//!   bits (56 B); 160 bytes at `ka = 2²⁰` (`cells`: the row).
//! * **Tombstone bitmap.** Liveness is one bit per row (not an `Option`
//!   discriminant per record), removal is one atomic bit flip — O(1),
//!   and safe under a sweep that is reading the row — and
//!   [`SketchIndex::compact`] reclaims dead rows by re-appending the
//!   live ones, in id order, to a fresh arena.
//! * **Append under readers.** Column bytes and plane words live in
//!   fixed-capacity `Column`s (`shared`): one writer appends a row —
//!   its column bytes, and its cell bits into the plane's open block —
//!   and then release-stores the row count, a sweep
//!   acquire-loads the count once and reads nothing at or past it — so an
//!   [`EpochIndex`](super::EpochIndex) shares its head with lock-free
//!   readers instead of copying it (DESIGN.md "Publication
//!   invariant").
//! * **Borrowing reads.** A row is decoded into a caller's scratch
//!   buffer ([`SketchIndex::copy_row_into`], which a snapshot calls
//!   row by row from its record table, and
//!   [`SketchIndex::for_each_live`] over the whole arena), so nothing
//!   clones the population; compaction moves stored bytes
//!   (`Row::Stored`) without decoding them at all.
//!
//! The per-coordinate test itself lives here too, as one row kernel
//! (`Packed::row_matches`): both sides reduced into the ring make the
//! cyclic-distance check `min(d, ka − d) ≤ t` with no `%`, which is
//! exactly the [`crate::conditions::cyclic_close`] predicate — checked
//! exhaustively beside the kernel and property-tested in
//! `tests/properties.rs`.
//!
//! # The two-phase scan
//!
//! The arena additionally keeps a **prefilter plane**: each of the first
//! `D = min(dim, 64)` coordinates of a row is split into a cell of
//! `b` bits and an offset (`b = 2` at the paper ring, four cells of 100
//! residues), and the plane holds the cells bit-sliced, 512 rows a
//! block (`plane`). A probe coordinate rules out every cell that lies
//! wholly outside its arc — one in four at the paper ring — so phase 1
//! turns away three quarters of the rows a coordinate, 64 rows a word,
//! in one safe word loop, and phase 2 checks a survivor's exact cyclic
//! distance from its cells and offsets. The plane is not a copy: the
//! cells live there and nowhere else, and a row is `⌈dim · B / 8⌉`
//! bytes with or without it. Rings so loose that no cell could ever be
//! ruled out have no plane, keep whole residues in their rows and go
//! straight to phase 2.
//!
//! # One sweep, one row writer, five files
//!
//! Every lookup — lowest id, all matches, a bounded count, a row
//! subset, a batch of probes — is one driver with three inputs
//! (`SketchArena::sweep(probes, only, budget)` in `sweep`); the arena's
//! [`SketchIndex::find`] and [`SketchIndex::find_first_batch`] only
//! choose them. Every row — a pushed sketch, a row a compaction
//! carries over — enters through `SketchArena::append`. This
//! file holds the arena and its configuration; `cells` the column
//! buffer, its one row layout and the scalar match kernel,
//! `plane` the prefilter plane, its cell rule and the phase-1 loop,
//! `kernels` the AVX-512 enroll loops, `shared` the append-under-readers
//! buffer.

mod cells;
pub(crate) mod kernels;
mod plane;
mod shared;
mod sweep;

pub use cells::{canonical, canonical_range, CellWidth};
pub(crate) use sweep::RowMask;
pub use sweep::{sweep_counts, SweepCounts};

use super::{RecordId, SketchIndex};
use cells::Cells;
use plane::{cell_bits, FilterPlane};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Rows per sweep tile: what an [`EpochIndex`](super::EpochIndex) sizes
/// its default head in.
pub(crate) const TILE_ROWS: usize = sweep::TILE_WORDS * 64;

/// The most coordinates a prefilter plane holds.
const PLANE_DIMS: usize = 64;

/// Whether, and how deep, a [`SketchArena`] builds its prefilter plane
/// for the conditions (1)–(4) scan.
///
/// The plane keeps the cell bits of a row's leading coordinates,
/// bit-sliced 512 rows a block, so phase 1 rules out rows 64 a word
/// before phase 2 checks the survivors' exact distances (module docs).
/// It exists on every ring on which some cell can lie wholly outside a
/// probe's arc; every other ring uses the scalar kernel, whatever this
/// config says.
///
/// It never changes match results (property-tested in
/// `tests/properties.rs`) and is excluded from durable-storage
/// fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterConfig {
    /// How many leading coordinates the plane keeps (see
    /// [`PlaneDepth`]), clamped to the sketch dimension and to 64.
    pub depth: PlaneDepth,
}

/// Prefilter plane depth: how many leading coordinates keep their cells
/// in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneDepth {
    /// At most this many — `D = min(d, dim, 64)`; `Fixed(0)` disables
    /// the prefilter. The default is `Fixed(64)`: every coordinate of a
    /// paper-shape sketch, whose every cell test turns away a quarter of
    /// the rows.
    Fixed(usize),
}

impl Default for PlaneDepth {
    fn default() -> PlaneDepth {
        PlaneDepth::Fixed(PLANE_DIMS)
    }
}

impl FilterConfig {
    /// A disabled prefilter: every lookup takes the scalar early-abort
    /// kernel, as before the plane existed.
    pub fn disabled() -> FilterConfig {
        FilterConfig::default().with_depth(PlaneDepth::Fixed(0))
    }

    /// The default plane, under the name the portable word loop had
    /// when a SIMD kernel could be chosen instead: the one phase-1 loop
    /// is portable on every target.
    pub fn swar() -> FilterConfig {
        FilterConfig::default()
    }

    /// Replaces the plane depth.
    #[must_use]
    pub fn with_depth(mut self, depth: PlaneDepth) -> FilterConfig {
        self.depth = depth;
        self
    }
}

/// Contiguous, width-adaptive columnar storage for sketches — the
/// storage engine under every index: the head and the sealed segments
/// of an [`EpochIndex`](super::EpochIndex) are one arena each, and a
/// [`ScanIndex`](super::ScanIndex) is an arena.
///
/// Every lookup is one sweep (`SketchArena::sweep`): `n ≥ 1` probes
/// over the live rows an optional row subset lets through, keeping
/// the `budget` lowest matches per probe. The arena's
/// [`SketchIndex::find`] (one probe, any subset and budget) and
/// [`SketchIndex::find_first_batch`] (many probes, budget 1) only choose
/// those three inputs.
///
/// Rows are assigned densely in insertion order and never renumbered;
/// [`SketchIndex::remove`] flips a tombstone bit, and
/// [`SketchIndex::compact`] copies the live rows to a fresh arena,
/// returning the renumbering. The arena's dimension is stamped by the
/// first [`SketchArena::push`]; pushing a different dimension panics,
/// and probes of a different dimension match nothing.
///
/// ```rust
/// use fe_core::index::store::{CellWidth, SketchArena};
/// use fe_core::SketchIndex;
///
/// let mut arena = SketchArena::new(100, 400); // t, ka
/// assert_eq!(arena.width(), CellWidth::Packed); // chosen from ka
/// let a = arena.push(&[10, -20, 30]);
/// let b = arena.push(&[180, 180, -180]);
/// assert_eq!(arena.find_first(&[15, -25, 35]), Some(a));
/// assert_eq!(arena.find_first(&[185, 175, -185]), Some(b));
/// assert!(arena.remove(a));
/// assert_eq!(arena.find_first(&[15, -25, 35]), None);
/// assert_eq!(arena.compact(), vec![(b, 0)]);
/// assert_eq!(arena.row(0), Some(vec![180, 180, -180]));
/// ```
#[derive(Debug)]
pub struct SketchArena {
    t: u64,
    ka: u64,
    /// Stamped by the first push (`None` while empty-and-unstamped).
    dim: Option<usize>,
    cells: Cells,
    /// Rows `append` has room for before `&mut self` must grow.
    capacity: usize,
    /// The publication counter: rows `..rows` are complete — column
    /// bytes written and cell bits stored in the plane.
    /// `Release`-stored by `append` after those writes, `Acquire`-loaded
    /// once per sweep.
    rows: AtomicUsize,
    /// Tombstones, one bit per row (1 = removed), flipped atomically so
    /// a sweep reading the word sees the row or its absence.
    dead: Vec<AtomicU64>,
    dead_rows: AtomicUsize,
    /// The prefilter knob (applied lazily: the plane itself — part of
    /// `cells` — exists only once the dimension is stamped, and only on
    /// rings that get one).
    filter: FilterConfig,
}

/// What [`SketchArena::append`] copies a row from.
#[derive(Clone, Copy)]
pub(crate) enum Row<'a> {
    /// A caller's sketch: reduced into the ring and packed on the way
    /// in.
    Sketch(&'a [i64]),
    /// This row of another arena over the same ring and dimension: its
    /// bytes are packed already, so they are copied verbatim.
    Stored(&'a SketchArena, RecordId),
}

impl SketchArena {
    /// Creates an empty arena for sketches over a ring of circumference
    /// `ka` with threshold `t`, with the default prefilter
    /// configuration (see [`SketchArena::with_filter`]). The row layout
    /// is fixed here, from `ka`.
    pub fn new(t: u64, ka: u64) -> SketchArena {
        SketchArena::with_filter(t, ka, FilterConfig::default())
    }

    /// Creates an empty arena with an explicit prefilter configuration.
    /// The plane only materializes on rings where some cell can lie
    /// wholly outside a probe's arc; every other ring ignores
    /// `filter`'s depth and always scans with the scalar kernel.
    pub fn with_filter(t: u64, ka: u64, filter: FilterConfig) -> SketchArena {
        assert!(ka >= 1, "ring circumference must be at least 1");
        SketchArena {
            t,
            ka,
            dim: None,
            cells: Cells::new(t, ka),
            capacity: 0,
            rows: AtomicUsize::new(0),
            dead: Vec::new(),
            dead_rows: AtomicUsize::new(0),
            filter,
        }
    }

    /// An empty, unstamped arena over the same ring and prefilter: the
    /// fresh arena [`SketchIndex::compact`] copies the live rows into,
    /// and every head an [`EpochIndex`](super::EpochIndex) starts after
    /// its first.
    pub(crate) fn empty_like(&self) -> SketchArena {
        SketchArena::with_filter(self.t, self.ka, self.filter)
    }

    /// The stamped dimension, stamping `dim` (and building the plane)
    /// when this is the first row or reservation.
    fn stamp(&mut self, dim: usize) -> usize {
        if self.dim.is_none() {
            self.dim = Some(dim);
            self.stamp_plane();
        }
        self.dim.unwrap_or(dim)
    }

    /// Makes room for `capacity` rows in total. The buffers move, which
    /// is why growth needs `&mut self` and `append` does not do it.
    fn grow(&mut self, capacity: usize) {
        if capacity <= self.capacity {
            return;
        }
        self.capacity = capacity;
        self.cells.grow(capacity, self.dim.unwrap_or(0));
        self.dead
            .resize_with(capacity.div_ceil(64), || AtomicU64::new(0));
    }

    /// Builds the plane when the freshly stamped dimension and the ring
    /// allow one. Called exactly once, at stamp time, before any row.
    fn stamp_plane(&mut self) {
        debug_assert!(self.cells.plane().is_none());
        let PlaneDepth::Fixed(depth) = self.filter.depth;
        let dims = depth.min(PLANE_DIMS).min(self.dim.unwrap_or(0));
        if dims > 0 && cell_bits(self.t, self.ka) > 0 {
            self.cells
                .set_plane(FilterPlane::new(dims, self.t, self.ka));
        }
    }

    /// The phase-1 kernel a scan would use right now: `"scalar"` (no
    /// plane — too loose a ring, disabled filter, or nothing stamped)
    /// or `"bitsliced"`, the one word loop. Benches use this to
    /// label runs.
    pub fn filter_kernel(&self) -> &'static str {
        match self.cells.plane() {
            Some(_) => "bitsliced",
            None => "scalar",
        }
    }

    /// The number of coordinates the prefilter plane holds (0 when
    /// inactive).
    pub fn plane_dims(&self) -> usize {
        self.cells.plane().map_or(0, FilterPlane::dims)
    }

    /// The cell bits a coordinate keeps in the live plane — `"b1"` to
    /// `"b8"` (`"b2"` at the paper ring), or `"none"` when no plane
    /// exists. Benches use this to label runs, like
    /// [`SketchArena::filter_kernel`].
    pub fn plane_width(&self) -> &'static str {
        const WIDTHS: [&str; 9] = ["none", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8"];
        WIDTHS[self.cells.plane().map_or(0, FilterPlane::bits)]
    }

    /// The match threshold `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// The ring circumference `ka`.
    pub fn ka(&self) -> u64 {
        self.ka
    }

    /// The class of the ring `ka` (every class stores the same packed
    /// row).
    pub fn width(&self) -> CellWidth {
        CellWidth::for_ring(self.ka)
    }

    /// Total rows, live and tombstoned.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Acquire)
    }

    /// Bytes the rows held occupy: each row once — its column bytes
    /// and the cell bits the plane holds of it — and their tombstone
    /// words. Equal to [`SketchIndex::heap_bytes`] on a full arena (to
    /// within the open block's words past its last row); on
    /// one reserved ahead of its rows — an
    /// [`EpochIndex`](super::EpochIndex) head — it leaves out the
    /// reservation nothing has been written to, which the process holds
    /// as address space, not as memory.
    pub(crate) fn used_bytes(&self) -> usize {
        let rows = self.rows();
        rows * CellWidth::row_bytes(self.ka, self.dim.unwrap_or(0)) + rows.div_ceil(64) * 8
    }

    /// Has `append` run out of reserved rows?
    pub(crate) fn is_full(&self) -> bool {
        self.rows() == self.capacity
    }

    /// Appends a sketch, returning its row id (dense, insertion order).
    ///
    /// Coordinates are stored as canonical ring representatives —
    /// indistinguishable from the originals under conditions (1)–(4).
    ///
    /// # Panics
    /// Panics if `sketch`'s dimension differs from the stamped one.
    pub fn push(&mut self, sketch: &[i64]) -> RecordId {
        self.stamp(sketch.len());
        if self.rows() == self.capacity {
            self.grow((2 * self.capacity).max(64));
        }
        self.append(Row::Sketch(sketch))
    }

    /// The one routine that writes a row — through `&self`, so the
    /// owner of an arena that lock-free sweeps are reading can keep
    /// appending to it: the column bytes land past the published row
    /// count, the cell bits in the plane's open block (which the
    /// block's first row published), and only then does the `Release`
    /// store of `rows` let a sweep (which `Acquire`-loads it once)
    /// reach any of it.
    ///
    /// One caller at a time: `&mut self` callers ([`SketchArena::push`])
    /// are that by construction, an [`EpochIndex`](super::EpochIndex)
    /// appends to its head under its own `&mut self`, and the columns
    /// refuse — by panicking — a second concurrent writer.
    ///
    /// # Panics
    /// Panics if the arena is unstamped or full (see
    /// [`SketchIndex::reserve`]), or on a dimension mismatch.
    pub(crate) fn append(&self, src: Row<'_>) -> RecordId {
        let dim = self.dim.expect("append needs a stamped, reserved arena");
        let row = self.rows.load(Ordering::Relaxed);
        assert!(row < self.capacity, "arena capacity exceeded");
        match src {
            Row::Sketch(sketch) => {
                assert_eq!(
                    sketch.len(),
                    dim,
                    "sketch dimension {} does not match the arena's stamped dimension {dim}",
                    sketch.len()
                );
                self.cells.append_sketch(row, sketch);
            }
            Row::Stored(from, r) => {
                assert_eq!((from.ka, from.dim), (self.ka, self.dim), "foreign row");
                self.cells.append_stored(row, &from.cells, r, dim);
            }
        }
        self.rows.store(row + 1, Ordering::Release);
        row
    }

    /// Is this row live (assigned and not tombstoned)?
    pub fn is_live(&self, id: RecordId) -> bool {
        id < self.rows() && self.dead[id / 64].load(Ordering::SeqCst) & (1 << (id % 64)) == 0
    }

    /// [`SketchIndex::remove`] through `&self`: the flip is atomic, so
    /// a sweep in flight observes either the row or its absence — never
    /// a torn word. One caller at a time, like `append`.
    pub(crate) fn revoke(&self, id: RecordId) -> bool {
        let bit = 1u64 << (id % 64);
        if id >= self.rows() || self.dead[id / 64].fetch_or(bit, Ordering::SeqCst) & bit != 0 {
            return false;
        }
        self.dead_rows.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Materializes a live row as an owned `Vec<i64>` (`None` for dead
    /// or unknown ids). Prefer [`SketchIndex::copy_row_into`] /
    /// [`SketchIndex::for_each_live`] on hot paths.
    pub fn row(&self, id: RecordId) -> Option<Vec<i64>> {
        let mut out = Vec::new();
        self.copy_row_into(id, &mut out).then_some(out)
    }

    /// The liveness word of rows `64·w ..` among the first `rows`: one
    /// bit per row that exists and is not tombstoned.
    fn live_word(&self, w: usize, rows: usize) -> u64 {
        let exist = match rows - w * 64 {
            n @ 0..64 => (1u64 << n) - 1,
            _ => !0,
        };
        exist & !self.dead[w].load(Ordering::SeqCst)
    }
}

/// The arena is the reference index ([`ScanIndex`](super::ScanIndex)):
/// its two lookups pick a point of the one sweep.
impl SketchIndex for SketchArena {
    fn insert(&mut self, sketch: &[i64]) -> RecordId {
        self.push(sketch)
    }

    fn find(&self, probe: &[i64], subset: Option<&[RecordId]>, budget: usize) -> Vec<RecordId> {
        // Unknown ids never match; kept out so the mask is sized by the
        // arena, not by the largest id a caller names.
        let rows = self.rows();
        let only =
            subset.map(|ids| RowMask::from_rows(ids.iter().copied().filter(|&id| id < rows)));
        let hits = self.sweep(&[probe], only.as_ref(), budget);
        hits.into_iter().map(|(_, row)| row).collect()
    }

    // One pass over the rows serves the whole batch: each tile's plane
    // blocks are walked for every probe while they are hot in L1.
    fn find_first_batch(&self, probes: &[impl AsRef<[i64]>]) -> Vec<Option<RecordId>> {
        let refs: Vec<&[i64]> = probes.iter().map(AsRef::as_ref).collect();
        let mut firsts = vec![None; probes.len()];
        for (p, row) in self.sweep(&refs, None, 1) {
            firsts[p] = Some(row);
        }
        firsts
    }

    // O(1): one bitmap bit flips; the cells stay until `compact`.
    fn remove(&mut self, id: RecordId) -> bool {
        self.revoke(id)
    }

    fn len(&self) -> usize {
        // Tombstones first: a row is counted before it can be removed,
        // so this order never subtracts a removal from a count that
        // does not hold its row yet.
        let dead = self.dead_rows.load(Ordering::SeqCst);
        self.rows() - dead
    }

    fn slots(&self) -> usize {
        self.rows()
    }

    fn dim(&self) -> Option<usize> {
        self.dim
    }

    // Unpacks each coordinate to `i64` (a canonical representative).
    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool {
        out.clear();
        if !self.is_live(id) {
            return false;
        }
        let dim = self.dim.expect("live rows imply a stamped dimension");
        self.cells.decode_into(id, dim, out);
        true
    }

    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        let mut scratch = Vec::new();
        for id in 0..self.rows() {
            if self.copy_row_into(id, &mut scratch) {
                f(id, &scratch);
            }
        }
    }

    // Sizes the column buffer, the tombstone words **and** the plane
    // blocks, so a pre-sized load reallocates nothing. Panics if the
    // arena is stamped with another dimension.
    fn reserve(&mut self, additional: usize, dim: usize) {
        let stamped = self.stamp(dim);
        assert_eq!(dim, stamped, "reserve dimension must match the stamp");
        self.grow(self.rows() + additional);
    }

    // Capacities, not lengths: what the allocator has handed out.
    fn heap_bytes(&self) -> usize {
        self.cells.capacity_bytes() + self.dead.capacity() * 8
    }

    // The live rows, in id order, appended through `Row::Stored` to a
    // fresh arena over the same ring, dimension and prefilter, sized for
    // exactly them — the move `EpochIndex::compact` makes into a fresh
    // index.
    fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        let mut fresh = self.empty_like();
        if let Some(dim) = self.dim {
            fresh.reserve(self.len(), dim);
        }
        let mapping = (0..self.rows())
            .filter(|&id| self.is_live(id))
            .map(|id| (id, fresh.append(Row::Stored(self, id))))
            .collect();
        *self = fresh;
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::cells::{canonical, canonical_range};
    use super::*;

    #[test]
    fn push_remove_compact_roundtrip() {
        let mut arena = SketchArena::new(100, 400);
        for i in 0..130i64 {
            assert_eq!(arena.push(&[i, -i, 2 * i]), i as usize);
        }
        assert_eq!((arena.len(), arena.rows()), (130, 130));
        for id in (0..130).step_by(3) {
            assert!(arena.remove(id));
            assert!(!arena.remove(id), "double remove");
        }
        assert_eq!(arena.len(), 130 - 44);
        let mapping = arena.compact();
        assert_eq!(mapping.len(), 86);
        assert_eq!((arena.len(), arena.rows()), (86, 86));
        // Survivors keep their data (in canonical ring form) under new
        // dense ids.
        for &(old, new) in &mapping {
            let old = old as i64;
            let expect: Vec<i64> = [old, -old, 2 * old]
                .iter()
                .map(|&v| canonical(v, 400))
                .collect();
            assert_eq!(arena.row(new), Some(expect));
        }
        // A compacted arena accepts fresh rows at the next dense id.
        assert_eq!(arena.push(&[1, 2, 3]), 86);
    }

    #[test]
    fn compact_without_tombstones_is_identity() {
        let mut arena = SketchArena::new(10, 400);
        arena.push(&[1, 2]);
        arena.push(&[3, 4]);
        assert_eq!(arena.compact(), vec![(0, 0), (1, 1)]);
        assert_eq!(arena.row(1), Some(vec![3, 4]));
    }

    #[test]
    fn probe_dimension_mismatch_matches_nothing() {
        let mut arena = SketchArena::new(100, 400);
        arena.push(&[1, 2, 3]);
        assert_eq!(arena.find_first(&[1, 2]), None);
        assert_eq!(
            arena.find(&[1, 2, 3, 4], None, usize::MAX),
            Vec::<RecordId>::new()
        );
    }

    #[test]
    #[should_panic(expected = "stamped dimension")]
    fn insert_dimension_mismatch_panics() {
        let mut arena = SketchArena::new(100, 400);
        arena.push(&[1, 2, 3]);
        arena.push(&[1, 2]);
    }

    #[test]
    fn out_of_range_coordinates_match_cyclically() {
        // 300 ≡ −100 (mod 400); the arena stores the canonical form and
        // conditions (1)–(4) cannot tell the difference.
        let mut arena = SketchArena::new(100, 400);
        let id = arena.push(&[300, 20]);
        assert_eq!(arena.find_first(&[-100, 20]), Some(id));
        assert_eq!(arena.find_first(&[300 + 400, 20 - 400]), Some(id));
        assert_eq!(arena.row(id), Some(vec![-100, 20]));
    }

    #[test]
    fn huge_ring_kernel_does_not_overflow() {
        // ka > 2⁶³: canonical values span nearly the whole i64 range, so
        // the kernel's subtraction must widen (regression: i64 overflow).
        let ka = u64::MAX;
        let mut arena = SketchArena::new(1 << 40, ka);
        let (lo, hi) = canonical_range(ka);
        let a = arena.push(&[hi, lo]);
        // Distance from (hi, lo) to (lo, hi) is 1 step around the ring
        // in each coordinate — within t.
        assert_eq!(arena.find_first(&[lo, hi]), Some(a));
        // The antipode is ~ka/2 away — far outside t.
        assert_eq!(arena.find_first(&[0, 0]), None);
    }

    #[test]
    fn wide_rings_round_trip_their_packed_rows() {
        for ka in [1u64 << 20, 1 << 40, u64::MAX] {
            let half = (ka / 2) as i64;
            let mut arena = SketchArena::new(1000, ka);
            let a = arena.push(&[half - 5, -half + 5]);
            assert_eq!(arena.find_first(&[half - 900, -half + 900]), Some(a));
            assert_eq!(arena.find_first(&[0, 0]), None);
            assert_eq!(arena.row(a), Some(vec![half - 5, -half + 5]));
        }
    }

    #[test]
    fn heap_bytes_tracks_width() {
        // Filter disabled so the figure isolates the row: 64 rows of 64
        // coordinates and their one tombstone word. Every ring packs
        // `max(8, ⌈log₂ ka⌉)` bits a coordinate: the paper ring 9, a
        // byte-sized ring 8, the wide rings 20, 40 and 64.
        let cell_bytes_per_row = |ka: u64| {
            let mut arena = SketchArena::with_filter(100, ka, FilterConfig::disabled());
            arena.reserve(64, 64);
            for i in 0..64i64 {
                arena.push(&[i; 64]);
            }
            // A full arena holds what it uses, and a few spare
            // tombstone words.
            let spare = arena.heap_bytes() - arena.used_bytes();
            assert!(spare < 64, "{spare} B unaccounted on a full arena");
            (arena.used_bytes() - 8) / 64
        };
        assert_eq!(cell_bytes_per_row(400), 72);
        assert_eq!(cell_bytes_per_row(256), 64);
        assert_eq!(cell_bytes_per_row((1 << 15) - 1), 64 + 56);
        assert_eq!(cell_bytes_per_row(1 << 20), 160);
        assert_eq!(cell_bytes_per_row(1 << 40), 320);
        assert_eq!(cell_bytes_per_row(u64::MAX), 512);
        // The prefilter plane holds the 2 cell bits of each of a row's
        // 64 coordinates and the row column the 7 offset bits: an
        // identical filtered arena holds each sketch once, in exactly
        // the bytes a scalar one does.
        let mut filtered = SketchArena::new(100, 400);
        filtered.reserve(64, 64);
        for i in 0..64i64 {
            filtered.push(&[i; 64]);
        }
        assert_eq!(filtered.plane_width(), "b2");
        assert_eq!(
            (filtered.plane_dims(), filtered.cells.packed().row_bytes(64)),
            (64, 56)
        );
        assert_eq!(filtered.used_bytes(), 64 * 72 + 8);
        assert!(filtered.heap_bytes() >= filtered.used_bytes());
    }

    #[test]
    fn for_each_live_streams_in_order() {
        let mut arena = SketchArena::new(100, 400);
        for i in 0..9i64 {
            arena.push(&[i, i]);
        }
        arena.remove(4);
        let mut seen = Vec::new();
        arena.for_each_live(&mut |id, row| seen.push((id, row.to_vec())));
        assert_eq!(seen.len(), 8);
        assert_eq!(seen[4], (5, vec![5, 5]));
    }

    /// Drives a filtered arena and a scalar (filter-disabled) arena
    /// through the same random population and probes, comparing every
    /// lookup entry point.
    fn check_filtered_matches_scalar(filter: FilterConfig, t: u64, ka: u64, dim: usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF1C7 ^ t ^ ka ^ dim as u64);
        let mut filtered = SketchArena::with_filter(t, ka, filter);
        let mut scalar = SketchArena::with_filter(t, ka, FilterConfig::disabled());
        assert_eq!(scalar.filter_kernel(), "scalar");
        let half = (ka / 2) as i64;
        let span = half.max(1);
        // Two whole blocks, and an open one of a complete group and an
        // open group.
        const ROWS: usize = 1100;
        for _ in 0..ROWS {
            let row: Vec<i64> = (0..dim).map(|_| rng.gen_range(-span..=span)).collect();
            assert_eq!(filtered.push(&row), scalar.push(&row));
        }
        for id in (0..ROWS).step_by(7) {
            assert_eq!(filtered.remove(id), scalar.remove(id));
        }
        // Probes: genuine-ish (near an enrolled row), impostors, and a
        // wrong dimension; exercised through every entry point.
        let mut probes: Vec<Vec<i64>> = Vec::new();
        for base in (0..ROWS).step_by(37) {
            let row = scalar.row(base).or_else(|| scalar.row(base + 1));
            if let Some(row) = row {
                let t_span = t.min(i64::MAX as u64) as i64;
                probes.push(
                    row.iter()
                        .map(|&v| v.saturating_add(rng.gen_range(-t_span..=t_span)))
                        .collect(),
                );
            }
        }
        for _ in 0..20 {
            probes.push((0..dim).map(|_| rng.gen_range(-span..=span)).collect());
        }
        probes.push(vec![0; dim + 1]);
        for probe in &probes {
            assert_eq!(filtered.find_first(probe), scalar.find_first(probe));
            assert_eq!(
                filtered.find(probe, None, usize::MAX),
                scalar.find(probe, None, usize::MAX)
            );
        }
        assert_eq!(
            filtered.find_first_batch(&probes),
            scalar.find_first_batch(&probes)
        );
        // And again after compaction rebuilds the plane.
        assert_eq!(filtered.compact(), scalar.compact());
        for probe in &probes {
            assert_eq!(filtered.find_first(probe), scalar.find_first(probe));
            assert_eq!(
                filtered.find(probe, None, usize::MAX),
                scalar.find(probe, None, usize::MAX)
            );
        }
        assert_eq!(
            filtered.find_first_batch(&probes),
            scalar.find_first_batch(&probes)
        );
    }

    #[test]
    fn prefilter_matches_scalar() {
        // Paper ring; dim > plane (whole residues past it), dim == 64,
        // dim < 64 (clamped plane); a partial chunk of offsets.
        for dim in [130, 64, 32, 8, 3] {
            check_filtered_matches_scalar(FilterConfig::default(), 100, 400, dim);
        }
        // Tiny and odd rings, one step either side of the paper rule.
        check_filtered_matches_scalar(FilterConfig::default(), 1, 7, 5);
        check_filtered_matches_scalar(FilterConfig::default(), 0, 2, 4);
        check_filtered_matches_scalar(FilterConfig::default(), 25, 101, 9);
        check_filtered_matches_scalar(FilterConfig::default(), 101, 400, 12);
        check_filtered_matches_scalar(FilterConfig::default(), 100, 256, 6);
        // The ring `2¹⁵ − 1`, and wide rings: at `t = ka/4`, with a
        // tight threshold, at dimensions past the plane, and past 2⁶³.
        check_filtered_matches_scalar(FilterConfig::default(), 1000, (1 << 15) - 1, 12);
        check_filtered_matches_scalar(FilterConfig::default(), 1 << 18, 1 << 20, 12);
        check_filtered_matches_scalar(FilterConfig::default(), 1000, 1 << 31, 70);
        check_filtered_matches_scalar(FilterConfig::default(), 1 << 38, 1 << 40, 9);
        check_filtered_matches_scalar(FilterConfig::default(), 1 << 62, u64::MAX, 5);
    }

    #[test]
    fn fixed_depth_matches_scalar() {
        for depth in [1, 3, 8, 16, 64] {
            check_filtered_matches_scalar(
                FilterConfig::default().with_depth(PlaneDepth::Fixed(depth)),
                100,
                400,
                70,
            );
        }
    }

    #[test]
    fn threshold_above_half_ring_matches_everything() {
        // t ≥ ka/2 means every row matches; no plane could reject, so
        // none is built, whatever depth is asked for — every config
        // must agree with the scalar kernel.
        check_filtered_matches_scalar(FilterConfig::default(), 399, 400, 6);
        check_filtered_matches_scalar(
            FilterConfig::default().with_depth(PlaneDepth::Fixed(8)),
            399,
            400,
            6,
        );
        check_filtered_matches_scalar(FilterConfig::default(), u64::MAX, 400, 6);
        let mut arena = SketchArena::new(u64::MAX, 400);
        let a = arena.push(&[0, 0]);
        assert_eq!(arena.find_first(&[199, -200]), Some(a));
    }

    #[test]
    fn plane_exists_on_narrow_and_wide_rings() {
        for ka in [400u64, 1 << 20, 1 << 40, u64::MAX] {
            let mut arena = SketchArena::new(100, ka);
            arena.push(&[1; 16]);
            assert_eq!(arena.plane_dims(), 16, "ka = {ka}");
            assert_eq!(arena.filter_kernel(), "bitsliced");
        }
        // Disabled config never builds a plane, even on the paper ring.
        let mut arena = SketchArena::with_filter(100, 400, FilterConfig::disabled());
        arena.push(&[1; 16]);
        assert_eq!(arena.plane_dims(), 0);
    }

    #[test]
    fn reserve_presizes_the_plane() {
        let mut arena = SketchArena::new(100, 400);
        arena.reserve(1500, 16);
        assert_eq!(arena.plane_dims(), 16);
        let sized = arena.heap_bytes();
        for i in 0..1500i64 {
            arena.push(&[i % 200; 16]);
        }
        assert_eq!(
            arena.heap_bytes(),
            sized,
            "a pre-sized load must not reallocate cells, bitmap, or plane"
        );
    }

    #[test]
    fn plane_resolution() {
        let resolved = |t: u64, ka: u64, filter: FilterConfig| {
            let mut arena = SketchArena::with_filter(t, ka, filter);
            arena.push(&[1; 80]);
            (
                arena.plane_width(),
                arena.filter_kernel(),
                arena.plane_dims(),
            )
        };
        // Paper ring, default config: 2 cell bits of 64 coordinates;
        // one step looser, 3.
        assert_eq!(
            resolved(100, 400, FilterConfig::default()),
            ("b2", "bitsliced", 64)
        );
        assert_eq!(
            resolved(101, 400, FilterConfig::default()),
            ("b3", "bitsliced", 64)
        );
        let pinned = FilterConfig::default().with_depth(PlaneDepth::Fixed(3));
        assert_eq!(resolved(100, 400, pinned), ("b2", "bitsliced", 3));
        // Rings where no cell can lie wholly outside an arc: no plane,
        // the scalar kernel — even when a depth is pinned.
        let none = ("none", "scalar", 0);
        assert_eq!(resolved(200, 400, FilterConfig::default()), none);
        assert_eq!(resolved(128, 258, FilterConfig::default()), none);
        assert_eq!(resolved(128, 258, pinned), none);
        // Wide rings by the same rule: a quarter ring's 2 bits, a
        // tight ring's 1, and none where the window an arc leaves is 1.
        assert_eq!(
            resolved(1 << 18, 1 << 20, FilterConfig::default()),
            ("b2", "bitsliced", 64)
        );
        assert_eq!(resolved(100, 1 << 20, pinned), ("b1", "bitsliced", 3));
        assert_eq!(resolved((1 << 19) - 1, 1 << 20, pinned), none);
        let mut arena = SketchArena::new(1 << 18, 1 << 20);
        arena.push(&[1; 64]);
        assert_eq!(arena.plane_width(), "b2");
        // Disabled filter: no plane either.
        assert_eq!(resolved(100, 400, FilterConfig::disabled()), none);
    }

    #[test]
    fn loose_rings_match_scalar() {
        // Rings at and past the no-plane edge, and loose rings that
        // keep a plane of fine cells: results identical.
        for (t, ka) in [
            (128, 258),
            (127, 258),
            (16_320, 32_767),
            (16_200, 32_767),
            (198, 400),
        ] {
            check_filtered_matches_scalar(FilterConfig::default(), t, ka, 6);
        }
    }
}
