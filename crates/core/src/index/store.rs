//! The columnar sketch storage engine behind every index.
//!
//! # Why not `Vec<Option<Vec<i64>>>`
//!
//! The paper's identification cost is dominated by the per-record integer
//! scan over conditions (1)–(4); at scale that scan is *memory-bound*,
//! not compute-bound. Row-of-pointers storage fights the hardware three
//! ways: one heap allocation and one pointer chase per record, 8 bytes
//! per coordinate when the ring (`ka = 400` at the paper's parameters)
//! fits in 9 bits, and a cloned copy of every sketch on each snapshot
//! or compaction pass. [`SketchArena`] fixes all three:
//!
//! * **One contiguous buffer.** All sketches live in a single
//!   dimension-stamped column buffer (row-major, one stride), so the
//!   early-abort scan walks memory linearly and the prefetcher wins.
//! * **Ring-adaptive rows.** Every stored coordinate is a residue mod
//!   `ka`, so the row layout is chosen from `ka` at construction: on a
//!   narrow ring (`ka < 2¹⁵`) a **packed** row of one bucket byte and
//!   `⌈log₂⌈ka/256⌉⌉` remainder bits a coordinate — the paper's
//!   `log₂(ka + 1)` bits (Theorem 3) rounded up, 72 bytes at the
//!   paper's `64 × ka = 400` instead of 512, of which the prefilter
//!   plane holds the first 8 and the row column the other 64 — and
//!   `i32` or `i64` canonical cells on wider ones (`cells`: the layout
//!   and why the bucket bytes lead).
//! * **Tombstone bitmap.** Liveness is one bit per row (not an `Option`
//!   discriminant per record), removal is one atomic bit flip — O(1),
//!   and safe under a sweep that is reading the row — and
//!   [`SketchArena::compact`] reclaims dead rows in place by sliding
//!   live rows down the same buffer.
//! * **Append under readers.** Cells and plane lanes live in
//!   fixed-capacity `Column`s (`shared`): one writer appends a row —
//!   its column bytes, and its leading buckets into the plane's open
//!   group — and then release-stores the row count, a sweep
//!   acquire-loads the count once and reads nothing at or past it — so an
//!   [`EpochIndex`](super::EpochIndex) shares its head with lock-free
//!   readers instead of copying it (DESIGN.md "Publication
//!   invariant").
//! * **Borrowing iteration.** [`SketchArena::for_each_live`] streams
//!   rows through a caller-visible `&[i64]` scratch row, so snapshot and
//!   compaction passes never clone the whole population.
//!
//! The per-coordinate test itself lives here too, as one row kernel
//! per layout (`Layout::row_matches`): both sides reduced into the
//! ring make the cyclic-distance check `min(d, ka − d) ≤ t` with no
//! `%`, which is exactly the [`crate::conditions::cyclic_close`]
//! predicate — checked exhaustively beside the kernels and
//! property-tested in `tests/properties.rs`.
//!
//! # The two-phase vectorized scan
//!
//! On the paper's ring (`ka < 2¹⁵`, packed rows) the arena additionally
//! maintains a **prefilter plane**: the leading `F` (adaptive; 8 at the
//! paper ring) coordinates of every row stored 64 rows a group and
//! *dimension-major* within the group — a 64-byte lane per dimension,
//! eight row values packed per `u64` word as byte buckets
//! (`residue / q`, `q = ⌈ka/256⌉`) — so a
//! conservative cyclic-distance test runs 64 rows at a time under
//! runtime-dispatched AVX-512 (32 under AVX2, 16 under NEON, 8 as
//! packed-lane SWAR). A bucket lane passes ≈ `(2t+1)/ka` ≈ ½ of the
//! ring at paper parameters, so eight filter dimensions reject
//! ~255/256 rows in the vector pass; the sparse survivors get exact
//! verification of the whole row on the row-major buffer (the buckets
//! over-accept, never over-reject). See [`FilterConfig`] for the knobs
//! and `DESIGN.md` for the bucket math. The plane is not a copy: a
//! row's leading `F` bucket bytes live there and nowhere else, and
//! phase 2 reads them back from the lanes phase 1 just scanned. Rings
//! too wide for packed rows, and rings so loose that no bucket lane
//! could reject, have no plane, keep whole rows and use the scalar
//! kernel alone.
//!
//! # One sweep, one row writer, five files
//!
//! Every lookup — lowest id, all matches, a bounded count, a row
//! subset, a batch of probes — is one driver with three inputs
//! (`SketchArena::sweep(probes, only, budget)` in `sweep`); the public
//! `find_*` names only choose them. Every row — a pushed sketch, a row
//! a rewrite carries over — enters through `SketchArena::append`. This
//! file holds the arena and its configuration; `cells` the column
//! buffer in its three row layouts and their scalar match kernels,
//! `plane` the prefilter plane and its depth model, `kernels` the
//! isolated SIMD backends, `shared` the append-under-readers buffer.

mod cells;
mod kernels;
mod plane;
mod shared;
mod sweep;

pub use cells::{canonical, canonical_range, CellWidth};
pub use sweep::RowMask;

use super::RecordId;
use cells::{quantize_ring, Cells};
use kernels::ActiveKernel;
#[cfg(target_arch = "x86_64")]
use kernels::{avx2, avx512};
use plane::{adaptive_depth_for_rate, byte_plane_eligible, FilterPlane};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Rows per sweep tile: what an [`EpochIndex`](super::EpochIndex) sizes
/// its default head in.
pub(crate) const TILE_ROWS: usize = sweep::TILE_WORDS * 64;

/// How (and whether) a [`SketchArena`] builds its SWAR/SIMD prefilter
/// plane for the conditions (1)–(4) scan.
///
/// The plane stores the leading [`PlaneDepth`] coordinates of every
/// row 64 rows a group, dimension-major within the group: one 64-byte
/// lane of byte buckets per dimension (`bucket = residue / q` with
/// `q = ⌈ka/256⌉`, eight rows per `u64` word), so a conservative
/// per-coordinate cyclic test
/// vectorizes: the quantized threshold `t_q = ⌈t'/q⌉ + 1` over-accepts
/// by construction, every true match survives, and survivors are
/// exact-verified on all coordinates. It only exists on packed-row
/// rings (`ka < 2¹⁵` — the paper's parameters) on which a bucket lane
/// can still reject (`2·t_q + 1 < ⌈ka/q⌉`); every other ring uses the
/// scalar kernel, whatever this config says.
///
/// Like [`CellWidth`], this is a lookup accelerator knob: it never
/// changes match results (property-tested in `tests/properties.rs`)
/// and is excluded from durable-storage fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// How many leading coordinates the plane keeps (see
    /// [`PlaneDepth`]). Resolved once per arena, clamped to the sketch
    /// dimension.
    pub depth: PlaneDepth,
    /// Which vector kernel scans the plane.
    pub kernel: FilterKernel,
}

/// Prefilter plane depth: how many leading coordinates get a packed
/// lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneDepth {
    /// Choose per arena from the ring's per-dimension rejection rate:
    /// a bucket lane passes `2·t_q+1` of the `⌈ka/q⌉` buckets, and
    /// lanes are added until the expected survivor rate clears 1/128 —
    /// past that, another lane's phase-1 cost (memory + ops on *every*
    /// row) outweighs the phase-2 work it removes. Small rings need
    /// fewer lanes; sparse-rejection rings get deeper planes, up to
    /// [`FilterConfig::MAX_ADAPTIVE_DIMS`]. At the paper's `t = 100`,
    /// `ka = 400` (`q = 2`, 103 of 200 buckets pass) this resolves
    /// to 8.
    #[default]
    Adaptive,
    /// Exactly this many lanes; `Fixed(0)` disables the prefilter.
    Fixed(usize),
}

/// The vector kernel that scans a [`FilterConfig`] prefilter plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKernel {
    /// Runtime dispatch, widest first (checked once via
    /// `is_x86_feature_detected!`): AVX-512 (`avx512f` + `avx512bw`),
    /// then AVX2, then portable SWAR; NEON on aarch64.
    #[default]
    Auto,
    /// Force the portable SWAR path (one `u64` word — 8 bucket bytes —
    /// at a time, no `unsafe`) even where SIMD is available — the
    /// bench ablation uses this to separate SWAR from SIMD wins.
    Swar,
    /// Cap dispatch at AVX2 even where AVX-512 is available (falls back
    /// to SWAR off x86-64) — the ablation knob that separates the
    /// 256-bit from the 512-bit win.
    Avx2,
}

impl FilterConfig {
    /// Ceiling on [`PlaneDepth::Adaptive`] lanes: past 16 dimensions
    /// the plane's memory traffic grows faster than any realistic
    /// rejection gain.
    pub const MAX_ADAPTIVE_DIMS: usize = 16;

    /// A disabled prefilter: every lookup takes the scalar early-abort
    /// kernel, as before the plane existed.
    pub fn disabled() -> FilterConfig {
        FilterConfig {
            depth: PlaneDepth::Fixed(0),
            ..FilterConfig::default()
        }
    }

    /// Force the portable SWAR kernel (adaptive plane depth).
    pub fn swar() -> FilterConfig {
        FilterConfig {
            kernel: FilterKernel::Swar,
            ..FilterConfig::default()
        }
    }

    /// Replaces the plane depth policy.
    #[must_use]
    pub fn with_depth(mut self, depth: PlaneDepth) -> FilterConfig {
        self.depth = depth;
        self
    }

    /// Replaces the vector kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: FilterKernel) -> FilterConfig {
        self.kernel = kernel;
        self
    }
}

impl Default for FilterConfig {
    fn default() -> FilterConfig {
        FilterConfig {
            depth: PlaneDepth::Adaptive,
            kernel: FilterKernel::Auto,
        }
    }
}

/// Contiguous, width-adaptive columnar storage for sketches — the
/// storage engine under every index: the head and the sealed segments
/// of an [`EpochIndex`](super::EpochIndex) are one arena each, as is a
/// [`ScanIndex`](super::ScanIndex).
///
/// Every lookup is one sweep (`SketchArena::sweep`): `n ≥ 1` probes
/// over the live rows an optional row subset lets through, keeping
/// the `budget` lowest matches per probe. [`SketchArena::find_first`]
/// (budget 1), [`SketchArena::find_all`] (no budget),
/// [`SketchArena::find_at_most`], its masked variant and
/// [`SketchArena::find_first_batch`] only choose those three inputs.
///
/// Rows are assigned densely in insertion order and never renumbered;
/// [`SketchArena::remove`] flips a tombstone bit, and
/// [`SketchArena::compact`] slides live rows down in place, returning
/// the renumbering. The arena's dimension is stamped by the first
/// [`SketchArena::push`]; pushing a different dimension panics, and
/// probes of a different dimension match nothing.
///
/// ```rust
/// use fe_core::index::store::{CellWidth, SketchArena};
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
    /// bytes written and leading buckets stored in the plane.
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
    /// A caller's sketch: canonicalised and narrowed on the way in.
    Sketch(&'a [i64]),
    /// This row of another arena over the same ring and dimension: its
    /// cells are canonical already, so they are copied verbatim.
    Stored(&'a SketchArena, RecordId),
}

impl Clone for SketchArena {
    /// A private copy with the same capacity.
    fn clone(&self) -> SketchArena {
        let dead = self.dead.iter().map(|w| w.load(Ordering::SeqCst));
        SketchArena {
            t: self.t,
            ka: self.ka,
            dim: self.dim,
            cells: self.cells.clone(),
            capacity: self.capacity,
            rows: AtomicUsize::new(self.rows()),
            dead: dead.map(AtomicU64::new).collect(),
            dead_rows: AtomicUsize::new(self.dead_rows.load(Ordering::SeqCst)),
            filter: self.filter,
        }
    }
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
    /// The plane only materializes on narrow rings (`ka < 2¹⁵`) a bucket
    /// lane can reject on; every other ring ignores `filter`'s depth
    /// and kernel and always scans with the scalar kernel.
    pub fn with_filter(t: u64, ka: u64, filter: FilterConfig) -> SketchArena {
        assert!(ka >= 1, "ring circumference must be at least 1");
        SketchArena {
            t,
            ka,
            dim: None,
            cells: Cells::for_ring(t, ka),
            capacity: 0,
            rows: AtomicUsize::new(0),
            dead: Vec::new(),
            dead_rows: AtomicUsize::new(0),
            filter,
        }
    }

    /// An empty arena pre-sized for `rows` sketches of `dim` coordinates
    /// (snapshot recovery knows both up front).
    pub fn with_capacity(t: u64, ka: u64, rows: usize, dim: usize) -> SketchArena {
        let mut arena = SketchArena::new(t, ka);
        arena.reserve(rows, dim);
        arena
    }

    /// Pre-sizes for `additional` more rows of `dim` coordinates —
    /// the column buffer, the tombstone words, **and** the prefilter
    /// plane lanes, so a pre-sized load reallocates nothing.
    ///
    /// # Panics
    /// Panics if the arena is already stamped with a different
    /// dimension.
    pub fn reserve(&mut self, additional: usize, dim: usize) {
        let stamped = self.stamp(dim);
        assert_eq!(dim, stamped, "reserve dimension must match the stamp");
        self.grow(self.rows() + additional);
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

    /// The plane depth this arena's config resolves to for its ring
    /// (before clamping to the stamped dimension): 0 — no plane — on a
    /// ring no bucket lane can reject on (which every ring too wide for
    /// packed rows is); otherwise [`PlaneDepth::Fixed`] verbatim, and
    /// [`PlaneDepth::Adaptive`] from the per-bucket acceptance rate
    /// `(2·t_q+1)/⌈ka/q⌉` (see [`PlaneDepth`]).
    pub fn resolved_depth(&self) -> usize {
        if !byte_plane_eligible(self.t, self.ka) {
            return 0;
        }
        match self.filter.depth {
            PlaneDepth::Fixed(d) => d,
            PlaneDepth::Adaptive => {
                let (_, kq, tq) = quantize_ring(self.t, self.ka);
                adaptive_depth_for_rate(2 * u64::from(tq) + 1, u64::from(kq))
            }
        }
    }

    /// Builds the plane when the freshly stamped dimension and the ring
    /// allow one. Called exactly once, at stamp time, before any row.
    fn stamp_plane(&mut self) {
        debug_assert!(self.cells.plane().is_none());
        let pd = self.resolved_depth().min(self.dim.unwrap_or(0));
        if pd > 0 {
            self.cells.set_plane(FilterPlane::new(pd, self.t, self.ka));
        }
    }

    /// The vector kernel a scan would use right now: `"scalar"` (no
    /// plane — wide or too-loose ring, disabled filter, or nothing
    /// stamped),
    /// `"swar"`, `"avx2"`, `"avx512"`, or `"neon"`. Benches use this to
    /// label ablations.
    pub fn filter_kernel(&self) -> &'static str {
        match self.active_kernel() {
            None => "scalar",
            Some(ActiveKernel::Swar) => "swar",
            #[cfg(target_arch = "x86_64")]
            Some(ActiveKernel::Avx2) => "avx2",
            #[cfg(target_arch = "x86_64")]
            Some(ActiveKernel::Avx512) => "avx512",
            #[cfg(target_arch = "aarch64")]
            Some(ActiveKernel::Neon) => "neon",
        }
    }

    /// The number of dimensions the prefilter plane holds (0 when
    /// inactive).
    pub fn plane_dims(&self) -> usize {
        self.cells.plane().map_or(0, FilterPlane::dims)
    }

    /// The lane width of the live plane — `"u8"`, or `"none"` when no
    /// plane exists. Benches use this to label runs, like
    /// [`SketchArena::filter_kernel`].
    pub fn plane_width(&self) -> &'static str {
        match self.cells.plane() {
            Some(_) => "u8",
            None => "none",
        }
    }

    /// The configured prefilter knob (which the ring may have
    /// overridden — see [`SketchArena::plane_dims`] for what is live).
    pub fn filter_config(&self) -> FilterConfig {
        self.filter
    }

    /// The plane plus its resolved kernel when the prefilter is live —
    /// the one condition deciding whether a sweep has a phase 1.
    fn active_plane(&self) -> Option<(&FilterPlane, ActiveKernel)> {
        Some((self.cells.plane()?, self.active_kernel()?))
    }

    fn active_kernel(&self) -> Option<ActiveKernel> {
        self.cells.plane()?;
        Some(match self.filter.kernel {
            FilterKernel::Swar => ActiveKernel::Swar,
            FilterKernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if avx2::available() {
                        ActiveKernel::Avx2
                    } else {
                        ActiveKernel::Swar
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    ActiveKernel::Swar
                }
            }
            FilterKernel::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    if avx512::available() {
                        ActiveKernel::Avx512
                    } else if avx2::available() {
                        ActiveKernel::Avx2
                    } else {
                        ActiveKernel::Swar
                    }
                }
                #[cfg(target_arch = "aarch64")]
                {
                    // NEON is baseline on aarch64: no runtime check.
                    ActiveKernel::Neon
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                {
                    ActiveKernel::Swar
                }
            }
        })
    }

    /// The match threshold `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// The ring circumference `ka`.
    pub fn ka(&self) -> u64 {
        self.ka
    }

    /// The row layout chosen from `ka`.
    pub fn width(&self) -> CellWidth {
        CellWidth::for_ring(self.ka)
    }

    /// The stamped sketch dimension (`None` until the first push).
    pub fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        // Tombstones first: a row is counted before it can be removed,
        // so this order never subtracts a removal from a count that
        // does not hold its row yet.
        let dead = self.dead_rows.load(Ordering::SeqCst);
        self.rows() - dead
    }

    /// `true` when no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total rows, live and tombstoned.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Acquire)
    }

    /// Heap bytes held by the arena: the column buffer, the tombstone
    /// words, and the prefilter plane lanes (capacities, not lengths —
    /// this is what the allocator has actually handed out).
    pub fn heap_bytes(&self) -> usize {
        self.cells.capacity_bytes() + self.dead.capacity() * 8
    }

    /// Bytes the rows held occupy: each row once — its column bytes
    /// and the leading buckets the plane holds of it — and their
    /// tombstone words. Equal to [`SketchArena::heap_bytes`] on a full
    /// arena (to within the open group's lanes past its last row); on
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
    /// count, the leading buckets in the plane's open group (which the
    /// group's first row published), and only then does the `Release`
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
    /// [`SketchArena::reserve`]), or on a dimension mismatch.
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

    /// Tombstones a row. Returns `false` for unknown or already-dead
    /// ids. O(1): one bitmap bit flips; the cells stay until
    /// [`SketchArena::compact`].
    pub fn remove(&mut self, id: RecordId) -> bool {
        self.revoke(id)
    }

    /// [`SketchArena::remove`] through `&self`: the flip is atomic, so
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
    /// or unknown ids). Prefer [`SketchArena::copy_row_into`] /
    /// [`SketchArena::for_each_live`] on hot paths.
    pub fn row(&self, id: RecordId) -> Option<Vec<i64>> {
        let mut out = Vec::new();
        self.copy_row_into(id, &mut out).then_some(out)
    }

    /// Copies a live row into `out` (cleared first), widening to `i64`.
    /// Returns `false` — leaving `out` empty — for dead or unknown ids.
    /// This is the allocation-free row access primitive: callers reuse
    /// one scratch buffer across an entire streaming pass.
    pub fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool {
        out.clear();
        if !self.is_live(id) {
            return false;
        }
        let dim = self.dim.expect("live rows imply a stamped dimension");
        self.cells.decode_into(id, dim, out);
        true
    }

    /// Streams every live row in ascending id order through one reused
    /// scratch buffer — the zero-clone alternative to materializing
    /// `Vec<(RecordId, Vec<i64>)>` for snapshot and compaction passes.
    pub fn for_each_live(&self, mut f: impl FnMut(RecordId, &[i64])) {
        let mut scratch = Vec::new();
        for id in 0..self.rows() {
            if self.copy_row_into(id, &mut scratch) {
                f(id, &scratch);
            }
        }
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

    /// Drops every row and resets id assignment; the width, `t`, `ka`,
    /// dimension stamp and prefilter plane are retained, as is the
    /// allocated capacity.
    pub fn clear(&mut self) {
        self.reset_rows(0);
    }

    /// Keeps the first `rows` rows, all live.
    fn reset_rows(&mut self, rows: usize) {
        self.cells.truncate(rows, self.dim.unwrap_or(0));
        *self.rows.get_mut() = rows;
        *self.dead_rows.get_mut() = 0;
        for word in &mut self.dead {
            *word.get_mut() = 0;
        }
    }

    /// Reclaims tombstoned rows **in place**: live rows slide down the
    /// same column buffer and plane lanes (preserving order), the
    /// bitmap is rebuilt dense, and the old → new renumbering is
    /// returned. No row data is cloned and no new buffer is allocated.
    pub fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        let rows = self.rows();
        let dim = match self.dim {
            Some(dim) if self.len() < rows => dim,
            // Nothing stored, or nothing tombstoned: identity mapping.
            _ => {
                return (0..rows).map(|id| (id, id)).collect();
            }
        };
        let mut mapping = Vec::with_capacity(self.len());
        for id in 0..rows {
            if !self.is_live(id) {
                continue;
            }
            let next = mapping.len();
            if next != id {
                self.cells.slide(id, next, dim);
            }
            mapping.push((id, next));
        }
        self.reset_rows(mapping.len());
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
        assert_eq!(arena.find_all(&[1, 2, 3, 4]), Vec::<RecordId>::new());
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
    fn wide_rings_use_wide_cells() {
        for ka in [1u64 << 20, 1 << 40] {
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
        // Filter disabled so the figure isolates the row layout: 64
        // rows of 64 coordinates and their one tombstone word. The
        // paper ring packs 9 bits a coordinate, a byte-sized ring 8,
        // the wide rings keep 4- and 8-byte cells.
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
        assert_eq!(cell_bytes_per_row(1 << 20), 256);
        assert_eq!(cell_bytes_per_row(1 << 40), 512);
        // The prefilter plane holds a row's first 8 bucket bytes and
        // the row column the other 64: an identical filtered arena
        // holds each sketch once, in exactly the bytes a scalar one does.
        let mut filtered = SketchArena::with_capacity(100, 400, 64, 64);
        for i in 0..64i64 {
            filtered.push(&[i; 64]);
        }
        assert_eq!(filtered.plane_width(), "u8");
        assert_eq!((filtered.plane_dims(), filtered.cells.stride(64)), (8, 64));
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
        arena.for_each_live(|id, row| seen.push((id, row.to_vec())));
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
        for _ in 0..300 {
            let row: Vec<i64> = (0..dim).map(|_| rng.gen_range(-span..=span)).collect();
            assert_eq!(filtered.push(&row), scalar.push(&row));
        }
        for id in (0..300).step_by(7) {
            assert_eq!(filtered.remove(id), scalar.remove(id));
        }
        // Probes: genuine-ish (near an enrolled row), impostors, and a
        // wrong dimension; exercised through every entry point.
        let mut probes: Vec<Vec<i64>> = Vec::new();
        for base in (0..300).step_by(11) {
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
            assert_eq!(filtered.find_all(probe), scalar.find_all(probe));
        }
        assert_eq!(
            filtered.find_first_batch(&probes),
            scalar.find_first_batch(&probes)
        );
        // And again after compaction rebuilds the plane.
        assert_eq!(filtered.compact(), scalar.compact());
        for probe in &probes {
            assert_eq!(filtered.find_first(probe), scalar.find_first(probe));
            assert_eq!(filtered.find_all(probe), scalar.find_all(probe));
        }
        assert_eq!(
            filtered.find_first_batch(&probes),
            scalar.find_first_batch(&probes)
        );
    }

    #[test]
    fn swar_prefilter_matches_scalar() {
        // Paper ring; dim > plane (suffix verify), dim == plane (pure
        // prefilter), dim < plane (clamped plane).
        for dim in [32, 8, 3] {
            check_filtered_matches_scalar(FilterConfig::swar(), 100, 400, dim);
        }
        // Tiny and odd rings.
        check_filtered_matches_scalar(FilterConfig::swar(), 1, 7, 5);
        check_filtered_matches_scalar(FilterConfig::swar(), 0, 2, 4);
        // Largest narrow ring.
        check_filtered_matches_scalar(FilterConfig::swar(), 1000, (1 << 15) - 1, 12);
    }

    #[test]
    fn auto_prefilter_matches_scalar() {
        // On x86-64 this exercises the widest available SIMD path
        // (including the SWAR tail for partial vectors); elsewhere it
        // re-checks SWAR through the Auto dispatch.
        for dim in [32, 8, 3] {
            check_filtered_matches_scalar(FilterConfig::default(), 100, 400, dim);
        }
        check_filtered_matches_scalar(FilterConfig::default(), 25, 101, 9);
    }

    #[test]
    fn avx2_pin_matches_scalar() {
        // The ablation knob that caps dispatch at AVX2 (SWAR off
        // x86-64) must stay result-identical too.
        let pinned = FilterConfig::default().with_kernel(FilterKernel::Avx2);
        for dim in [32, 8, 3] {
            check_filtered_matches_scalar(pinned, 100, 400, dim);
        }
    }

    #[test]
    fn fixed_depth_matches_scalar() {
        for depth in [1, 3, 8, 16] {
            check_filtered_matches_scalar(
                FilterConfig::default().with_depth(PlaneDepth::Fixed(depth)),
                100,
                400,
                12,
            );
        }
    }

    #[test]
    fn threshold_above_half_ring_matches_everything() {
        // t ≥ ka/2 means every row matches; no plane could reject, so
        // none is built, whatever depth is asked for — every config
        // must agree with the scalar kernel.
        check_filtered_matches_scalar(FilterConfig::swar(), 399, 400, 6);
        check_filtered_matches_scalar(
            FilterConfig::swar().with_depth(PlaneDepth::Fixed(8)),
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
    fn plane_only_exists_on_narrow_rings() {
        for (ka, expect_dims) in [(400u64, 8), (1 << 20, 0), (1 << 40, 0)] {
            let mut arena = SketchArena::new(100, ka);
            arena.push(&[1; 16]);
            assert_eq!(arena.plane_dims(), expect_dims, "ka = {ka}");
            if expect_dims == 0 {
                assert_eq!(arena.filter_kernel(), "scalar");
            } else {
                assert_ne!(arena.filter_kernel(), "scalar");
            }
        }
        // Disabled config never builds a plane, even on the paper ring.
        let mut arena = SketchArena::with_filter(100, 400, FilterConfig::disabled());
        arena.push(&[1; 16]);
        assert_eq!(arena.plane_dims(), 0);
        // The plane is clamped to the sketch dimension.
        let mut arena = SketchArena::new(100, 400);
        arena.push(&[1, 2, 3]);
        assert_eq!(arena.plane_dims(), 3);
    }

    #[test]
    fn reserve_presizes_the_plane() {
        let mut arena = SketchArena::new(100, 400);
        arena.reserve(500, 16);
        assert_eq!(arena.plane_dims(), 8);
        let sized = arena.heap_bytes();
        for i in 0..500i64 {
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
            arena.push(&[1; 16]);
            (
                arena.plane_width(),
                arena.filter_kernel(),
                arena.plane_dims(),
            )
        };
        // Paper ring, default config: the byte plane, 8 lanes deep.
        let (width, kernel, dims) = resolved(100, 400, FilterConfig::default());
        assert_eq!((width, dims), ("u8", 8));
        assert_ne!(kernel, "scalar");
        assert_eq!(SketchArena::new(100, 400).resolved_depth(), 8);
        // Rings no bucket lane can reject on (2·tq+1 ≥ kq): no plane,
        // the scalar kernel — even when a depth is pinned.
        let none = ("none", "scalar", 0);
        assert_eq!(resolved(198, 400, FilterConfig::default()), none);
        assert_eq!(resolved(125, 258, FilterConfig::default()), none);
        let pinned = FilterConfig::default().with_depth(PlaneDepth::Fixed(3));
        assert_eq!(resolved(198, 400, pinned), none);
        // Wider rings never build a plane, whatever the knob says.
        assert_eq!(resolved(100, 1 << 20, FilterConfig::default()), none);
        assert_eq!(resolved(100, 1 << 20, pinned), none);
        // Disabled filter: no plane either.
        assert_eq!(resolved(100, 400, FilterConfig::disabled()), none);
    }

    #[test]
    fn byte_plane_matches_scalar() {
        // The portable SWAR word (even/odd byte split) on the paper
        // ring, and on a q = 1 ring at a byte's capacity, where buckets
        // are the residues themselves.
        let swar = FilterConfig::swar();
        check_filtered_matches_scalar(swar, 100, 400, 12);
        check_filtered_matches_scalar(swar, 100, 256, 6);
        // Largest narrow ring through the dispatched kernel: q = 128,
        // kq = 256 — the wrapped broadcast.
        check_filtered_matches_scalar(FilterConfig::default(), 1000, (1 << 15) - 1, 12);
        // Rings no bucket lane can reject on: no plane is built and the
        // scalar fallback answers, results identical.
        for (t, ka) in [(198, 400), (125, 258), (16_200, (1 << 15) - 1)] {
            check_filtered_matches_scalar(FilterConfig::default(), t, ka, 6);
            check_filtered_matches_scalar(swar, t, ka, 6);
        }
    }
}
