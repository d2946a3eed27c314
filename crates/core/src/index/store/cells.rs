//! The one column buffer of a [`SketchArena`](super::SketchArena) — a
//! packed row of residue bits, on every ring — canonical ring
//! representatives, and the scalar match kernel.
//!
//! # The packed row
//!
//! A coordinate is stored as its residue `r ∈ [0, ka)` in
//! `B = max(8, ⌈log₂ ka⌉) ≤ 64` bits — Theorem 3's `log₂(ka + 1)`
//! rounded up to a whole bit (9 on the paper ring, against the paper's
//! 8.65) — whatever the ring. With a prefilter plane, each of the first
//! `D` coordinates is split into a cell `c = r / w` and an offset
//! `r − c·w` (`w = ⌈ka / 2^b⌉`, the `plane` module docs): the plane
//! keeps the cell's `b` bits, bit-sliced, and the row column the
//! offset's `B − b`. The row column is one bit stream, low bit first:
//! the `D` offsets, then the whole residues of the coordinates past
//! them:
//!
//! ```text
//!   plane: c₀ … c₆₃, 2 bits each   ┌ o₀ … o₆₃, 7 bits each ┬ (r₆₄ …, 9 bits each) ┐
//!   └──────── 16 B ──────────────┘ └────── the row column, 56 B at 64 × ka = 400 ─┘
//! ```
//!
//! so a row takes `⌈dim · B / 8⌉` bytes with or without a plane — 72 at
//! the paper shape, against 128 as `i16` cells, and 160 at `ka = 2²⁰`.
//! Phase 2 rebuilds `c·w + o`
//! ([`Packed::row_matches`]); an arena without a plane (`D = 0`) keeps
//! every residue whole in its row.

#[cfg(target_arch = "x86_64")]
use super::kernels::avx512;
use super::plane::{cell_bits, FilterPlane, Lead};
use super::shared::Column;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The class of a ring `ka` by the plain integer its residues would
/// need (see [`CellWidth::for_ring`]). Every class stores the same
/// packed row (`cells` module docs): this only names the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWidth {
    /// `ka < 2¹⁵`: residues fit an `i16` (the paper's `ka = 400` lands
    /// here, at 9 bits).
    Packed,
    /// `ka < 2³¹`: residues fit an `i32`.
    I32,
    /// Everything else.
    I64,
}

impl CellWidth {
    /// The narrowest class that holds every residue of `Z_ka`.
    pub fn for_ring(ka: u64) -> CellWidth {
        if ka < 1 << 15 {
            CellWidth::Packed
        } else if ka < 1 << 31 {
            CellWidth::I32
        } else {
            CellWidth::I64
        }
    }

    /// Bytes a stored row of `dim` coordinates takes on the ring `ka`,
    /// `⌈dim · B / 8⌉` (saturating: `dim` may be a frame's claim).
    pub fn row_bytes(ka: u64, dim: usize) -> usize {
        dim.saturating_mul(coord_bits(ka) as usize).div_ceil(8)
    }
}

/// `B = max(8, ⌈log₂ ka⌉)`: bits a coordinate of the ring `ka` takes.
fn coord_bits(ka: u64) -> u32 {
    (u64::BITS - (ka - 1).leading_zeros()).max(8)
}

/// The packed row of one ring (module docs), its codec, and the
/// threshold its rows are matched under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Packed {
    pub(super) ka: u64,
    /// `min(t, ka)`.
    pub(super) t: u64,
    /// `B`: bits a coordinate takes, plane and row together.
    bits: u32,
    /// The ring's [`cell_bits`] `b`, the cell width `w = ⌈ka / 2^b⌉`,
    /// and its reciprocal `⌊(2⁶⁴ − 1) / w⌋`, which [`Packed::cell`]
    /// divides by.
    cell_bits: u32,
    pub(super) w: u64,
    recip: u64,
    /// Leading coordinates whose cells the prefilter plane keeps: the
    /// plane's depth `D`, 0 without a plane.
    lead: usize,
}

/// The bit stream a packed row is written as, eight bytes at a time:
/// [`Packed::encode_scalar`]'s and the AVX-512 encode's one writer.
pub(crate) struct Pile<'a> {
    out: &'a mut [u8],
    at: usize,
    bits: u128,
    len: u32,
}

impl<'a> Pile<'a> {
    pub(crate) fn new(out: &'a mut [u8]) -> Pile<'a> {
        Pile {
            out,
            at: 0,
            bits: 0,
            len: 0,
        }
    }

    /// Appends the low `width ≤ 64` bits of `field`, which has no
    /// others set.
    #[inline]
    pub(crate) fn push(&mut self, field: u64, width: u32) {
        self.bits |= u128::from(field) << self.len;
        self.len += width;
        if self.len >= 64 {
            self.out[self.at..self.at + 8].copy_from_slice(&(self.bits as u64).to_le_bytes());
            (self.at, self.bits, self.len) = (self.at + 8, self.bits >> 64, self.len - 64);
        }
    }

    /// Writes what is left: the row's last bytes.
    pub(crate) fn finish(self) {
        let tail = &mut self.out[self.at..];
        tail.copy_from_slice(&(self.bits as u64).to_le_bytes()[..tail.len()]);
    }
}

/// A packed row's bit stream read back field by field, low bit first,
/// from the column's words — each loaded once, by a `Relaxed` load.
/// The stream runs on past the row, and reads as zeros past the last
/// word; a field never takes bits past its row.
struct Fields<'a> {
    words: &'a [AtomicU64],
    /// The next word to load.
    next: usize,
    /// The `len` bits loaded and not yet taken, lowest first.
    bits: u128,
    len: u32,
}

impl Fields<'_> {
    /// The stream from byte `at` of `words` on.
    fn at(words: &[AtomicU64], at: usize) -> Fields<'_> {
        let mut fields = Fields {
            words,
            next: at / 8,
            bits: 0,
            len: 0,
        };
        fields.refill();
        let skip = 8 * (at % 8) as u32;
        (fields.bits, fields.len) = (fields.bits >> skip, fields.len - skip);
        fields
    }

    #[inline]
    fn refill(&mut self) {
        let word = self
            .words
            .get(self.next)
            .map_or(0, |word| word.load(Ordering::Relaxed));
        self.bits |= u128::from(word) << self.len;
        (self.next, self.len) = (self.next + 1, self.len + 64);
    }

    /// The next `width ≤ 64` bits.
    #[inline]
    fn take(&mut self, width: u32) -> u64 {
        if self.len < width {
            self.refill();
        }
        let field = self.bits as u64 & u64::MAX.checked_shr(64 - width).unwrap_or(0);
        (self.bits, self.len) = (self.bits >> width, self.len - width);
        field
    }
}

impl Packed {
    pub(super) fn new(t: u64, ka: u64) -> Packed {
        let cell_bits = cell_bits(t, ka);
        let w = ka.div_ceil(1 << cell_bits);
        Packed {
            ka,
            t: t.min(ka),
            bits: coord_bits(ka),
            cell_bits,
            w,
            recip: u64::MAX / w,
            lead: 0,
        }
    }

    /// Row-column bytes of `dim` coordinates: their bits but the cells
    /// the plane holds.
    pub(super) fn row_bytes(self, dim: usize) -> usize {
        (dim * self.bits as usize - self.lead * self.cell_bits as usize).div_ceil(8)
    }

    /// `v mod ka` in `[0, ka)`. Real sketches lie within a ring of
    /// zero, on either side of it at random: the sign is folded in
    /// without a branch — `v + ka` wraps into `[0, ka)` exactly for
    /// `v ∈ [−ka, 0)` — and the division only runs for out-of-range
    /// input.
    #[inline]
    fn residue(self, v: i64) -> u64 {
        let r = (v as u64).wrapping_add(self.ka & (v >> 63) as u64);
        if r < self.ka {
            r
        } else {
            i128::from(v).rem_euclid(i128::from(self.ka)) as u64
        }
    }

    /// `r / w`, exactly, for every `r < 2⁶⁴`: the high half of
    /// `r · ⌊(2⁶⁴ − 1) / w⌋` is the quotient or one short of it (the
    /// reciprocal's error, times `r`, stays below `2⁶⁴`), and one
    /// compare of the remainder tells which.
    #[inline]
    fn cell(self, r: u64) -> u64 {
        let q = ((u128::from(r) * u128::from(self.recip)) >> 64) as u64;
        q + u64::from(r - q * self.w >= self.w)
    }

    /// Encodes `sketch` as one packed row: the cells of its first
    /// `lead` coordinates into `cells`, one a byte, and its bit stream
    /// into `row`, [`Packed::row_bytes`] long. Eight coordinates a step
    /// on AVX-512 when the ring is narrow and every coordinate lies in
    /// `[−ka, ka)`, else [`Packed::encode_scalar`] over the whole row.
    fn encode(self, sketch: &[i64], cells: &mut [u8], row: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if avx512::available() && avx512::encode_packed(self.split(), sketch, cells, row) {
            return;
        }
        self.encode_scalar(sketch, cells, row);
    }

    /// What the AVX-512 encode needs of the layout. Its multiply-shift
    /// `⌈2³¹ / w⌉` is `⌊(2⁶⁴ − 1) / w⌋ >> 33`, plus one.
    #[cfg(target_arch = "x86_64")]
    fn split(self) -> avx512::Split {
        avx512::Split {
            ka: self.ka,
            w: self.w,
            magic: (self.recip >> 33) + 1,
            bits: self.bits,
            offset_bits: self.bits - self.cell_bits,
            lead: self.lead,
        }
    }

    /// [`Packed::encode`] a coordinate at a time. The loop off AVX-512
    /// and on wide rings, and the lanes' oracle.
    fn encode_scalar(self, sketch: &[i64], cells: &mut [u8], row: &mut [u8]) {
        let mut pile = Pile::new(row);
        let offset_bits = self.bits - self.cell_bits;
        for (j, &v) in sketch.iter().enumerate() {
            let r = self.residue(v);
            if j < self.lead {
                let c = self.cell(r);
                cells[j] = c as u8;
                pile.push(r - c * self.w, offset_bits);
            } else {
                pile.push(r, self.bits);
            }
        }
        pile.finish();
    }

    /// Calls `keep(i, residue)` for coordinate `i = 0, 1, …` of a
    /// packed row — `c·w + o` from its cells `lead` and the offsets its
    /// bit stream `fields` starts with, then the whole residues after
    /// them — until it says `false`; `true` when it never did.
    #[inline]
    fn all_coords(
        self,
        lead: Lead<'_>,
        mut fields: Fields<'_>,
        dim: usize,
        mut keep: impl FnMut(usize, u64) -> bool,
    ) -> bool {
        let (d, offset_bits) = (lead.len(), self.bits - self.cell_bits);
        (0..d).all(|j| keep(j, lead.cell(j) * self.w + fields.take(offset_bits)))
            && (d..dim).all(|j| keep(j, fields.take(self.bits)))
    }

    /// Appends the residues of `probes[p]` for every `p` in `active` to
    /// `buf`, cleared first, one probe after another, as a sweep reads
    /// them.
    pub(super) fn prepare_into(self, buf: &mut Vec<u64>, probes: &[&[i64]], active: &[usize]) {
        buf.clear();
        for &p in active {
            buf.extend(probes[p].iter().map(|&v| self.residue(v)));
        }
    }

    /// The early-abort row kernel: is every coordinate of the row — its
    /// cells `lead`, if the plane holds them, and the bits from byte
    /// `at` of the column's `words` on — within the cyclic distance `t`
    /// of the probe's? `probe` holds residues, as the row
    /// does, so the cyclic distance is `min(d, ka − d)` on
    /// `d = |v − p| < ka`, exactly [`crate::conditions::cyclic_close`]
    /// with no `%`, coordinate by coordinate, leaving at the first that
    /// is too far.
    #[inline]
    pub(super) fn row_matches(
        self,
        lead: Lead<'_>,
        words: &[AtomicU64],
        at: usize,
        probe: &[u64],
    ) -> bool {
        self.all_coords(lead, Fields::at(words, at), probe.len(), |i, v| {
            let d = v.abs_diff(probe[i]);
            d.min(self.ka - d) <= self.t
        })
    }
}

/// The one column buffer and its codec — and the arena's prefilter
/// plane, when it has one: the only home of the cells of each row's
/// first [`Packed::lead`] coordinates, whose offsets alone the row's
/// column bits keep.
#[derive(Debug)]
pub(super) struct Cells {
    packed: Packed,
    col: Column,
    plane: Option<FilterPlane>,
}

thread_local! {
    /// A packed row's cells and column bytes on their way into the
    /// plane and the column (never held across user code).
    static ENCODED: RefCell<(Vec<u8>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

impl Cells {
    /// An empty buffer for the ring `ka`, its rows to be matched under
    /// the threshold `t`.
    pub(super) fn new(t: u64, ka: u64) -> Cells {
        Cells {
            packed: Packed::new(t, ka),
            col: Column::with_capacity(0),
            plane: None,
        }
    }

    /// Gives an empty buffer its plane, which takes the cells of each
    /// row's first `plane.dims()` coordinates from then on.
    pub(super) fn set_plane(&mut self, plane: FilterPlane) {
        debug_assert!(self.col.len() == 0, "rows are split from the first");
        debug_assert_eq!(plane.bits(), self.packed.cell_bits as usize);
        self.packed.lead = plane.dims();
        self.plane = Some(plane);
    }

    /// The prefilter plane, when there is one.
    pub(super) fn plane(&self) -> Option<&FilterPlane> {
        self.plane.as_ref()
    }

    /// The row codec, its `lead` the plane's depth.
    pub(super) fn packed(&self) -> Packed {
        self.packed
    }

    /// The column words of the rows published so far.
    pub(super) fn words(&self) -> &[AtomicU64] {
        self.col.words()
    }

    /// Bytes the column and the plane hold (capacities).
    pub(super) fn capacity_bytes(&self) -> usize {
        self.col.capacity() + self.plane.as_ref().map_or(0, FilterPlane::heap_bytes)
    }

    /// Makes room for `rows` rows in total (exclusive access: the
    /// buffers may move).
    pub(super) fn grow(&mut self, rows: usize, dim: usize) {
        self.col.grow(rows * self.packed.row_bytes(dim));
        if let Some(plane) = &mut self.plane {
            plane.grow(rows);
        }
    }

    /// Appends a caller's sketch as row `row`, reduced into the ring
    /// and split on the way in.
    pub(super) fn append_sketch(&self, row: usize, sketch: &[i64]) {
        ENCODED.with(|encoded| {
            let (cells, bytes) = &mut *encoded.borrow_mut();
            cells.resize(self.packed.lead, 0);
            bytes.resize(self.packed.row_bytes(sketch.len()), 0);
            self.packed.encode(sketch, cells, bytes);
            self.col.extend(bytes);
            if let Some(plane) = &self.plane {
                plane.put(row, cells);
            }
        });
    }

    /// Appends row `r` of `from` as row `row` — a stored row is already
    /// in this ring's layout, so moving it between arenas of one ring,
    /// dimension and plane is a copy: of its column bytes and the cells
    /// `from`'s plane holds of it.
    pub(super) fn append_stored(&self, row: usize, from: &Cells, r: usize, dim: usize) {
        assert_eq!(self.packed, from.packed, "rows move only within one layout");
        let stride = from.packed.row_bytes(dim);
        ENCODED.with(|encoded| {
            let (cells, bytes) = &mut *encoded.borrow_mut();
            bytes.resize(stride, 0);
            from.col.read(r * stride, bytes);
            self.col.extend(bytes);
            if let Some(plane) = &self.plane {
                let lead = from.lead(r);
                cells.clear();
                cells.extend((0..lead.len()).map(|j| lead.cell(j) as u8));
                plane.put(row, cells);
            }
        });
    }

    /// Row `row`'s cells where the plane holds them.
    fn lead(&self, row: usize) -> Lead<'_> {
        self.plane()
            .map_or_else(Lead::none, |plane| plane.lead(row))
    }

    /// Decodes row `row` into `out` as canonical representatives.
    pub(super) fn decode_into(&self, row: usize, dim: usize, out: &mut Vec<i64>) {
        let ka = self.packed.ka;
        let fields = Fields::at(self.col.words(), row * self.packed.row_bytes(dim));
        self.packed.all_coords(self.lead(row), fields, dim, |_, v| {
            // `v − ka` past the half ring: `canonical`'s `2r > ka`.
            out.push(if v > ka / 2 { v.wrapping_sub(ka) } else { v } as i64);
            true
        });
    }
}

/// The canonical ring representative of `v` in `Z_ka`: the minimal
/// signed residue, in `[−(ka−1)/2, ka/2]`. Conditions (1)–(4) are a
/// cyclic distance on `Z_ka`, so they cannot distinguish `v` from
/// `v ± ka` — storing the residue loses nothing and is what lets the
/// row follow `ka` instead of `i64`.
///
/// This is the one definition of what an index row reads back as: the
/// row stores the residue, which `Cells::decode_into` folds back this
/// way, so a caller that must restore the value it inserted — a
/// server's record patches — compares against this instead of decoding
/// the row. Real sketches land inside the canonical range, where this
/// is two compares; the `i128` division only runs for out-of-range
/// input.
///
/// ```
/// use fe_core::index::store::canonical;
///
/// assert_eq!(canonical(-200, 400), 200); // −ka/2 folds to +ka/2
/// assert_eq!(canonical(201, 400), -199);
/// assert_eq!(canonical(-199, 400), -199);
/// ```
#[inline]
pub fn canonical(v: i64, ka: u64) -> i64 {
    let (lo, hi) = canonical_range(ka);
    if (lo..=hi).contains(&v) {
        return v;
    }
    // i128: `ka` is a u64, so `v.rem_euclid(ka as i64)` could overflow
    // for ka > i64::MAX; widen once instead of trusting the caller.
    let ka = i128::from(ka);
    let r = i128::from(v).rem_euclid(ka); // r ∈ [0, ka)
    let r = if 2 * r > ka { r - ka } else { r }; // r ∈ [−(ka−1)/2, ka/2]
    r as i64
}

/// The closed interval of already-canonical values for `Z_ka`, clamped
/// to `i64`: the values [`canonical`] returns unchanged.
///
/// ```
/// use fe_core::index::store::canonical_range;
///
/// assert_eq!(canonical_range(400), (-199, 200));
/// ```
pub fn canonical_range(ka: u64) -> (i64, i64) {
    let hi = (ka / 2).min(i64::MAX as u64) as i64;
    let lo = -(((ka - 1) / 2).min(i64::MAX as u64) as i64);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::cyclic_close;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn width_follows_ring() {
        assert_eq!(CellWidth::for_ring(400), CellWidth::Packed);
        assert_eq!(CellWidth::for_ring((1 << 15) - 1), CellWidth::Packed);
        assert_eq!(CellWidth::for_ring(1 << 15), CellWidth::I32);
        assert_eq!(CellWidth::for_ring((1 << 31) - 1), CellWidth::I32);
        assert_eq!(CellWidth::for_ring(1 << 31), CellWidth::I64);
        assert_eq!(CellWidth::for_ring(u64::MAX), CellWidth::I64);
    }

    #[test]
    fn canonical_is_minimal_residue() {
        assert_eq!(canonical(0, 400), 0);
        assert_eq!(canonical(200, 400), 200);
        assert_eq!(canonical(201, 400), -199);
        assert_eq!(canonical(-200, 400), 200);
        assert_eq!(canonical(400, 400), 0);
        assert_eq!(canonical(300, 400), -100);
        assert_eq!(canonical(-300, 400), 100);
        assert_eq!(canonical(i64::MIN, 400), canonical(i64::MIN % 400, 400));
        // Odd ring: residues span [−(ka−1)/2, (ka−1)/2].
        for v in -20..20 {
            let c = canonical(v, 7);
            assert!((-3..=3).contains(&c), "canonical({v}, 7) = {c}");
            assert_eq!((v - c).rem_euclid(7), 0);
        }
    }

    /// A packed layout of the ring `(t, ka)` whose plane keeps `lead`
    /// coordinates' cells, as `Cells::set_plane` makes it.
    fn with_plane(t: u64, ka: u64, lead: usize) -> Packed {
        let packed = Packed::new(t, ka);
        let lead = if packed.cell_bits == 0 { 0 } else { lead };
        Packed { lead, ..packed }
    }

    /// The reciprocal and its fix-up are the division: every cell width
    /// a narrow ring can have (`w ≤ 2¹⁴`), at both sides of every
    /// multiple of it below `2¹⁵` — the quotient only steps there, and
    /// the estimate only grows with `r` — where the reciprocal also
    /// gives the AVX-512 encode its `⌈2³¹ / w⌉`; and the widths of wide rings
    /// (`⌈ka / 2^b⌉` for `ka` at and around powers of two up to
    /// `2⁶⁴ − 1`, and random ones) at both sides of sampled multiples,
    /// of the last residue and of `2⁶⁴ − 1`.
    #[test]
    fn the_reciprocal_divides_by_every_cell_width() {
        let divider = |w: u64| Packed {
            w,
            recip: u64::MAX / w,
            ..Packed::new(0, 400)
        };
        for w in 1u64..=1 << 14 {
            let packed = divider(w);
            // The AVX-512 encode's multiply-shift, from the reciprocal.
            assert_eq!(
                (packed.recip >> 33) + 1,
                (1u64 << 31).div_ceil(w),
                "w = {w}"
            );
            for k in 1..=(1 << 15) / w {
                for r in [k * w - 1, k * w] {
                    assert_eq!(packed.cell(r), r / w, "r = {r}, w = {w}");
                }
            }
            assert_eq!(packed.cell((1 << 15) - 1), ((1 << 15) - 1) / w, "w = {w}");
        }
        let mut rng = StdRng::seed_from_u64(0xD1F);
        let rings = (15..64)
            .flat_map(|p| [(1u64 << p) - 1, 1 << p, (1 << p) + 1])
            .chain([u64::MAX])
            .chain((0..200).map(|_| rng.gen_range(1 << 15..=u64::MAX)))
            .collect::<Vec<u64>>();
        for ka in rings {
            for b in 0..=8 {
                let w = ka.div_ceil(1 << b);
                let packed = divider(w);
                let steps: Vec<u64> = (0..64).map(|_| rng.gen_range(1..=u64::MAX / w)).collect();
                let rs = steps
                    .into_iter()
                    .chain([1, u64::MAX / w])
                    .flat_map(|k| [k * w - 1, k * w, (k * w).saturating_add(1)])
                    .chain([ka - 1, u64::MAX, rng.gen()]);
                for r in rs {
                    assert_eq!(packed.cell(r), r / w, "r = {r}, w = {w}");
                }
            }
        }
    }

    /// Bits a stored coordinate takes: `max(8, ⌈log₂ ka⌉)` on every
    /// ring, wherever they are kept; the cell fits its `b` bits and the
    /// offset the rest — every narrow ring, and wide ones at and around
    /// every power of two up to `2⁶⁴ − 1`.
    #[test]
    fn a_coordinate_takes_a_byte_or_the_rings_bits() {
        let wide = (15..64)
            .flat_map(|p| [(1u64 << p) - 1, 1 << p, (1 << p) + 1])
            .chain([u64::MAX]);
        for ka in (2u64..1 << 15).chain(wide) {
            let ring_bits = u64::BITS - (ka - 1).leading_zeros(); // ⌈log₂ ka⌉
            for t in [0, ka / 4, ka / 3] {
                let packed = with_plane(t, ka, 64);
                let (b, w) = (packed.cell_bits, packed.w);
                assert_eq!(packed.bits, ring_bits.max(8), "ka = {ka}");
                assert!((ka - 1) / w < 1 << b, "ka = {ka}, t = {t}");
                assert!(
                    u128::from(w) <= 1 << (packed.bits - b),
                    "ka = {ka}, t = {t}"
                );
                // The row column and the plane's 8 bytes of cells a
                // coordinate of 64 make up the whole row.
                let plane = if b == 0 { 0 } else { 8 * b as usize };
                assert_eq!(packed.row_bytes(64) + plane, CellWidth::row_bytes(ka, 64));
            }
            // Eight coordinates are `B` whole bytes.
            assert_eq!(
                CellWidth::row_bytes(ka, 8),
                ring_bits.max(8) as usize,
                "ka = {ka}"
            );
        }
        // The paper ring at n = 64: 72 bytes, Theorem 3's 69.2 rounded
        // up to 9 whole bits a coordinate, of which 2 in the plane; and
        // row tails that end mid-byte.
        assert_eq!(CellWidth::row_bytes(400, 64), 72);
        assert_eq!(with_plane(100, 400, 64).row_bytes(64), 56);
        assert_eq!(CellWidth::row_bytes(256, 64), 64);
        assert_eq!(CellWidth::row_bytes(400, 13), 15);
        assert_eq!(CellWidth::row_bytes(700, 13), 17);
        assert_eq!(CellWidth::row_bytes((1 << 15) - 1, 3), 6);
        // Wide rings, in their bits too.
        assert_eq!(CellWidth::row_bytes(1 << 15, 3), 6);
        assert_eq!(CellWidth::row_bytes(1 << 31, 3), 12);
        assert_eq!(CellWidth::row_bytes(1 << 20, 64), 160);
        assert_eq!(CellWidth::row_bytes(1 << 32, 64), 256);
        assert_eq!(CellWidth::row_bytes(1 << 40, 64), 320);
        assert_eq!(CellWidth::row_bytes(u64::MAX, 64), 512);
        assert_eq!(with_plane(1 << 18, 1 << 20, 64).row_bytes(64), 144);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The packed row eight coordinates a step has the scalar
        /// loop's cells and bytes on rings of every narrow bit width
        /// (1–15), with planes of every depth — none, part of a chunk,
        /// whole chunks, the whole row — at every dimension from 1 to
        /// 130, on coordinates in `(−ka, ka)` and on rows with `off`
        /// coordinates drawn outside it — `±ka`, `−ka − 1`, `i64::MIN`,
        /// `i64::MAX` and any `i64` among them. The lanes run exactly
        /// when the ring is narrow and every coordinate lies in
        /// `[−ka, ka)`: a quarter of the cases draw a wide ring (16–64
        /// bits), which the lanes refuse.
        #[test]
        fn encode_lanes_match_the_scalar_loop(
            ring_bits in 1u32..=20,
            seed in any::<u64>(),
            dim in 1usize..=130,
            off in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ring_bits = if ring_bits > 15 { rng.gen_range(16..=64) } else { ring_bits };
            // `ka ∈ (2^(bits − 1), 2^bits]`, below 2¹⁵ when narrow.
            let top = u64::MAX >> (64 - ring_bits);
            let last = if ring_bits > 15 { top } else { (top + 1).min((1 << 15) - 1) };
            let ka = rng.gen_range(top / 2 + 2..=last);
            let t = rng.gen_range(0..=ka / 2);
            let lead = [0, rng.gen_range(1..=dim.min(64)), dim.min(64)][rng.gen_range(0..3usize)];
            let packed = with_plane(t, ka, lead);
            let k = ka.min(i64::MAX as u64) as i64;
            let mut sketch: Vec<i64> = (0..dim).map(|_| rng.gen_range(1 - k..k)).collect();
            for _ in 0..off {
                let j = rng.gen_range(0..dim);
                sketch[j] = match rng.gen_range(0..6) {
                    0 => k,
                    1 => -k,
                    2 => (-k).saturating_sub(1),
                    3 => i64::MIN,
                    4 => i64::MAX,
                    _ => rng.gen(),
                };
            }

            let size = packed.row_bytes(dim);
            let (mut cells, mut expected) = (vec![0; packed.lead], vec![0; size]);
            packed.encode_scalar(&sketch, &mut cells, &mut expected);
            let (mut got_cells, mut row) = (vec![0; packed.lead], vec![0; size]);
            packed.encode(&sketch, &mut got_cells, &mut row);
            prop_assert_eq!((&got_cells, &row), (&cells, &expected));
            #[cfg(target_arch = "x86_64")]
            if avx512::available() {
                let (mut got_cells, mut row) = (vec![0; packed.lead], vec![0; size]);
                let lanes = avx512::encode_packed(packed.split(), &sketch, &mut got_cells, &mut row);
                let narrow = ka < 1 << 15 && sketch.iter().all(|v| (-k..k).contains(v));
                prop_assert_eq!(lanes, narrow);
                if lanes {
                    prop_assert_eq!((&got_cells, &row), (&cells, &expected));
                }
            }
        }
    }

    /// Every residue of the ring as a one-coordinate packed row in one
    /// column — a byte or two a row, so most rows share a word — its
    /// cell in a one-coordinate plane where the ring `(t, ka)` gets
    /// one, and `row_matches` over them: what phase 2 decides for the
    /// stored value `a` and the probe `b`.
    struct Ring(Packed, Column, Option<FilterPlane>);

    impl Ring {
        fn new(t: u64, ka: u64) -> Ring {
            let packed = with_plane(t, ka, 1);
            let mut plane = (packed.lead == 1).then(|| FilterPlane::new(1, t, ka));
            if let Some(plane) = &mut plane {
                plane.grow(ka as usize);
            }
            let stride = packed.row_bytes(1);
            let rows = Column::with_capacity(ka as usize * stride);
            for v in 0..ka as i64 {
                let (mut cells, mut row) = (vec![0; packed.lead], vec![0; stride]);
                packed.encode(&[v], &mut cells, &mut row);
                rows.extend(&row);
                if let Some(plane) = &plane {
                    plane.put(v as usize, &cells);
                }
            }
            Ring(packed, rows, plane)
        }

        fn close(&self, a: i64, b: i64) -> bool {
            let Ring(packed, rows, plane) = self;
            let lead = plane
                .as_ref()
                .map_or_else(Lead::none, |plane| plane.lead(a as usize));
            let at = a as usize * packed.row_bytes(1);
            packed.row_matches(lead, rows.words(), at, &[packed.residue(b)])
        }
    }

    /// The packed phase-2 predicate is `cyclic_close`: every residue
    /// pair of rings at and around a byte's capacity, with and without
    /// a short last cell (`2^b ∤ ka`) and with no plane at all, and on
    /// the ring `2¹⁵ − 1` every pair with either side at a cell edge or
    /// the wrap, or within one of them — where `c · w + o`, the short
    /// cell and `ka − d` all meet.
    #[test]
    fn packed_predicate_is_cyclic_close() {
        let thresholds = |ka: u64| [0, 1, 57, 100, 199, ka / 4, ka / 4 + 1, ka / 2, ka];
        for ka in [7u64, 251, 256, 257, 400, 401, 700] {
            for t in thresholds(ka) {
                let ring = Ring::new(t, ka);
                for a in 0..ka as i64 {
                    for b in 0..ka as i64 {
                        let close = cyclic_close(a, b, t, ka);
                        assert_eq!(ring.close(a, b), close, "a={a} b={b} t={t} ka={ka}");
                    }
                }
            }
        }
        let ka = (1u64 << 15) - 1;
        let ka_i = ka as i64;
        for t in thresholds(ka) {
            let ring = Ring::new(t, ka);
            let w = ring.0.w as i64;
            let edges: Vec<i64> = (0..=ka_i / w + 1)
                .flat_map(|k| [k * w - 1, k * w, k * w + 1])
                .chain([ka_i - 1])
                .map(|a| a.rem_euclid(ka_i))
                .collect();
            for &a in &edges {
                for b in 0..ka_i {
                    let close = cyclic_close(a, b, t, ka);
                    assert_eq!(ring.close(a, b), close, "a={a} b={b} t={t}");
                    assert_eq!(ring.close(b, a), close, "a={b} b={a} t={t}");
                }
            }
        }
    }
}
