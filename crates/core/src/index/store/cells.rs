//! The one column buffer of a [`SketchArena`](super::SketchArena) in
//! its three row layouts — packed bucket bytes and remainder bits on
//! narrow rings, `i32` or `i64` cells on wide ones — canonical ring
//! representatives, and the scalar match kernels.
//!
//! # The packed row
//!
//! On a ring with `ka < 2¹⁵` a coordinate is stored as its residue
//! `v ∈ [0, ka)` split by the prefilter's bucket width
//! `q = ⌈ka/256⌉` ([`quantize_ring`]): the bucket `b = v / q` in one
//! byte and the remainder `r = v − b·q` in `rbits = ⌈log₂ q⌉` bits —
//! `max(8, ⌈log₂ ka⌉)` bits a coordinate, Theorem 3's
//! `log₂(ka + 1)` rounded up to a whole bit (9 on the paper ring,
//! against the paper's 8.65). A row is `dim` bucket bytes followed by
//! `⌈dim · rbits / 8⌉` remainder bytes, the remainders packed low bit
//! first and eight coordinates — `rbits` whole bytes — a step:
//!
//! ```text
//!   ┌ b₀ b₁ b₂ … b_{dim−1} ┬ r₀…r₇ │ r₈…r₁₅ │ … ┐   72 B at 64 × ka = 400
//!   └── dim bucket bytes ──┴─ ⌈dim·rbits/8⌉ B ──┘   (128 B as i16 cells)
//! ```
//!
//! The bucket bytes lead so that the prefilter plane copies a row's
//! first `F` bytes as they are, so that a ring with `ka ≤ 256`
//! (`q = 1`, `rbits = 0`) stores a byte a coordinate and nothing else,
//! and so that a row which does not match is turned away on its
//! buckets alone ([`Packed::row_matches`]): the remainder bits, a
//! cache line further on, are read only for a row whose every bucket
//! is within the plane's conservative distance of the probe's.

use super::shared::Column;
use std::cell::RefCell;
use std::marker::PhantomData;

/// Row layout a [`SketchArena`](super::SketchArena) stores coordinates
/// in, chosen from the ring circumference `ka` at construction (see
/// [`CellWidth::for_ring`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWidth {
    /// A bucket byte and `⌈log₂⌈ka/256⌉⌉` remainder bits a coordinate:
    /// `ka < 2¹⁵` (the paper's `ka = 400` lands here, at 9 bits).
    Packed,
    /// 4-byte cells: `ka < 2³¹`.
    I32,
    /// 8-byte cells: everything else.
    I64,
}

impl CellWidth {
    /// The narrowest layout that can hold every residue of `Z_ka`.
    pub fn for_ring(ka: u64) -> CellWidth {
        if ka < 1 << 15 {
            CellWidth::Packed
        } else if ka < 1 << 31 {
            CellWidth::I32
        } else {
            CellWidth::I64
        }
    }

    /// Bytes a stored row of `dim` coordinates takes on the ring `ka`
    /// (saturating: `dim` may be a frame's claim).
    pub fn row_bytes(ka: u64, dim: usize) -> usize {
        match CellWidth::for_ring(ka) {
            CellWidth::Packed => Packed::new(0, ka).stride(dim),
            CellWidth::I32 => dim.saturating_mul(4),
            CellWidth::I64 => dim.saturating_mul(8),
        }
    }
}

/// The bucket quantization of a ring with `ka < 2¹⁵`, shared by the
/// packed row and the prefilter plane: `(q, kq, tq)` where
/// `q = ⌈ka/256⌉` is the bucket width (the smallest divisor that
/// leaves at most 256 buckets, 1 when the ring already fits a byte),
/// `kq = ⌈ka/q⌉` the bucket count, and `tq` the conservative
/// bucket-distance threshold. With `t' = min(t, ka/2)`
/// the exact residue test `|a − b|_cyc ≤ t'` implies the bucket test
/// `|a/q − b/q|_cyc ≤ ⌈t'/q⌉ + 1` (bucketing moves each endpoint by
/// < q, and the wrap-around leg over `kq` buckets shrinks by at most
/// one extra bucket when `q ∤ ka`), so `tq = ⌈t'/q⌉ + 1` over-accepts
/// and never over-rejects; `q = 1` needs no slack and keeps `t'`.
pub(super) fn quantize_ring(t: u64, ka: u64) -> (u16, u16, u16) {
    debug_assert!(ka < 1 << 15);
    let t_eff = t.min(ka / 2) as u16;
    let q = (ka as u16).div_ceil(256).max(1);
    let kq = (ka as u16).div_ceil(q);
    let tq = if q == 1 {
        t_eff
    } else {
        (t_eff.div_ceil(q) + 1).min(kq / 2)
    };
    (q, kq, tq)
}

/// How a row lies in the column and is compared with a prepared probe:
/// what a sweep is generic over.
pub(super) trait Layout: Copy {
    /// The column's element.
    type Unit: Copy;
    /// A prepared probe's element, `dim` a probe.
    type Probe: Copy;
    /// Units a row of `dim` coordinates takes.
    fn stride(self, dim: usize) -> usize;
    /// A caller's coordinate reduced into the ring, as a probe holds
    /// it.
    fn prepare(self, v: i64) -> Self::Probe;
    /// The early-abort row kernel: is every coordinate of `row` within
    /// the arena's cyclic distance `t` of the probe's? The row's
    /// leading `planed` coordinates have been through phase 1 — their
    /// buckets are known to lie within the plane's distance of the
    /// probe's — which a kernel may use to reject sooner, never to
    /// accept.
    fn row_matches(self, row: &[Self::Unit], probe: &[Self::Probe], planed: usize) -> bool;
}

/// The packed layout of one narrow ring (module docs) and the
/// threshold its rows are matched under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Packed {
    ka: u32,
    /// `min(t, ka)`.
    t: u32,
    /// [`quantize_ring`]: bucket width, bucket count, and the bucket
    /// distance no matching coordinate exceeds.
    q: u32,
    kq: u32,
    tq: u32,
    /// `⌈log₂ q⌉`, at most 7.
    rbits: usize,
    /// `⌈2²⁴ / q⌉`: `(v · magic) >> 24 = v / q` for every `v < 2¹⁵`
    /// and `q ≤ 128` (the rounding error `magic · q − 2²⁴ < q` times
    /// `v` stays below `2²⁴`).
    magic: u64,
}

/// A probe coordinate prepared for a packed arena: its residue and the
/// bucket the residue falls in, divided once per sweep.
#[derive(Debug, Clone, Copy)]
pub(super) struct Reduced {
    pub(super) residue: u16,
    pub(super) bucket: u16,
}

impl Packed {
    pub(super) fn new(t: u64, ka: u64) -> Packed {
        let (q, kq, tq) = quantize_ring(t, ka);
        Packed {
            ka: ka as u32,
            t: t.min(ka) as u32,
            q: u32::from(q),
            kq: u32::from(kq),
            tq: u32::from(tq),
            rbits: (u16::BITS - (q - 1).leading_zeros()) as usize,
            magic: (1u64 << 24).div_ceil(u64::from(q)),
        }
    }

    /// `v mod ka` in `[0, ka)`. Real sketches lie within a ring of
    /// zero, on either side of it at random: the sign is folded in
    /// without a branch, and the division only runs for out-of-range
    /// input.
    #[inline]
    fn residue(self, v: i64) -> u16 {
        let ka = i64::from(self.ka);
        let r = v + (ka & (v >> 63));
        if (0..ka).contains(&r) {
            r as u16
        } else {
            v.rem_euclid(ka) as u16
        }
    }

    /// `v / q` for a residue `v`.
    #[inline]
    fn bucket(self, v: u64) -> u64 {
        (v * self.magic) >> 24
    }

    /// Encodes `sketch` as one packed row into `out`, `stride` bytes.
    /// One width of integer from the coordinate to the packed word: at
    /// some thirteen operations a coordinate this loop is most of an
    /// insert, and narrowing on the way cost a fifth of it.
    fn encode(self, sketch: &[i64], out: &mut [u8]) {
        let (buckets, rems) = out.split_at_mut(sketch.len());
        let (q, rbits) = (u64::from(self.q), self.rbits);
        let mut rems = rems.iter_mut();
        for (vs, bs) in sketch.chunks(8).zip(buckets.chunks_mut(8)) {
            // Eight coordinates' remainders are `rbits` whole bytes.
            let (mut word, mut shift) = (0u64, 0);
            for (&v, b) in vs.iter().zip(bs) {
                let v = u64::from(self.residue(v));
                let bucket = self.bucket(v);
                *b = bucket as u8;
                word |= (v - bucket * q) << shift;
                shift += rbits;
            }
            for byte in rems.by_ref().take((vs.len() * rbits).div_ceil(8)) {
                *byte = word as u8;
                word >>= 8;
            }
        }
    }

    /// Calls `keep(i, bucket, remainder)` for coordinate `i = 0, 1, …`
    /// of a packed row until it says `false`; `true` when it never did.
    #[inline]
    fn all_coords(
        self,
        row: &[u8],
        dim: usize,
        mut keep: impl FnMut(usize, u32, u32) -> bool,
    ) -> bool {
        let (buckets, rems) = row.split_at(dim);
        let (rbits, mask) = (self.rbits, (1u64 << self.rbits) - 1);
        for (c, bs) in buckets.chunks(8).enumerate() {
            let bytes = &rems[c * rbits..][..(bs.len() * rbits).div_ceil(8)];
            let word = bytes.iter().rev().fold(0u64, |w, &x| w << 8 | u64::from(x));
            for (j, &b) in bs.iter().enumerate() {
                if !keep(8 * c + j, u32::from(b), (word >> (j * rbits) & mask) as u32) {
                    return false;
                }
            }
        }
        true
    }
}

impl Layout for Packed {
    type Unit = u8;
    type Probe = Reduced;

    /// `dim` bucket bytes, `rbits` bytes for every eight remainders
    /// and what the last few need: `dim + ⌈dim · rbits / 8⌉`.
    fn stride(self, dim: usize) -> usize {
        dim + dim / 8 * self.rbits + (dim % 8 * self.rbits).div_ceil(8)
    }

    fn prepare(self, v: i64) -> Reduced {
        let residue = self.residue(v);
        let bucket = self.bucket(u64::from(residue)) as u16;
        Reduced { residue, bucket }
    }

    /// `probe` holds residues ([`Packed::prepare`]), as the row does,
    /// so the cyclic distance is `min(d, ka − d)` on `d = |v − p| < ka`
    /// — the [`rows_match`] predicate on the same integers. The bucket
    /// bytes go first, all that phase 1 has not been over already,
    /// under the plane's conservative test ([`quantize_ring`]: it
    /// turns away no coordinate that matches): a row that does not
    /// match fails it within a few coordinates, so its remainder bits
    /// — the row's second cache line — are never fetched. Acceptance
    /// is the exact pass's alone, over every coordinate.
    #[inline]
    fn row_matches(self, row: &[u8], probe: &[Reduced], planed: usize) -> bool {
        let may_match = row[planed..].iter().zip(&probe[planed..]).all(|(&b, p)| {
            let d = u32::from(b).abs_diff(u32::from(p.bucket));
            d.min(self.kq - d) <= self.tq
        });
        may_match
            && self.all_coords(row, probe.len(), |i, b, r| {
                let d = (b * self.q + r).abs_diff(u32::from(probe[i].residue));
                d.min(self.ka - d) <= self.t
            })
    }
}

/// A coordinate cell of a wide ring: the width-generic bound of the
/// [`Wide`] layout.
pub(super) trait Cell: Copy {
    fn widen(self) -> i64;
    fn narrow(v: i64) -> Self;
    /// `|a − b|` as a `u64`, exact for every canonical value of this
    /// width. `i32` cells cannot overflow an `i64` subtraction; `i64`
    /// cells can (canonical values reach `±(2⁶³ − 1)` when
    /// `ka > 2⁶³`), so only that width pays for an `i128` widen.
    fn abs_diff_cells(a: Self, b: Self) -> u64;
}

impl Cell for i32 {
    fn widen(self) -> i64 {
        i64::from(self)
    }
    fn narrow(v: i64) -> i32 {
        v as i32
    }
    fn abs_diff_cells(a: i32, b: i32) -> u64 {
        (i64::from(a) - i64::from(b)).unsigned_abs()
    }
}

impl Cell for i64 {
    fn widen(self) -> i64 {
        self
    }
    fn narrow(v: i64) -> i64 {
        v
    }
    fn abs_diff_cells(a: i64, b: i64) -> u64 {
        (i128::from(a) - i128::from(b)).unsigned_abs() as u64
    }
}

/// The layout of a wide ring — a row is `dim` canonical cells — with
/// the threshold and circumference its rows are matched under.
#[derive(Debug, Clone, Copy)]
pub(super) struct Wide<C> {
    t: u64,
    ka: u64,
    cell: PhantomData<C>,
}

impl<C> Wide<C> {
    fn new(t: u64, ka: u64) -> Wide<C> {
        let cell = PhantomData;
        Wide { t, ka, cell }
    }
}

impl<C: Cell> Layout for Wide<C> {
    type Unit = C;
    type Probe = C;

    fn stride(self, dim: usize) -> usize {
        dim
    }

    #[inline]
    fn prepare(self, v: i64) -> C {
        C::narrow(canonical(v, self.ka))
    }

    #[inline]
    fn row_matches(self, row: &[C], probe: &[C], _planed: usize) -> bool {
        rows_match(row, probe, self.t, self.ka)
    }
}

/// The one column buffer, typed by the arena's row layout.
#[derive(Debug, Clone)]
pub(super) enum Cells {
    Packed(Packed, Column<u8>),
    I32(Wide<i32>, Column<i32>),
    I64(Wide<i64>, Column<i64>),
}

/// Runs `$body` with `$layout` and `$col` bound to the layout and the
/// typed column of `$cells`.
macro_rules! each_width {
    ($cells:expr, $layout:pat, $col:ident => $body:expr) => {
        match $cells {
            Cells::Packed($layout, $col) => $body,
            Cells::I32($layout, $col) => $body,
            Cells::I64($layout, $col) => $body,
        }
    };
}

thread_local! {
    /// The row a packed append encodes before it lands in the column
    /// in one `extend` (never held across user code).
    static ENCODED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl Cells {
    /// An empty buffer in the layout of the ring `ka`, its rows to be
    /// matched under the threshold `t`.
    pub(super) fn for_ring(t: u64, ka: u64) -> Cells {
        match CellWidth::for_ring(ka) {
            CellWidth::Packed => Cells::Packed(Packed::new(t, ka), Column::with_capacity(0)),
            CellWidth::I32 => Cells::I32(Wide::new(t, ka), Column::with_capacity(0)),
            CellWidth::I64 => Cells::I64(Wide::new(t, ka), Column::with_capacity(0)),
        }
    }

    /// Column units a row of `dim` coordinates takes.
    pub(super) fn stride(&self, dim: usize) -> usize {
        each_width!(self, layout, _col => layout.stride(dim))
    }

    pub(super) fn capacity_bytes(&self) -> usize {
        match self {
            Cells::Packed(_, col) => col.capacity(),
            Cells::I32(_, col) => col.capacity() * 4,
            Cells::I64(_, col) => col.capacity() * 8,
        }
    }

    /// Makes room for `rows` rows in total (exclusive access: the
    /// buffer may move).
    pub(super) fn grow(&mut self, rows: usize, dim: usize) {
        let units = rows * self.stride(dim);
        each_width!(self, _, col => col.grow(units))
    }

    pub(super) fn truncate(&mut self, rows: usize, dim: usize) {
        let units = rows * self.stride(dim);
        each_width!(self, _, col => col.truncate(units))
    }

    /// Slides row `from` down to row `to` (in-place compaction;
    /// exclusive access).
    pub(super) fn slide(&mut self, from: usize, to: usize, dim: usize) {
        let stride = self.stride(dim);
        let at = from * stride..(from + 1) * stride;
        each_width!(self, _, col => col.as_mut_slice().copy_within(at, to * stride))
    }

    /// Appends one row from a caller's sketch, reduced into the ring
    /// and laid out on the way in.
    pub(super) fn append_sketch(&self, sketch: &[i64]) {
        match self {
            Cells::Packed(packed, col) => ENCODED.with(|row| {
                let row = &mut *row.borrow_mut();
                row.resize(packed.stride(sketch.len()), 0);
                packed.encode(sketch, row);
                col.extend_from_slice(row);
            }),
            Cells::I32(wide, col) => col.extend(sketch.iter().map(|&v| wide.prepare(v))),
            Cells::I64(wide, col) => col.extend(sketch.iter().map(|&v| wide.prepare(v))),
        }
    }

    /// Appends row `row` of `from` verbatim — a stored row is already
    /// in this ring's layout, so moving it between arenas of one ring
    /// and dimension is a copy.
    pub(super) fn append_stored(&self, from: &Cells, row: usize, dim: usize) {
        let stride = self.stride(dim);
        let at = row * stride..(row + 1) * stride;
        match (self, from) {
            (Cells::Packed(a, to), Cells::Packed(b, from)) if a == b => {
                to.extend_from_slice(&from.published()[at]);
            }
            (Cells::I32(_, to), Cells::I32(_, from)) => to.extend_from_slice(&from.published()[at]),
            (Cells::I64(_, to), Cells::I64(_, from)) => to.extend_from_slice(&from.published()[at]),
            _ => panic!("rows move only between arenas of one layout"),
        }
    }

    /// Decodes row `row` into `out` as canonical representatives.
    pub(super) fn decode_into(&self, row: usize, dim: usize, out: &mut Vec<i64>) {
        let stride = self.stride(dim);
        let at = row * stride..(row + 1) * stride;
        match self {
            Cells::Packed(packed, col) => {
                let (ka, half, q) = (i64::from(packed.ka), packed.ka / 2, packed.q);
                packed.all_coords(&col.published()[at], dim, |_, b, r| {
                    let v = b * q + r;
                    // `v − ka` past the half ring: `canonical`'s `2r > ka`.
                    out.push(i64::from(v) - if v > half { ka } else { 0 });
                    true
                });
            }
            Cells::I32(_, col) => out.extend(col.published()[at].iter().map(|&c| c.widen())),
            Cells::I64(_, col) => out.extend(col.published()[at].iter().map(|&c| c.widen())),
        }
    }
}

/// The canonical ring representative of `v` in `Z_ka`: the minimal
/// signed residue, in `[−(ka−1)/2, ka/2]`. Conditions (1)–(4) are a
/// cyclic distance on `Z_ka`, so they cannot distinguish `v` from
/// `v ± ka` — storing the canonical form loses nothing and is what lets
/// the row layout follow `ka` instead of `i64`.
///
/// This is the one definition of what an index row reads back as:
/// every layout stores it (the wide cells verbatim, the packed row as
/// its residue, which `Cells::decode_into` folds back the same way),
/// so a caller that must restore the value it inserted — a server's
/// record patches — compares against this instead of decoding the row.
/// Real sketches land inside the canonical range, where this is two
/// compares; the `i128` division only runs for out-of-range input.
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

/// The early-abort slice kernel of the wide layouts: does the
/// contiguous row `s` match the normalized probe under conditions
/// (1)–(4)?
///
/// Both sides hold canonical representatives, so `|a − b| ≤ ka − 1` and
/// the cyclic distance is `min(d, ka − d)` with no `%` in the loop —
/// cheaper per coordinate than [`crate::conditions::cyclic_close`] and
/// exactly equivalent to it on canonical values.
#[inline]
fn rows_match<C: Cell>(s: &[C], probe: &[C], t: u64, ka: u64) -> bool {
    s.iter().zip(probe.iter()).all(|(&a, &b)| {
        let d = C::abs_diff_cells(a, b);
        d.min(ka - d) <= t
    })
}

/// Prepares `probes[p]` for every `p` in `active` into `buf`, one
/// after another, as the layout's sweep reads them.
pub(super) fn prepare_into<L: Layout>(
    layout: L,
    buf: &mut Vec<L::Probe>,
    probes: &[&[i64]],
    active: &[usize],
) {
    buf.clear();
    for &p in active {
        buf.extend(probes[p].iter().map(|&v| layout.prepare(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::cyclic_close;

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

    #[test]
    fn kernel_matches_cyclic_close_on_canonical_values() {
        let ka = 40u64;
        for t in [1u64, 5, 19] {
            for a in -60i64..60 {
                for b in -60i64..60 {
                    let ca = canonical(a, ka);
                    let cb = canonical(b, ka);
                    let d = (ca - cb).unsigned_abs();
                    assert_eq!(
                        d.min(ka - d) <= t,
                        cyclic_close(a, b, t, ka),
                        "a={a} b={b} t={t}"
                    );
                }
            }
        }
    }

    /// The multiply-shift is the division: every bucket width a narrow
    /// ring can have (`q ≤ 128`), every residue below `2¹⁵`.
    #[test]
    fn multiply_shift_divides_by_every_bucket_width() {
        for q in 1u32..=128 {
            // The smallest ring with this bucket width.
            let packed = Packed::new(0, u64::from(256 * (q - 1) + 1));
            assert_eq!(packed.q, q);
            for v in 0u32..1 << 15 {
                assert_eq!(
                    packed.bucket(u64::from(v)),
                    u64::from(v / q),
                    "v = {v}, q = {q}"
                );
            }
        }
    }

    /// Bits a stored coordinate takes: one bucket byte and `⌈log₂ q⌉`
    /// remainder bits, `max(8, ⌈log₂ ka⌉)` on every narrow ring — and
    /// the bucket count fits the byte.
    #[test]
    fn a_coordinate_takes_a_byte_or_the_rings_bits() {
        for ka in 2u64..1 << 15 {
            let packed = Packed::new(0, ka);
            let ring_bits = u64::BITS - (ka - 1).leading_zeros(); // ⌈log₂ ka⌉
            assert_eq!(8 + packed.rbits as u32, ring_bits.max(8), "ka = {ka}");
            // Eight coordinates are `8 + rbits` whole bytes.
            assert_eq!(CellWidth::row_bytes(ka, 8), 8 + packed.rbits, "ka = {ka}");
            assert!(ka.div_ceil(u64::from(packed.q)) <= 256, "ka = {ka}");
            assert!(packed.q <= 1 << packed.rbits, "ka = {ka}");
        }
        // The paper ring at n = 64: 72 bytes, Theorem 3's 69.2 rounded
        // up to 9 whole bits a coordinate; and row tails that end
        // mid-byte.
        assert_eq!(CellWidth::row_bytes(400, 64), 72);
        assert_eq!(CellWidth::row_bytes(256, 64), 64);
        assert_eq!(CellWidth::row_bytes(400, 13), 13 + 2);
        assert_eq!(CellWidth::row_bytes(700, 13), 13 + 4);
        assert_eq!(CellWidth::row_bytes((1 << 15) - 1, 3), 3 + 3);
        assert_eq!(CellWidth::row_bytes(1 << 15, 3), 12);
        assert_eq!(CellWidth::row_bytes(1 << 31, 3), 24);
    }

    /// Every residue of the ring as a one-coordinate packed row, and
    /// `row_matches` over them: what a sweep decides for the stored
    /// value `a` and the probe `b`.
    struct Ring(u64, Vec<Vec<u8>>);

    impl Ring {
        fn new(ka: u64) -> Ring {
            let packed = Packed::new(0, ka);
            let row = |v: i64| {
                let mut row = vec![0; packed.stride(1)];
                packed.encode(&[v], &mut row);
                row
            };
            Ring(ka, (0..ka as i64).map(row).collect())
        }

        fn close(&self, a: i64, b: i64, t: u64) -> bool {
            let Ring(ka, rows) = self;
            let packed = Packed::new(t, *ka);
            packed.row_matches(&rows[a as usize], &[packed.prepare(b)], 0)
        }
    }

    /// The packed phase-2 predicate is `cyclic_close`: every residue
    /// pair of rings at and around a byte's capacity, with and without
    /// a short last bucket (`q ∤ ka`), and on the largest narrow ring
    /// every pair with either side in the two buckets next to the
    /// wrap, or within one of them — where `b · q + r`, the short
    /// bucket and `ka − d` all meet.
    #[test]
    fn packed_predicate_is_cyclic_close() {
        let thresholds = |ka: u64| [0, 1, 57, 100, 199, ka / 2, ka];
        for ka in [7u64, 251, 256, 257, 400, 401, 700] {
            let ring = Ring::new(ka);
            for t in thresholds(ka) {
                for a in 0..ka as i64 {
                    for b in 0..ka as i64 {
                        let close = cyclic_close(a, b, t, ka);
                        assert_eq!(ring.close(a, b, t), close, "a={a} b={b} t={t} ka={ka}");
                    }
                }
            }
        }
        let ka = (1u64 << 15) - 1;
        let (ring, ka_i) = (Ring::new(ka), ka as i64);
        // Buckets 0 and 255 (127 residues: 128 ∤ 32 767) and one more
        // residue on either side of each.
        let edges: Vec<i64> = (-1..=128).chain(ka_i - 128..ka_i).collect();
        for t in thresholds(ka) {
            for a in edges.iter().map(|a| a.rem_euclid(ka_i)) {
                for b in 0..ka_i {
                    let close = cyclic_close(a, b, t, ka);
                    assert_eq!(ring.close(a, b, t), close, "a={a} b={b} t={t}");
                    assert_eq!(ring.close(b, a, t), close, "a={b} b={a} t={t}");
                }
            }
        }
    }
}
