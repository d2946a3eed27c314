//! The width-typed column buffer of a [`SketchArena`](super::SketchArena),
//! canonical ring representatives, and the scalar match kernel.

use super::shared::Column;
use std::ops::Range;

/// Cell type a [`SketchArena`](super::SketchArena) stores coordinates
/// in, chosen from the ring circumference `ka` at construction (see
/// [`CellWidth::for_ring`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWidth {
    /// 2-byte cells: `ka < 2¹⁵` (the paper's `ka = 400` lands here).
    I16,
    /// 4-byte cells: `ka < 2³¹`.
    I32,
    /// 8-byte cells: everything else.
    I64,
}

impl CellWidth {
    /// The narrowest cell that can hold every canonical representative
    /// of `Z_ka` (values in `[−ka/2, ka/2]`).
    pub fn for_ring(ka: u64) -> CellWidth {
        if ka < 1 << 15 {
            CellWidth::I16
        } else if ka < 1 << 31 {
            CellWidth::I32
        } else {
            CellWidth::I64
        }
    }

    /// Bytes per stored coordinate.
    pub fn cell_bytes(self) -> usize {
        match self {
            CellWidth::I16 => 2,
            CellWidth::I32 => 4,
            CellWidth::I64 => 8,
        }
    }
}

/// A coordinate cell: the width-generic bound of the match kernel.
pub(super) trait Cell: Copy {
    fn widen(self) -> i64;
    fn narrow(v: i64) -> Self;
    /// `|a − b|` as a `u64`, exact for every canonical value of this
    /// width. Narrow cells cannot overflow an `i64` subtraction; `i64`
    /// cells can (canonical values reach `±(2⁶³ − 1)` when
    /// `ka > 2⁶³`), so only that width pays for an `i128` widen.
    fn abs_diff_cells(a: Self, b: Self) -> u64;
}

impl Cell for i16 {
    fn widen(self) -> i64 {
        i64::from(self)
    }
    fn narrow(v: i64) -> i16 {
        v as i16
    }
    fn abs_diff_cells(a: i16, b: i16) -> u64 {
        (i64::from(a) - i64::from(b)).unsigned_abs()
    }
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

/// The one column buffer, typed by the arena's cell width.
#[derive(Debug, Clone)]
pub(super) enum Cells {
    I16(Column<i16>),
    I32(Column<i32>),
    I64(Column<i64>),
}

/// Runs `$body` with `$col` bound to the typed column of `$cells`.
macro_rules! each_width {
    ($cells:expr, $col:ident => $body:expr) => {
        match $cells {
            Cells::I16($col) => $body,
            Cells::I32($col) => $body,
            Cells::I64($col) => $body,
        }
    };
}

impl Cells {
    pub(super) fn with_capacity(width: CellWidth, cells: usize) -> Cells {
        match width {
            CellWidth::I16 => Cells::I16(Column::with_capacity(cells)),
            CellWidth::I32 => Cells::I32(Column::with_capacity(cells)),
            CellWidth::I64 => Cells::I64(Column::with_capacity(cells)),
        }
    }

    pub(super) fn capacity_bytes(&self) -> usize {
        match self {
            Cells::I16(col) => col.capacity() * 2,
            Cells::I32(col) => col.capacity() * 4,
            Cells::I64(col) => col.capacity() * 8,
        }
    }

    /// Makes room for `cells` values in total (exclusive access: the
    /// buffer may move).
    pub(super) fn grow(&mut self, cells: usize) {
        each_width!(self, col => col.grow(cells))
    }

    pub(super) fn truncate(&mut self, cells: usize) {
        each_width!(self, col => col.truncate(cells))
    }

    /// Slides the `len` cells at `from` down to `to` (in-place
    /// compaction; exclusive access).
    pub(super) fn slide(&mut self, from: usize, to: usize, len: usize) {
        each_width!(self, col => col.as_mut_slice().copy_within(from..from + len, to))
    }

    /// Appends one row from a caller's sketch, canonicalised and
    /// narrowed to the cell width on the way in.
    pub(super) fn append_sketch(&self, sketch: &[i64], ka: u64) {
        let (lo, hi) = canonical_range(ka);
        let canonical = sketch.iter().map(|&v| canonical_fast(v, lo, hi, ka));
        each_width!(self, col => col.extend(canonical.map(Cell::narrow)))
    }

    /// Appends cells `at` of `from` verbatim — a stored row is already
    /// canonical, so moving it between arenas of one ring is a copy.
    pub(super) fn append_stored(&self, from: &Cells, at: Range<usize>) {
        match (self, from) {
            (Cells::I16(to), Cells::I16(from)) => to.extend_from_slice(&from.published()[at]),
            (Cells::I32(to), Cells::I32(from)) => to.extend_from_slice(&from.published()[at]),
            (Cells::I64(to), Cells::I64(from)) => to.extend_from_slice(&from.published()[at]),
            _ => panic!("rows move only between arenas of one cell width"),
        }
    }

    /// Widens cells `at` into `out`.
    pub(super) fn widen_into(&self, at: Range<usize>, out: &mut Vec<i64>) {
        each_width!(self, col => out.extend(col.published()[at].iter().map(|&c| c.widen())))
    }

    /// The column buffer as little-endian bytes, in storage order —
    /// the sealed-segment frame payload.
    pub(super) fn to_le_bytes(&self) -> Vec<u8> {
        each_width!(self, col => col.published().iter().flat_map(|c| c.to_le_bytes()).collect())
    }

    /// Rebuilds a column buffer from little-endian bytes. `None` when
    /// the byte count is not a whole number of cells.
    pub(super) fn from_le_bytes(width: CellWidth, bytes: &[u8]) -> Option<Cells> {
        if !bytes.len().is_multiple_of(width.cell_bytes()) {
            return None;
        }
        let cells = Cells::with_capacity(width, bytes.len() / width.cell_bytes());
        match &cells {
            Cells::I16(col) => decode_cells(col, bytes, i16::from_le_bytes),
            Cells::I32(col) => decode_cells(col, bytes, i32::from_le_bytes),
            Cells::I64(col) => decode_cells(col, bytes, i64::from_le_bytes),
        }
        Some(cells)
    }
}

/// Fills an empty column of `bytes.len() / N` cells from `bytes`.
fn decode_cells<C: Copy, const N: usize>(col: &Column<C>, bytes: &[u8], decode: fn([u8; N]) -> C) {
    let chunks = bytes.chunks_exact(N);
    col.extend(chunks.map(|chunk| decode(chunk.try_into().expect("chunks_exact yields N bytes"))));
}

/// The canonical ring representative of `v` in `Z_ka`: the minimal
/// signed residue, in `[−(ka−1)/2, ka/2]`. Conditions (1)–(4) are a
/// cyclic distance on `Z_ka`, so they cannot distinguish `v` from
/// `v ± ka` — storing the canonical form loses nothing and is what lets
/// the cell width follow `ka` instead of `i64`.
pub(super) fn canonical(v: i64, ka: u64) -> i64 {
    // i128: `ka` is a u64, so `v.rem_euclid(ka as i64)` could overflow
    // for ka > i64::MAX; widen once instead of trusting the caller.
    let ka = i128::from(ka);
    let r = i128::from(v).rem_euclid(ka); // r ∈ [0, ka)
    let r = if 2 * r > ka { r - ka } else { r }; // r ∈ [−(ka−1)/2, ka/2]
    r as i64
}

/// The closed interval of already-canonical values for `Z_ka`, clamped
/// to `i64`. Real sketches always land inside it, so the insert hot
/// path reduces canonicalization to two compares per coordinate
/// ([`canonical`]'s `i128` division only runs for out-of-range input).
pub(super) fn canonical_range(ka: u64) -> (i64, i64) {
    let hi = (ka / 2).min(i64::MAX as u64) as i64;
    let lo = -(((ka - 1) / 2).min(i64::MAX as u64) as i64);
    (lo, hi)
}

/// [`canonical`] with the fast path hoisted out (see
/// [`canonical_range`]).
#[inline]
pub(super) fn canonical_fast(v: i64, lo: i64, hi: i64, ka: u64) -> i64 {
    if (lo..=hi).contains(&v) {
        v
    } else {
        canonical(v, ka)
    }
}

/// The early-abort slice kernel: does the contiguous row `s` match the
/// normalized probe under conditions (1)–(4)?
///
/// Both sides hold canonical representatives, so `|a − b| ≤ ka − 1` and
/// the cyclic distance is `min(d, ka − d)` with no `%` in the loop —
/// cheaper per coordinate than [`crate::conditions::cyclic_close`] and
/// exactly equivalent to it on canonical values.
#[inline]
pub(super) fn rows_match<C: Cell>(s: &[C], probe: &[C], t: u64, ka: u64) -> bool {
    s.iter().zip(probe.iter()).all(|(&a, &b)| {
        let d = C::abs_diff_cells(a, b);
        d.min(ka - d) <= t
    })
}

/// Normalizes `probes[p]` for every `p` in `active` into `buf`, one
/// after another, as canonical cells of the arena's width.
pub(super) fn normalize_into<C: Cell>(
    buf: &mut Vec<C>,
    probes: &[&[i64]],
    active: &[usize],
    ka: u64,
) {
    let (lo, hi) = canonical_range(ka);
    buf.clear();
    for &p in active {
        buf.extend(
            probes[p]
                .iter()
                .map(|&v| C::narrow(canonical_fast(v, lo, hi, ka))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_follows_ring() {
        assert_eq!(CellWidth::for_ring(400), CellWidth::I16);
        assert_eq!(CellWidth::for_ring((1 << 15) - 1), CellWidth::I16);
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
        use crate::conditions::cyclic_close;
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
}
