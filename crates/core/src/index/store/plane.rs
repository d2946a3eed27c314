//! The prefilter plane: the cell bits of the leading coordinates of
//! every row, bit-sliced 512 rows a block, the rule that sizes a cell,
//! and the one phase-1 word loop over them.
//!
//! # Cells
//!
//! A packed coordinate's residue `r ∈ [0, ka)` is a **cell**
//! `c = r / w` and an offset `r − c·w`, with `w = ⌈ka / 2^b⌉`
//! ([`cell_bits`] picks `b` from `(t, ka)`; the last cell is short when
//! `2^b ∤ ka`). The plane holds the `b` cell bits of the first
//! `D = min(dim, 64)` coordinates of every row, the row column the
//! offsets and the whole residues past `D` (the `cells` module docs).
//! A probe coordinate `p` **excludes** every cell that lies wholly
//! outside its arc `[p − t, p + t]`: no residue of such a cell can
//! match `p`, so a row whose cell is excluded is turned away on `b`
//! bits. At the paper ring (`t = 100`, `ka = 400`) `b = 2`, `w = 100`,
//! and every probe coordinate excludes exactly one of the four cells.
//!
//! # The block
//!
//! Rows are stored 512 a **block**. For coordinate `j` a block holds
//! `b` runs of eight `u64`s, run `i` holding bit `i` of the cells: bit
//! `g` of word `k` of a run is row `64k + g` of the block. Coordinates
//! follow one another, and blocks are contiguous, so phase 1 reads the
//! plane front to back. Word `k` of every run is the block's 64-row
//! **group** `k`: the unit of publication. A block is published,
//! zeroed, when its first row lands ([`FilterPlane::put`]). A row's
//! cells go first into the **staging**, the open group's cells
//! row-major, a byte each — eight plain stores, where setting the
//! row's `b·D` bits in place took 128 scattered read-modify-writes at
//! the paper shape — and the group's 64th row transposes the group into
//! its words, all before the row count that publishes the row: the
//! rule in the `shared` module docs. Phase 1 reads a block eight words
//! at a time and keeps candidates only in complete groups — the open
//! block's later groups enter it with none — and the rows of the open
//! group (at most 63 an arena) go straight to phase 2, their cells
//! copied from the staging under a sequence check ([`Lead`]).
//!
//! # Phase 1
//!
//! A probe is a list of cell tests ([`Test`]), one for each cell each
//! of its leading coordinates excludes; a coordinate that excludes
//! nothing has none and costs nothing. [`PlaneView::survivors`] ANDs a
//! block's candidate words, test after test, with "this row's cell is
//! not the excluded one" — `OR` over the `b` runs of `run ^ cell bit` —
//! and stops once every candidate word is zero, which it checks every
//! [`CHECK_EVERY`] tests. One safe loop on every target: the words are
//! `AtomicU64`s read by `Relaxed` loads, which are plain loads on
//! every target the crate builds for.

use super::cells::Packed;
use super::shared::Column;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Rows a block holds: eight 64-row groups.
pub(super) const BLOCK_ROWS: usize = 512;
/// Words a run takes: one a 64-row group of the block.
const GROUP_WORDS: usize = BLOCK_ROWS / 64;
/// The most coordinates a plane holds: a row's cells are at most eight
/// staging words.
const MAX_DIMS: usize = 64;
/// `0x01` in every byte: bit 0 of each of eight cells.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
/// Cell tests between two checks for an all-zero block.
pub(super) const CHECK_EVERY: usize = 4;
/// The most cell bits a coordinate keeps in the plane: a cell fits a
/// byte.
const MAX_CELL_BITS: u32 = 8;

/// The plane's cell bits `b` on the ring `(t, ka)`: of
/// `b = 1 ..= min(8, ⌈log₂ ka⌉)`, the one whose cells reject the most
/// rows per stored bit, the smaller on a tie; 0 — no plane — when no
/// cell of any of them can ever lie wholly outside a probe's arc.
///
/// The arc `[p − t', p + t']`, `t' = min(t, ⌊ka/2⌋)`, leaves a window
/// of `m = ka − 2t' − 1` residues that do not match `p`. A cell of
/// width `x ≤ m` lies wholly in that window for `m − x + 1` of the
/// `ka` probes, so a coordinate rejects
/// `Σ x · (m − x + 1)⁺ / ka²` of the rows in expectation; the rule
/// compares that over `b` exactly, in integers — 128 bits, where
/// `x · (m − x + 1)` outgrows 64 on a wide ring. At the paper ring
/// `b = 2` (one cell of 100 always excluded: ¼ of the rows) ties with
/// `b = 3` (three of 50: ⅜) and wins; one more on `t` and `b = 3`
/// wins.
pub(super) fn cell_bits(t: u64, ka: u64) -> u32 {
    let arc = 2 * t.min(ka / 2) + 1;
    if arc >= ka {
        return 0;
    }
    let m = u128::from(ka - arc);
    let ring_bits = u64::BITS - (ka - 1).leading_zeros();
    let (mut best, mut best_gain) = (0, 0u128);
    for b in 1..=ring_bits.min(MAX_CELL_BITS) {
        let w = ka.div_ceil(1 << b);
        let (full, short, w) = (u128::from(ka / w), u128::from(ka % w), u128::from(w));
        let gain = full * w * (m + 1).saturating_sub(w) + short * (m + 1).saturating_sub(short);
        // `gain / b > best_gain / best`, with `best_gain = 0` at first:
        // whole parts, then remainders (`gain · b` may pass 2¹²⁸).
        let (nb, db) = (u128::from(b), u128::from(best.max(1)));
        if (gain / nb, gain % nb * db) > (best_gain / db, best_gain % db * nb) {
            (best, best_gain) = (b, gain);
        }
    }
    best
}

/// One cell test of a probe: the word a coordinate's first run starts
/// at within a block, and the cell that coordinate excludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Test {
    at: u32,
    cell: u32,
}

/// The cell bits of the leading coordinates of every row, bit-sliced
/// 512 rows a block (module docs). Only rows' *positions* live here:
/// liveness stays in the arena's tombstone words, which the candidate
/// words start from, so `remove` never touches the plane.
#[derive(Debug)]
pub(super) struct FilterPlane {
    /// The blocks, [`FilterPlane::stride`] words each: every complete
    /// block, and the open one from its first row on; a group's words
    /// are written when its 64th row lands.
    words: Column<AtomicU64>,
    /// The open group's cells, row-major, one a byte: row `g` of the
    /// group is [`FilterPlane::row_words`] words, coordinate `j` in
    /// byte `j % 8` of its word `j / 8`.
    staging: Box<[AtomicU64]>,
    /// The group (`row / 64` of the arena) whose cells `staging` holds:
    /// what a reader of the open group checks its copy against.
    staged: AtomicUsize,
    /// Coordinates whose cells the plane holds: `D`.
    dims: usize,
    /// Cell bits a coordinate: `b ≥ 1`.
    bits: usize,
}

/// A copy of a plane word.
fn copy_word(word: &AtomicU64) -> AtomicU64 {
    AtomicU64::new(word.load(Ordering::Relaxed))
}

impl FilterPlane {
    /// A plane of `dims` coordinates on the ring `(t, ka)`, whose
    /// [`cell_bits`] must not be 0.
    pub(super) fn new(dims: usize, t: u64, ka: u64) -> FilterPlane {
        let bits = cell_bits(t, ka);
        debug_assert!((1..=MAX_DIMS).contains(&dims) && bits >= 1);
        FilterPlane {
            words: Column::with_capacity(0),
            staging: (0..64 * dims.div_ceil(8))
                .map(|_| AtomicU64::new(0))
                .collect(),
            staged: AtomicUsize::new(0),
            dims,
            bits: bits as usize,
        }
    }

    pub(super) fn dims(&self) -> usize {
        self.dims
    }

    pub(super) fn bits(&self) -> usize {
        self.bits
    }

    /// Words a block takes.
    fn stride(&self) -> usize {
        self.dims * self.bits * GROUP_WORDS
    }

    /// Staging words a row's cells take.
    fn row_words(&self) -> usize {
        self.dims.div_ceil(8)
    }

    pub(super) fn heap_bytes(&self) -> usize {
        (self.words.capacity() + self.staging.len()) * 8
    }

    /// Makes room for the blocks of `total_rows` rows (exclusive
    /// access: the buffer may move).
    pub(super) fn grow(&mut self, total_rows: usize) {
        let words = total_rows.div_ceil(BLOCK_ROWS) * self.stride();
        if words > self.words.capacity() {
            self.words = self.words.copied(words, copy_word);
        }
    }

    /// Stores row `row`'s `cells`, one a leading coordinate: the
    /// writer's half of the rule in the `shared` module docs. Rows
    /// arrive densely in order, from the one writer. A row's cells go
    /// into the staging, row-major — a few plain stores (module docs) —
    /// and the group's 64th row transposes the whole group into its
    /// plane words. The block's first row publishes the block,
    /// zeroed, with one `extend`; a group's first row marks the staging
    /// as its own before writing to it, so that a reader still copying
    /// the group before sees its copy go stale ([`Lead`]).
    pub(super) fn put(&self, row: usize, cells: &[u8]) {
        debug_assert_eq!(cells.len(), self.dims);
        if row.is_multiple_of(BLOCK_ROWS) {
            self.words
                .extend((0..self.stride()).map(|_| AtomicU64::new(0)));
        }
        if row.is_multiple_of(64) {
            // The Release store carries the last group's plane words to
            // a reader that sees the new mark; the fence keeps the
            // staging stores below from overtaking the mark.
            self.staged.store(row / 64, Ordering::Release);
            fence(Ordering::Release);
        }
        let slot = &self.staging[row % 64 * self.row_words()..][..self.row_words()];
        for (word, eight) in slot.iter().zip(cells.chunks(8)) {
            let bytes = <[u8; 8]>::try_from(eight).unwrap_or_else(|_| {
                let mut bytes = [0; 8];
                bytes[..eight.len()].copy_from_slice(eight);
                bytes
            });
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        if row % 64 == 63 {
            self.transpose(row / 64);
        }
    }

    /// Writes group `group`'s plane words from the staging, eight
    /// coordinates — one staging word a row — at a time: for each cell
    /// bit, the 64 rows' bits of the eight coordinates are gathered
    /// eight rows a word (byte `p` of word `q` holding rows `8q … 8q+7`
    /// of coordinate `p`), and the 8 × 8 bytes transposed into the
    /// coordinates' runs.
    fn transpose(&self, group: usize) {
        let stride = self.stride();
        let block = &self.words.published()[group / GROUP_WORDS * stride..][..stride];
        let per_row = self.row_words();
        for c in 0..per_row {
            let rows: [u64; 64] =
                std::array::from_fn(|row| self.staging[row * per_row + c].load(Ordering::Relaxed));
            for r in 0..self.bits {
                let mut runs: [u64; 8] = std::array::from_fn(|q| {
                    (0..8).fold(0, |eight, i| eight | (rows[8 * q + i] >> r & LOW_BITS) << i)
                });
                transpose_bytes(&mut runs);
                for (p, &run) in runs[..(self.dims - 8 * c).min(8)].iter().enumerate() {
                    let at = ((8 * c + p) * self.bits + r) * GROUP_WORDS + group % GROUP_WORDS;
                    block[at].store(run, Ordering::Relaxed);
                }
            }
        }
    }

    /// Row `row`'s cells, for a row below the published row count.
    pub(super) fn lead(&self, row: usize) -> Lead<'_> {
        Lead::of(self.words.published(), self, row)
    }

    /// The plane as a sweep of the first `rows` rows sees it. Slicing
    /// the blocks they span fails loudly should a row count ever be
    /// published before its block.
    pub(super) fn view(&self, rows: usize) -> PlaneView<'_> {
        PlaneView {
            plane: self,
            words: &self.words.published()[..rows.div_ceil(BLOCK_ROWS) * self.stride()],
            groups: rows / 64,
        }
    }

    /// Appends the cell tests of one prepared probe — its residues, the
    /// leading `dims` of them read — to `tests`: for each coordinate,
    /// every cell of `ring`'s (the arena's row, whose cell width and
    /// threshold the plane was built for) wholly inside the window its
    /// arc leaves, `t' + 1` past the probe and `m` long, in order. The
    /// window is shorter than the ring, so the walk ends before it
    /// comes round to its first cell. No sum passes `ka`, so none
    /// overflows on any ring.
    pub(super) fn tests(&self, ring: Packed, probe: &[u64], tests: &mut Vec<Test>) {
        let (ka, w, t) = (ring.ka, ring.w, ring.t.min(ring.ka / 2));
        let (past, m, last) = (t + 1, ka - 2 * t - 1, (ka - 1) / w);
        for (j, &p) in probe[..self.dims].iter().enumerate() {
            let at = (j * self.bits * GROUP_WORDS) as u32;
            // The window starts `t' + 1` past the probe: its first
            // whole cell starts there or after, or wraps to cell 0.
            let start = if p < ka - past {
                p + past
            } else {
                p - (ka - past)
            };
            let mut cell = start.div_ceil(w);
            if cell > last {
                cell = 0;
            }
            loop {
                // Where the cell starts in the window, and its length.
                let lo = cell * w;
                let into = if lo >= start {
                    lo - start
                } else {
                    ka - (start - lo)
                };
                if into > m || w.min(ka - lo) > m - into {
                    break;
                }
                tests.push(Test {
                    at,
                    cell: cell as u32,
                });
                cell = if cell == last { 0 } else { cell + 1 };
            }
        }
    }
}

/// Transposes the 8 × 8 bytes of `m` in place — byte `p` of word `q`
/// becomes byte `q` of word `p` — by swapping the off-diagonal halves,
/// quarters and bytes of each pair of words.
fn transpose_bytes(m: &mut [u64; 8]) {
    for (shift, mask) in [
        (32, 0x0000_0000_FFFF_FFFF),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
    ] {
        let step = shift / 8;
        for q in (0..8).filter(|q| q & step == 0) {
            let t = ((m[q] >> shift) ^ m[q + step]) & mask;
            m[q] ^= t << shift;
            m[q + step] ^= t;
        }
    }
}

/// A packed row's cells where they live: one word of each of its runs
/// in the plane, or, while its group is open, a copy of its staging
/// words — all read by atomic loads.
#[derive(Clone, Copy)]
pub(super) struct Lead<'a> {
    /// The row's block; empty for a row of an arena without a plane,
    /// which keeps every coordinate whole in its row.
    block: &'a [AtomicU64],
    dims: usize,
    bits: usize,
    /// The row's group in the block, and its bit in the group's words.
    group: usize,
    bit: usize,
    /// The row's cells, a byte each, when it was read from the staging.
    staged: Option<[u64; MAX_DIMS / 8]>,
}

impl<'a> Lead<'a> {
    /// No cells: the row holds every coordinate whole.
    pub(super) fn none() -> Lead<'a> {
        Lead {
            block: &[],
            dims: 0,
            bits: 1,
            group: 0,
            bit: 0,
            staged: None,
        }
    }

    /// Row `row`'s cells, from `words`, the plane's published blocks.
    /// While the staging holds the row's group, a copy of the row's
    /// staging words, kept if the mark still names the group once the
    /// copy is taken — the reader's half of a sequence check, the
    /// writer's being [`FilterPlane::put`]'s. Once the mark has moved
    /// on, the group's plane words were written before it moved.
    fn of(words: &'a [AtomicU64], plane: &FilterPlane, row: usize) -> Lead<'a> {
        let stride = plane.stride();
        let mut lead = Lead {
            block: &words[row / BLOCK_ROWS * stride..][..stride],
            dims: plane.dims,
            bits: plane.bits,
            group: row % BLOCK_ROWS / 64,
            bit: row % 64,
            staged: None,
        };
        let group = row / 64;
        if plane.staged.load(Ordering::Acquire) == group {
            let per_row = plane.row_words();
            let mut copy = [0; MAX_DIMS / 8];
            for (c, word) in copy
                .iter_mut()
                .zip(&plane.staging[row % 64 * per_row..][..per_row])
            {
                *c = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if plane.staged.load(Ordering::Relaxed) == group {
                lead.staged = Some(copy);
            } else {
                // Synchronises with the store that moved the mark.
                fence(Ordering::Acquire);
            }
        }
        lead
    }

    /// Leading coordinates whose cells are held here.
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.dims
    }

    /// The cell of coordinate `j < self.len()`.
    #[inline]
    pub(super) fn cell(&self, j: usize) -> u64 {
        if let Some(staged) = &self.staged {
            return staged[j / 8] >> (8 * (j % 8)) & 0xFF;
        }
        let runs = &self.block[j * self.bits * GROUP_WORDS..][..self.bits * GROUP_WORDS];
        runs.chunks_exact(GROUP_WORDS)
            .enumerate()
            .fold(0, |cell, (r, run)| {
                let word = run[self.group].load(Ordering::Relaxed);
                cell | (word >> self.bit & 1) << r
            })
    }
}

/// One sweep's view of a [`FilterPlane`]: the blocks of its rows,
/// sliced once.
pub(super) struct PlaneView<'a> {
    pub(super) plane: &'a FilterPlane,
    /// The blocks the sweep's rows span, the open one included.
    words: &'a [AtomicU64],
    /// Complete 64-row groups among them: the only ones phase 1 reads.
    groups: usize,
}

impl PlaneView<'_> {
    /// Complete 64-row groups this view holds: liveness words below
    /// this go through phase 1, the rest are verified row by row.
    pub(super) fn groups(&self) -> usize {
        self.groups
    }

    /// Row `row`'s cells.
    #[inline]
    pub(super) fn lead(&self, row: usize) -> Lead<'_> {
        Lead::of(self.words, self.plane, row)
    }

    /// Phase 1 over the block whose first group is liveness word
    /// `first`: ANDs `cand` with each of `tests` in turn, stopping once
    /// every word is zero, and returns how many tests ran. A group at
    /// or past [`PlaneView::groups`] — the open group, or one past the
    /// sweep's rows — must enter with a zero candidate word: its plane
    /// words may be mid-write, and a zero word stays zero whatever they
    /// hold. The one phase-1 loop of the crate, compiled with the run
    /// count a constant for the paper ring's 2 cell bits, and once for
    /// the rest.
    #[inline]
    pub(super) fn survivors(
        &self,
        first: usize,
        tests: &[Test],
        cand: &mut [u64; GROUP_WORDS],
    ) -> usize {
        match self.plane.bits {
            2 => self.survivors_of::<2>(first, tests, cand),
            _ => self.survivors_of::<0>(first, tests, cand),
        }
    }

    /// [`PlaneView::survivors`] with `B` runs a coordinate, or the
    /// plane's `bits` when `B` is 0.
    #[inline]
    fn survivors_of<const B: usize>(
        &self,
        first: usize,
        tests: &[Test],
        cand: &mut [u64; GROUP_WORDS],
    ) -> usize {
        debug_assert!(
            first.is_multiple_of(GROUP_WORDS)
                && (first..)
                    .zip(&*cand)
                    .all(|(g, &c)| g < self.groups || c == 0),
            "phase 1 keeps candidates in complete groups only"
        );
        let bits = if B == 0 { self.plane.bits } else { B };
        let stride = self.plane.stride();
        let block = &self.words[first / GROUP_WORDS * stride..][..stride];
        let mut acc = *cand;
        let mut ran = 0;
        for chunk in tests.chunks(CHECK_EVERY) {
            for test in chunk {
                let mut outside = [0u64; GROUP_WORDS];
                let runs = &block[test.at as usize..][..bits * GROUP_WORDS];
                for (r, run) in runs.chunks_exact(GROUP_WORDS).enumerate() {
                    // All ones where the excluded cell's bit is 1:
                    // `word ^ flip` is the rows whose bit differs.
                    let flip = u64::from(test.cell >> r & 1).wrapping_neg();
                    let run: &[AtomicU64; GROUP_WORDS] = run.try_into().expect("a group's words");
                    for (o, word) in outside.iter_mut().zip(run) {
                        *o |= word.load(Ordering::Relaxed) ^ flip;
                    }
                }
                for (a, o) in acc.iter_mut().zip(outside) {
                    *a &= o;
                }
            }
            ran += chunk.len();
            if acc.iter().fold(0, |any, &a| any | a) == 0 {
                break;
            }
        }
        *cand = acc;
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::super::SketchArena;
    use super::*;
    use crate::conditions::cyclic_close;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The rule of [`cell_bits`]: 2 at the paper ring and 3 one step
    /// looser, 1 on a tight ring — and the same on wide rings, up to
    /// `2⁶⁴ − 1`, whose gains pass 2¹²⁸ once weighed by `b`; and the
    /// rings that get no plane — every `t ≥ ⌊ka/2⌋`, where every
    /// residue matches, and these, where the window the arc leaves is
    /// narrower than any cell: `(128, 258)`, `(255, 512)`,
    /// `(16 320, 32 767)` and their like on wide rings, each a step
    /// from a ring that gets one.
    #[test]
    fn cell_bits_follow_the_rule() {
        assert_eq!(cell_bits(100, 400), 2);
        assert_eq!(cell_bits(101, 400), 3);
        assert_eq!(cell_bits(10, 400), 1);
        assert_eq!(cell_bits(0, 2), 1);
        for ka in [1 << 15, 1 << 20, 1 << 40, (1 << 63) + 1, u64::MAX] {
            assert_eq!(cell_bits(ka / 4, ka), 2, "ka = {ka}");
            assert_eq!(cell_bits(ka / 4 + ka / 64, ka), 3, "ka = {ka}");
            assert_eq!(cell_bits(ka / 64, ka), 1, "ka = {ka}");
            assert_eq!(cell_bits(0, ka), 1, "ka = {ka}");
        }
        for ka in [2u64, 3, 7, 400, 401, (1 << 15) - 1, 1 << 40, u64::MAX] {
            assert_eq!(cell_bits(ka / 2, ka), 0, "ka = {ka}");
            assert_eq!(cell_bits(u64::MAX, ka), 0, "ka = {ka}");
        }
        // The narrowest cells: `2¹²` at `2²⁰`, and the short last cell
        // of `2⁶⁴ − 1` at `b = 8`, `2⁵⁶ − 1` — the window
        // `m = ka − 2t − 1` falls one and two short of them.
        let wide = [
            ((1u64 << 19) - (1 << 11), 1 << 20),
            ((1 << 63) - (1 << 55), u64::MAX),
        ];
        for (t, ka) in [(128, 258), (255, 512), (16_320, 32_767)]
            .into_iter()
            .chain(wide)
        {
            assert_eq!(cell_bits(t, ka), 0, "t = {t}, ka = {ka}");
            assert_ne!(cell_bits(t - 1, ka), 0, "t = {}, ka = {ka}", t - 1);
        }
    }

    /// The rule's premise, in full on the rings below 2¹⁰ and sampled
    /// above: a ring gets no plane exactly when no cell of any width it
    /// could use lies wholly outside some probe's arc.
    #[test]
    fn no_plane_means_no_cell_can_be_excluded() {
        let mut rng = StdRng::seed_from_u64(0xCE11);
        let rings = (2u64..1 << 10)
            .flat_map(|ka| (0..=ka / 2).map(move |t| (t, ka)))
            .chain((0..2000).map(|_| {
                let ka = rng.gen_range(1 << 10..1 << 15);
                (ka / 2 - rng.gen_range(0..200.min(ka / 2)), ka)
            }));
        for (t, ka) in rings {
            let m = (ka - 1).saturating_sub(2 * t.min(ka / 2));
            let ring_bits = u64::BITS - (ka - 1).leading_zeros();
            let narrowest = (1..=ring_bits.min(MAX_CELL_BITS))
                .flat_map(|b| {
                    let w = ka.div_ceil(1 << b);
                    [w, ka % w]
                })
                .filter(|&x| x > 0)
                .min()
                .unwrap_or(ka);
            assert_eq!(cell_bits(t, ka) == 0, m < narrowest, "t = {t}, ka = {ka}");
        }
    }

    /// A plane's tests are exactly the cells no residue of which is
    /// within `t` of the probe: every probe residue of rings with and
    /// without a short last cell, at thresholds around each rule step.
    #[test]
    fn tests_exclude_exactly_the_cells_outside_the_arc() {
        for ka in [2u64, 7, 100, 255, 256, 257, 400, 401, 1000] {
            for t in [0, 1, ka / 8, ka / 4, ka / 4 + 1, ka / 3, ka / 2 - 1] {
                if cell_bits(t, ka) == 0 {
                    continue;
                }
                let (plane, ring) = (FilterPlane::new(1, t, ka), Packed::new(t, ka));
                let w = ring.w;
                for p in 0..ka {
                    let mut tests = Vec::new();
                    plane.tests(ring, &[p], &mut tests);
                    let want: Vec<u32> = (0..ka.div_ceil(w))
                        .filter(|c| {
                            (c * w..((c + 1) * w).min(ka))
                                .all(|r| !cyclic_close(r as i64, p as i64, t, ka))
                        })
                        .map(|c| c as u32)
                        .collect();
                    let mut got: Vec<u32> = tests.iter().map(|test| test.cell).collect();
                    got.sort_unstable();
                    assert_eq!(got, want, "p = {p}, t = {t}, ka = {ka}");
                }
            }
        }
    }

    /// The same on wide rings, whose cells are too long to walk: a cell
    /// is wholly outside the arc exactly when it does not hold the
    /// probe and neither of its ends is within `t` of it. Probes at
    /// every cell edge, one off it, and `t` and `t + 1` either side of
    /// it, and random ones, on rings up to `2⁶⁴ − 1`.
    #[test]
    fn tests_exclude_exactly_the_cells_outside_the_arc_on_wide_rings() {
        let mut rng = StdRng::seed_from_u64(0x71DE);
        for ka in [1u64 << 15, 1 << 20, 1 << 40, (1 << 63) + 1, u64::MAX] {
            let near = |a: u64, b: u64, t: u64| a.abs_diff(b).min(ka - a.abs_diff(b)) <= t;
            let at = |x: i128| x.rem_euclid(i128::from(ka)) as u64;
            for t in [
                0,
                1,
                ka / 64,
                ka / 8,
                ka / 4,
                ka / 4 + 1,
                ka / 3,
                ka / 2 - ka / 300,
            ] {
                if cell_bits(t, ka) == 0 {
                    continue;
                }
                let (plane, ring) = (FilterPlane::new(1, t, ka), Packed::new(t, ka));
                let (w, t_) = (ring.w, i128::from(t));
                let cells =
                    (0..ka.div_ceil(w)).map(|c| (c * w, (c * w).saturating_add(w - 1).min(ka - 1)));
                let edges = cells.clone().flat_map(|(lo, _)| {
                    let lo = i128::from(lo);
                    [lo, lo - 1, lo + t_, lo + t_ + 1, lo - t_, lo - t_ - 1].map(at)
                });
                let random: Vec<u64> = (0..64).map(|_| rng.gen_range(0..ka)).collect();
                for p in edges.chain(random) {
                    let mut tests = Vec::new();
                    plane.tests(ring, &[p], &mut tests);
                    let want: Vec<u32> = (0..)
                        .zip(cells.clone())
                        .filter(|&(_, (lo, hi))| {
                            !(lo..=hi).contains(&p) && !near(lo, p, t) && !near(hi, p, t)
                        })
                        .map(|(c, _)| c)
                        .collect();
                    let mut got: Vec<u32> = tests.iter().map(|test| test.cell).collect();
                    got.sort_unstable();
                    assert_eq!(got, want, "p = {p}, t = {t}, ka = {ka}");
                }
            }
        }
    }

    #[test]
    fn blocks_are_runs_of_group_words() {
        // Two coordinates of two cell bits: row r of a block has cell
        // r % 4 at coordinate 0 and 3 − r % 4 at coordinate 1. A block
        // is published whole by its first row, a group's words are
        // written by its 64th, and phase 1 sees the group once that row
        // is counted.
        let mut plane = FilterPlane::new(2, 100, 400);
        assert_eq!((plane.bits(), Packed::new(100, 400).w), (2, 100));
        plane.grow(600);
        // Two blocks of 2 × 2 runs, and 64 rows of one staging word.
        assert_eq!(plane.heap_bytes(), (2 * 2 * 2 * GROUP_WORDS + 64) * 8);
        assert_eq!(plane.view(0).groups(), 0);
        for row in 0..600 {
            let c = (row % 4) as u8;
            plane.put(row, &[c, 3 - c]);
        }
        let view = plane.view(600);
        assert_eq!((view.groups(), view.words.len()), (9, 2 * plane.stride()));
        let word = |at: usize| view.words[at].load(Ordering::Relaxed);
        // Coordinate 0's low run is 0b1010… in every group, its high
        // run 0b1100…; coordinate 1's are their complements.
        for k in 0..GROUP_WORDS {
            assert_eq!(word(k), 0xAAAA_AAAA_AAAA_AAAA);
            assert_eq!(word(8 + k), 0xCCCC_CCCC_CCCC_CCCC);
            assert_eq!(word(16 + k), 0x5555_5555_5555_5555);
            assert_eq!(word(24 + k), 0x3333_3333_3333_3333);
        }
        // The open block: 88 rows, of which one complete group, whose
        // words are written, and an open one, whose are not yet: its
        // cells are read from the staging.
        assert_eq!(word(plane.stride()), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(word(plane.stride() + 1), 0);
        for row in [0, 63, 511, 512, 575, 576, 599] {
            let c = (row % 4) as u64;
            let lead = view.lead(row);
            assert_eq!(lead.staged.is_some(), row >= 576, "row {row}");
            assert_eq!((lead.len(), lead.cell(0), lead.cell(1)), (2, c, 3 - c));
        }
        // The 64th row of the open group writes its words.
        for row in 600..640 {
            let c = (row % 4) as u8;
            plane.put(row, &[c, 3 - c]);
        }
        let view = plane.view(640);
        assert_eq!(
            view.words[plane.stride() + 1].load(Ordering::Relaxed),
            0xAAAA_AAAA_AAAA_AAAA
        );
        assert_eq!((view.lead(600).cell(0), view.lead(639).cell(1)), (0, 0));
    }

    /// Every row's cells read back the same through its group's plane
    /// words and through the staging, on planes of 1 to 64 coordinates
    /// and 1 to 8 cell bits — the transpose against the staging it
    /// reads.
    #[test]
    fn the_transpose_keeps_every_cell() {
        let mut rng = StdRng::seed_from_u64(0x7A05);
        for (t, ka) in [
            (10, 400),
            (100, 400),
            (101, 400),
            (0, 256),
            (16_000, 32_767),
        ] {
            for dims in [1, 7, 8, 9, 64] {
                let mut plane = FilterPlane::new(dims, t, ka);
                let cells_max = 1u32 << plane.bits();
                plane.grow(640);
                let rows: Vec<Vec<u8>> = (0..640)
                    .map(|_| {
                        (0..dims)
                            .map(|_| rng.gen_range(0..cells_max) as u8)
                            .collect()
                    })
                    .collect();
                for (row, cells) in rows.iter().enumerate() {
                    plane.put(row, cells);
                    // Read back at once, from the staging …
                    let lead = plane.lead(row);
                    let got: Vec<u8> = (0..dims).map(|j| lead.cell(j) as u8).collect();
                    assert_eq!(&got, cells, "t={t} ka={ka} dims={dims} row={row}");
                }
                // … and from the plane words once later groups moved the
                // staging on.
                for (row, cells) in rows.iter().enumerate().take(576) {
                    let lead = plane.lead(row);
                    assert!(lead.staged.is_none());
                    let got: Vec<u8> = (0..dims).map(|j| lead.cell(j) as u8).collect();
                    assert_eq!(&got, cells, "t={t} ka={ka} dims={dims} row={row}");
                }
            }
        }
    }

    /// The word loop against the rows it filters, one row at a time: a
    /// row survives exactly when it is a candidate and none of its
    /// cells is excluded, on rings with one, two and three cell bits —
    /// over a whole block, and over an open one whose groups from the
    /// `k`-th on enter with no candidates while their words are
    /// already written, as a writer racing ahead leaves them.
    #[test]
    fn survivors_are_the_rows_no_test_excludes() {
        let mut rng = StdRng::seed_from_u64(0x5117);
        for (t, ka) in [(10, 400), (100, 400), (101, 400), (25, 101)] {
            for dims in [1, 3, 8] {
                let (mut plane, ring) = (FilterPlane::new(dims, t, ka), Packed::new(t, ka));
                let w = ring.w;
                plane.grow(1024);
                let rows: Vec<Vec<u8>> = (0..1024)
                    .map(|_| {
                        (0..dims)
                            .map(|_| (rng.gen_range(0..ka) / w) as u8)
                            .collect()
                    })
                    .collect();
                for (row, cells) in rows.iter().enumerate() {
                    plane.put(row, cells);
                }
                let view = plane.view(1024);
                for _ in 0..20 {
                    let probe: Vec<u64> = (0..dims).map(|_| rng.gen_range(0..ka)).collect();
                    let mut tests = Vec::new();
                    plane.tests(ring, &probe, &mut tests);
                    let excluded = |row: usize| {
                        tests.iter().any(|test| {
                            u32::from(rows[row][test.at as usize / (plane.bits * 8)]) == test.cell
                        })
                    };
                    let live: u64 = rng.gen();
                    let mut whole = [live; 8];
                    view.survivors(8, &tests, &mut whole);
                    for (k, &word) in whole.iter().enumerate() {
                        for g in 0..64 {
                            let row = 512 + 64 * k + g;
                            // Stopping early leaves every word 0, which
                            // is exact too: no row was left.
                            let want = live >> g & 1 == 1 && !excluded(row);
                            assert_eq!(word >> g & 1 == 1, want, "t={t} ka={ka} row={row}");
                        }
                    }
                    for k in 0..8 {
                        let mut open = [live; 8];
                        open[k..].fill(0);
                        plane.view(512 + 64 * k + 5).survivors(8, &tests, &mut open);
                        assert_eq!(open[..k], whole[..k], "t={t} ka={ka} k={k}");
                        assert_eq!(open[k..], [0; 8][k..], "t={t} ka={ka} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn plane_depth_clamps_to_the_dimension() {
        let mut arena = SketchArena::new(100, 400);
        arena.push(&[1, 2, 3]);
        assert_eq!(arena.plane_dims(), 3);
        let mut arena = SketchArena::new(100, 400);
        arena.push(&[1; 130]);
        assert_eq!(arena.plane_dims(), 64);
    }
}
