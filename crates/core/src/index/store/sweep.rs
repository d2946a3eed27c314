//! The one lookup driver: a bounded, optionally masked, multi-probe
//! sweep that the arena's `find` and `find_first_batch` (and every
//! epoch tier's) are wrappers over, and the per-thread counts of what
//! it did.

use super::cells::Packed;
use super::plane::{Lead, PlaneView, Test, BLOCK_ROWS};
use super::{RecordId, SketchArena, SketchIndex};
use std::cell::{Cell, RefCell};
use std::ops::Range;

/// Liveness words per tile — the unit a sweep hands to one probe at a
/// time (see [`Sweep::tiles`]) and the phase-1/phase-2 super-block of
/// the walk (see [`Sweep::walk`]): 1 024 rows, two plane blocks. Small
/// enough that the tile's plane blocks (16 KB at the paper ring) stay
/// in L1 from one probe of a batch to the next.
pub(super) const TILE_WORDS: usize = 16;

/// Words a plane block's 512 rows take in the liveness bitmap.
const BLOCK_WORDS: usize = BLOCK_ROWS / 64;

/// What the calling thread's sweeps have done so far: read with
/// [`sweep_counts`], and subtract two readings to count one lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Phase-1 passes, one a 512-row block of the prefilter plane with
    /// a candidate in its complete groups.
    pub blocks: u64,
    /// Cell tests those passes ran before their candidates ran out —
    /// one for each cell a probe coordinate rules out, so one a
    /// coordinate evaluated at the paper ring, where every coordinate
    /// rules out exactly one.
    pub coordinates: u64,
    /// Rows handed to phase 2: phase 1's survivors, the open group's
    /// live rows, and every live row of an arena without a plane.
    pub verified: u64,
}

thread_local! {
    static COUNTS: Cell<SweepCounts> = const {
        Cell::new(SweepCounts { blocks: 0, coordinates: 0, verified: 0 })
    };
}

/// The calling thread's [`SweepCounts`], the way
/// [`ring_divides`](crate::ring_divides) reads its divides:
///
/// ```rust
/// use fe_core::{sweep_counts, ScanIndex, SketchIndex};
///
/// let mut index = ScanIndex::new(100, 400);
/// for i in 0..1024 {
///     index.insert(&[i % 400 - 200; 64]);
/// }
/// let before = sweep_counts();
/// assert_eq!(index.find_first(&[0; 64]), Some(100));
/// let after = sweep_counts();
/// // Both blocks of the one 1 024-row tile pass through phase 1;
/// // phase 2 is handed the candidates of rows 64–127 (100 to 127 are
/// // within t of the probe) and stops at the first.
/// assert_eq!(after.blocks - before.blocks, 2);
/// assert_eq!(after.verified - before.verified, 28);
/// ```
pub fn sweep_counts() -> SweepCounts {
    COUNTS.with(Cell::get)
}

/// A caller-supplied row subset for masked sweeps, stored exactly like
/// the arena's liveness words (one bit per row, 64 rows per word) so
/// the sweep can AND it into the liveness word for free: compiled once
/// from a lookup's id subset, it lets the sweep touch only the masked
/// rows — wholly-unmasked 64-row blocks are skipped with a single word
/// load, before any phase-1 work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowMask {
    words: Vec<u64>,
}

impl RowMask {
    /// An empty mask (no rows selected).
    pub fn new() -> RowMask {
        RowMask::default()
    }

    /// Builds a mask from an iterator of row ids.
    pub fn from_rows(rows: impl IntoIterator<Item = usize>) -> RowMask {
        let mut mask = RowMask::new();
        for row in rows {
            mask.insert(row);
        }
        mask
    }

    /// Selects a row (idempotent).
    pub fn insert(&mut self, row: usize) {
        let word = row / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (row % 64);
    }

    /// Is the row selected?
    #[cfg(test)]
    pub fn contains(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w & (1 << (row % 64)) != 0)
    }

    /// `true` when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The mask's bits for liveness word `w` (words past the end select
    /// nothing).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }
}

/// The set bit positions of `word`, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Per-thread reusable scan state: the probes' residues, their cell
/// tests, and the indices of the probes a sweep actually prepared.
/// Hoisted off the per-call hot path: a tiered lookup prepares the same
/// probes once *per tier*.
#[derive(Default)]
struct ScanScratch {
    residues: Vec<u64>,
    tests: Vec<Test>,
    /// Where each prepared probe's tests start in `tests`, and one
    /// past the last probe's.
    starts: Vec<usize>,
    active: Vec<usize>,
}

thread_local! {
    /// The scan scratch is thread-local (lookups are `&self` and run
    /// on whichever thread serves the request) and never held
    /// across user code — match callbacks on the scan paths are
    /// internal closures, so the `RefCell` cannot be re-entered.
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

/// Phase 1 of a sweep over an arena with a prefilter plane: the
/// plane's blocks of the sweep's rows, and every probe's cell tests.
#[derive(Clone, Copy)]
struct PlaneProbes<'a> {
    view: &'a PlaneView<'a>,
    tests: &'a [Test],
    starts: &'a [usize],
}

/// One prepared sweep: the probes reduced into the arena's ring and
/// bound to its column, the rows they may visit, and the hits each
/// probe may collect. Borrows only — built once on the calling
/// thread's scratch.
struct Sweep<'a> {
    arena: &'a SketchArena,
    packed: Packed,
    /// The arena's rows as of this sweep's one `Acquire` load of the
    /// row count, and their column bytes, `stride` a row: nothing past
    /// them is read.
    rows: usize,
    bytes: &'a [u8],
    stride: usize,
    dim: usize,
    /// The probes' residues, `dim` each, and for each probe the
    /// caller's index of it — what its hits are reported under.
    probes: &'a [u64],
    active: &'a [usize],
    /// `None` on disabled filters and rings where no cell can be ruled
    /// out: phase 1 is then the identity — every visitable row is a
    /// candidate and phase 2 verifies it.
    plane: Option<PlaneProbes<'a>>,
    /// The row subset of a masked sweep, ANDed into each liveness word
    /// ahead of phase 1: excluded rows cost nothing, and a wholly
    /// excluded 64-row group is skipped after one load.
    only: Option<&'a RowMask>,
    budget: usize,
}

/// One probe's state within a sweep, while it is short of its budget.
struct OpenProbe<'a> {
    /// The caller's index of this probe.
    k: usize,
    /// Hits it may still take.
    left: usize,
    /// Its `dim` residues.
    residues: &'a [u64],
    /// Its cell tests (empty without a plane).
    tests: &'a [Test],
}

impl Sweep<'_> {
    /// The whole sweep: every liveness word of the arena's `rows` on
    /// behalf of every probe, returning `(probe, row)` hits — ascending
    /// per probe, at most `budget` each.
    ///
    /// The words are cut into tiles of [`TILE_WORDS`], and each tile is
    /// [`Sweep::walk`]ed once per open probe while its plane blocks are
    /// hot in L1, so a batch streams the columns through memory once
    /// instead of once per probe. A probe leaves the sweep at its
    /// `budget`-th hit, and the sweep ends with the last open probe.
    fn tiles(&self) -> Vec<(usize, RecordId)> {
        let mut open: Vec<OpenProbe<'_>> = self
            .active
            .iter()
            .enumerate()
            .map(|(k, &caller)| OpenProbe {
                k: caller,
                left: self.budget,
                residues: &self.probes[k * self.dim..(k + 1) * self.dim],
                tests: self
                    .plane
                    .map_or(&[][..], |p| &p.tests[p.starts[k]..p.starts[k + 1]]),
            })
            .collect();
        let mut hits = Vec::new();
        let words = self.rows.div_ceil(64);
        let mut tile = 0;
        while tile < words && !open.is_empty() {
            let tile_end = (tile + TILE_WORDS).min(words);
            // An index loop, not `retain_mut`: that form read 6–13% slower
            // per probe on a batch of 32 over 10⁶ rows.
            let mut i = 0;
            while i < open.len() {
                self.walk(tile..tile_end, &mut open[i], &mut hits);
                if open[i].left == 0 {
                    open.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            tile = tile_end;
        }
        hits
    }

    /// The row walker — the only code that iterates liveness words and
    /// verifies rows. Sweeps one tile (`words`, at most [`TILE_WORDS`],
    /// starting on a block) for one probe, pushing its hits in row
    /// order until the tile or the probe's budget runs out.
    ///
    /// Phase 1 turns the visitable bits of each complete group into
    /// candidates on the plane, a block's eight words in one pass of
    /// [`PlaneView::survivors`]. Phase 2 then checks each candidate's
    /// exact distance on every coordinate, its cells read back from the
    /// plane. The open group — at most 63 rows — sits its block's pass
    /// out with a zero word: all its visitable rows are verified. The
    /// counts of [`sweep_counts`] are added once a walk.
    fn walk(
        &self,
        words: Range<usize>,
        probe: &mut OpenProbe<'_>,
        hits: &mut Vec<(usize, RecordId)>,
    ) {
        debug_assert!(words.len() <= TILE_WORDS && words.start.is_multiple_of(BLOCK_WORDS));
        let mut counts = SweepCounts::default();
        let mut cands = [0u64; TILE_WORDS];
        for (wi, cand) in words.clone().zip(&mut cands) {
            *cand = self.arena.live_word(wi, self.rows);
            if let Some(only) = self.only {
                *cand &= only.word(wi);
            }
        }
        if let Some(p) = self.plane {
            let groups = p.view.groups();
            for (first, block) in (words.start..groups)
                .step_by(BLOCK_WORDS)
                .zip(cands.as_chunks_mut::<BLOCK_WORDS>().0)
            {
                // Groups at and past `groups` — the open group — enter
                // with no candidates, and get theirs back for phase 2.
                let complete = (groups - first).min(BLOCK_WORDS);
                let held = *block;
                block[complete..].fill(0);
                if *block != [0; BLOCK_WORDS] {
                    counts.blocks += 1;
                    counts.coordinates += p.view.survivors(first, probe.tests, block) as u64;
                }
                block[complete..].copy_from_slice(&held[complete..]);
            }
        }
        for (wi, cand) in words.zip(cands) {
            counts.verified += u64::from(cand.count_ones());
            for row in set_bits(cand).map(|bit| wi * 64 + bit) {
                // The row's bytes and the column after them.
                let s = &self.bytes[row * self.stride..];
                let lead = self.plane.map_or_else(Lead::none, |p| p.view.lead(row));
                if self.packed.row_matches(lead, s, probe.residues) {
                    hits.push((probe.k, row));
                    probe.left -= 1;
                    if probe.left == 0 {
                        break;
                    }
                }
            }
            if probe.left == 0 {
                break;
            }
        }
        COUNTS.with(|total| {
            let t = total.get();
            total.set(SweepCounts {
                blocks: t.blocks + counts.blocks,
                coordinates: t.coordinates + counts.coordinates,
                verified: t.verified + counts.verified,
            });
        });
    }
}

impl SketchArena {
    /// The sweep every lookup of the arena (and of every epoch tier) is
    /// a wrapper over: for each probe, its `budget` lowest live matching
    /// rows — among those `only` selects, when given — as `(index into
    /// probes, row)` pairs, ascending per probe. Probes of the wrong
    /// dimension, budget 0 and an empty `only` match nothing.
    ///
    /// Loads the row count once (`Acquire`), so the sweep covers
    /// exactly the rows complete by then however many land meanwhile,
    /// and at once slices the plane groups they span; prepares the
    /// probes once in the thread-local scratch (their residues, plus
    /// their cell tests when a plane is live) and walks one [`Sweep`]
    /// over them. The scratch stays borrowed for the whole sweep;
    /// nothing below re-enters an arena lookup on this thread.
    pub(crate) fn sweep(
        &self,
        probes: &[&[i64]],
        only: Option<&RowMask>,
        budget: usize,
    ) -> Vec<(usize, RecordId)> {
        let Some(dim) = self.dim else {
            return Vec::new();
        };
        if budget == 0 || self.is_empty() || only.is_some_and(RowMask::is_empty) {
            return Vec::new();
        }
        let rows = self.rows();
        let view = self.cells.plane().map(|plane| plane.view(rows));
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            s.active.clear();
            s.active
                .extend((0..probes.len()).filter(|&p| probes[p].len() == dim));
            if s.active.is_empty() {
                return Vec::new();
            }
            let packed = self.cells.packed();
            packed.prepare_into(&mut s.residues, probes, &s.active);
            let plane = view.as_ref().map(|view| {
                s.tests.clear();
                s.starts.clear();
                for probe in s.residues.chunks_exact(dim) {
                    s.starts.push(s.tests.len());
                    view.plane.tests(packed, probe, &mut s.tests);
                }
                s.starts.push(s.tests.len());
                PlaneProbes {
                    view,
                    tests: &s.tests,
                    starts: &s.starts,
                }
            });
            let stride = packed.row_bytes(dim);
            let sweep = Sweep {
                arena: self,
                packed,
                rows,
                bytes: &self.cells.published()[..rows * stride],
                stride,
                dim,
                probes: &s.residues,
                active: &s.active,
                plane,
                only,
                budget,
            };
            sweep.tiles()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::FilterConfig;
    use super::*;
    use crate::index::SketchIndex;

    /// The sweep driver against the scalar `cyclic_close` oracle over
    /// its whole input table: population × probe count (with a
    /// wrong-dimension probe in every batch) × row subset × budget ×
    /// filter × ring. Every public `find_*` only picks a point in this
    /// table.
    #[test]
    fn sweep_matches_cyclic_close_oracle() {
        use crate::conditions::cyclic_close;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const DIM: usize = 8;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let configs = [
            FilterConfig::disabled(),
            FilterConfig::swar(),
            FilterConfig::default(),
        ];
        // The paper ring, rings either side of 2¹⁵ and of 2³¹ (the
        // edges of `CellWidth`'s classes), and rings past 2⁶³: each at
        // `t = ka/4`, which gets a plane, and at a `t` whose arc leaves
        // a window narrower than any cell, which gets none.
        let rings = [
            400u64,
            (1 << 15) - 1,
            1 << 15,
            1 << 20,
            1 << 31,
            1 << 40,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for (ka, t) in rings
            .into_iter()
            .flat_map(|ka| [(ka, ka / 4), (ka, ka / 2 - ka / 1024)])
        {
            let mut stamped = SketchArena::new(t, ka);
            stamped.push(&[0; DIM]);
            let plane = stamped.plane_width() != "none";
            assert_eq!(plane, t == ka / 4, "ka={ka} t={t}");
            let (half, noise) = ((ka / 2) as i64, (t / 2) as i64);
            // Ten clusters of rows within t/2 of a centre: a probe near
            // a centre matches its whole cluster, so budgets 2 and ∞
            // have something to bound.
            let centres: Vec<Vec<i64>> = (0..10)
                .map(|_| (0..DIM).map(|_| rng.gen_range(-half..=half)).collect())
                .collect();
            let near = |rng: &mut StdRng, centre: &[i64]| -> Vec<i64> {
                centre
                    .iter()
                    .map(|&c| c.wrapping_add(rng.gen_range(-noise..=noise)))
                    .collect()
            };
            let mut probes: Vec<Vec<i64>> = (0..32)
                .map(|p| near(&mut rng, &centres[p % 16 % 10]))
                .collect();
            for impostor in probes.iter_mut().skip(10).step_by(3) {
                impostor.iter_mut().for_each(|v| *v = v.wrapping_add(half));
            }
            // 300 rows are 4 full liveness words and a 44-row tail, all
            // in one tile; 2 100 are two full tiles and a 52-row tail,
            // so of a batch's 32 probes some fill their budget in tile 0
            // and leave the sweep while others run on into tile 2.
            for n_rows in [300, 2100] {
                let rows: Vec<Vec<i64>> = (0..n_rows)
                    .map(|r| near(&mut rng, &centres[r % 10]))
                    .collect();
                let dead = |r: usize| r.is_multiple_of(7);
                let random = RowMask::from_rows((0..n_rows).filter(|_| rng.gen_range(0..2) == 1));
                let masks = [
                    None,
                    Some(random),
                    Some(RowMask::new()),
                    Some(RowMask::from_rows([17])),
                    Some(RowMask::from_rows(256..n_rows)),
                ];
                for &config in &configs {
                    let build = || {
                        let mut arena = SketchArena::with_filter(t, ka, config);
                        for row in &rows {
                            arena.push(row);
                        }
                        (0..n_rows).filter(|&r| dead(r)).for_each(|r| {
                            arena.remove(r);
                        });
                        arena
                    };
                    let arena = build();
                    for n in [1, 3, 32] {
                        let mut refs: Vec<&[i64]> = probes[..n].iter().map(Vec::as_slice).collect();
                        if n > 1 {
                            refs[1] = &[1, 2, 3];
                        }
                        for mask in &masks {
                            // The same subset as tombstones: every row
                            // outside it revoked while the arena is
                            // shared, the way an epoch segment loses rows.
                            let revoked = build();
                            for r in (0..n_rows)
                                .filter(|&r| mask.as_ref().is_some_and(|m| !m.contains(r)))
                            {
                                revoked.revoke(r);
                            }
                            for budget in [1, 2, usize::MAX] {
                                let want: Vec<Vec<RecordId>> =
                                    refs.iter()
                                        .map(|probe| {
                                            (0..n_rows)
                                                .filter(|&r| !dead(r))
                                                .filter(|&r| {
                                                    mask.as_ref().is_none_or(|m| m.contains(r))
                                                })
                                                .filter(|&r| {
                                                    probe.len() == DIM
                                                        && rows[r].iter().zip(probe.iter()).all(
                                                            |(&a, &b)| cyclic_close(a, b, t, ka),
                                                        )
                                                })
                                                .take(budget)
                                                .collect()
                                        })
                                        .collect();
                                for (arena, only) in [(&arena, mask.as_ref()), (&revoked, None)] {
                                    let mut got = vec![Vec::new(); n];
                                    for (p, row) in arena.sweep(&refs, only, budget) {
                                        got[p].push(row);
                                    }
                                    assert_eq!(
                                        got, want,
                                        "ka={ka} t={t} rows={n_rows} n={n} \
                                         budget={budget} mask={mask:?} {config:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_scan_on_empty_and_unstamped_arena() {
        let arena = SketchArena::new(100, 400);
        assert_eq!(arena.find_first_batch(&[vec![1, 2]]), vec![None]);
        let mut arena = SketchArena::new(100, 400);
        let a = arena.push(&[5, 5]);
        arena.remove(a);
        assert_eq!(arena.find_first_batch(&[vec![5, 5]]), vec![None]);
        assert_eq!(arena.find_first_batch(&[] as &[&[i64]]), vec![]);
    }
}
