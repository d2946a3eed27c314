//! The one lookup driver: a bounded, optionally masked, multi-probe
//! sweep that every `find_*` of the arena (and every epoch tier) is a
//! wrapper over.

use super::cells::{prepare_into, Cells, Layout, Reduced};
use super::kernels::{fetch, ActiveKernel};
use super::plane::{build_filter_probes, Lead, PlaneView, ProbeFilter};
use super::{RecordId, SketchArena};
use std::cell::RefCell;
use std::ops::Range;

/// Liveness words per tile — the unit a sweep hands to one probe at a
/// time (see [`Sweep::tiles`]) and the phase-1/phase-2 super-block of
/// the walk (see [`Sweep::walk`]): 1 024 rows. Small enough that the
/// tile's plane lanes (8–16 KB at the paper ring) stay in L1 from one
/// probe of a batch to the next; large enough that a survivor's
/// prefetch, issued as its mask comes out of phase 1, has on average
/// half a tile of phase-1 compute to land before phase 2 reads the row.
pub(super) const TILE_WORDS: usize = 16;

/// A caller-supplied row subset for masked sweeps, stored exactly like
/// the arena's liveness words (one bit per row, 64 rows per word) so
/// the sweep can AND it into the liveness word for free.
///
/// Used by [`SketchArena::find_at_most_masked`] and the index-level
/// subset lookups: compile an id set once, then every sweep touches
/// only the masked rows — wholly-unmasked 64-row blocks are skipped
/// with a single word load, before any phase-1 work.
///
/// ```rust
/// use fe_core::index::store::RowMask;
///
/// let mask = RowMask::from_rows([3usize, 64, 200]);
/// assert!(mask.contains(64));
/// assert!(!mask.contains(4));
/// assert_eq!(mask.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowMask {
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
    pub fn contains(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w & (1 << (row % 64)) != 0)
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
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

/// Per-thread reusable scan state: normalized-probe buffers for every
/// row layout, the prefilter probe state, and the indices of the
/// probes a sweep actually prepared. Hoisted off the per-call hot
/// path: a tiered lookup prepares the same probes once *per tier*.
#[derive(Default)]
struct ScanScratch {
    reduced: Vec<Reduced>,
    i32s: Vec<i32>,
    i64s: Vec<i64>,
    biased: Vec<u16>,
    bcast: Vec<u64>,
    active: Vec<usize>,
}

thread_local! {
    /// The scan scratch is thread-local (lookups are `&self` and run
    /// on whichever thread serves the request) and never held
    /// across user code — match callbacks on the scan paths are
    /// internal closures, so the `RefCell` cannot be re-entered.
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

/// Phase 1 of a sweep over an arena with a live prefilter plane: the
/// plane's groups of the sweep's rows, its resolved kernel, and every
/// probe's prefilter state (`plane.dims()` entries apart).
#[derive(Clone, Copy)]
struct PlaneProbes<'a> {
    view: &'a PlaneView<'a>,
    /// Liveness words the plane covers: the complete 64-row groups.
    groups: usize,
    kernel: ActiveKernel,
    pf: ProbeFilter<'a>,
}

/// One prepared sweep: the probes normalized for the arena's row
/// layout and bound to its column, the rows they may visit, and the
/// hits each probe may collect. Borrows only — built once on the
/// calling thread's scratch.
struct Sweep<'a, L: Layout> {
    arena: &'a SketchArena,
    layout: L,
    /// The arena's rows as of this sweep's one `Acquire` load of the
    /// row count, and their column units, `stride` a row (on a packed
    /// ring with a plane, all but the leading buckets the plane
    /// holds): nothing past them is read.
    rows: usize,
    cells: &'a [L::Unit],
    stride: usize,
    dim: usize,
    /// The prepared probes, `dim` values each, and for each the
    /// caller's index of it — what its hits are reported under.
    probes: &'a [L::Probe],
    active: &'a [usize],
    /// `None` on wide rings, disabled filters and rings no lane can
    /// reject on: phase 1 is then the identity — every visitable row
    /// is a candidate and phase 2 verifies it from dimension 0.
    plane: Option<PlaneProbes<'a>>,
    /// The row subset of a masked sweep, ANDed into each liveness word
    /// ahead of phase 1: excluded rows cost nothing, and a wholly
    /// excluded 64-row block is skipped after one load.
    only: Option<&'a RowMask>,
    budget: usize,
}

/// One probe's state within a sweep, while it is short of its budget.
struct OpenProbe<'a, P> {
    /// The caller's index of this probe.
    k: usize,
    /// Hits it may still take.
    left: usize,
    /// Its `dim` prepared values.
    cells: &'a [P],
    /// Its prefilter state (empty without a plane).
    pf: ProbeFilter<'a>,
}

impl<L: Layout> Sweep<'_, L> {
    /// The whole sweep: every liveness word of the arena's `rows` on
    /// behalf of every probe, returning `(probe, row)` hits — ascending
    /// per probe, at most `budget` each.
    ///
    /// The words are cut into tiles of [`TILE_WORDS`], and each tile is
    /// [`Sweep::walk`]ed once per open probe while its plane lanes are
    /// hot in L1, so a batch streams the columns through memory once
    /// instead of once per probe. A probe leaves the sweep at its
    /// `budget`-th hit, and the sweep ends with the last open probe.
    fn tiles(&self) -> Vec<(usize, RecordId)> {
        let none = ProbeFilter {
            biased: &[],
            bcast: &[],
        };
        let (pd, pf) = self
            .plane
            .map_or((0, none), |p| (p.view.plane.dims(), p.pf));
        let mut open: Vec<OpenProbe<'_, L::Probe>> = self
            .active
            .iter()
            .enumerate()
            .map(|(k, &caller)| OpenProbe {
                k: caller,
                left: self.budget,
                cells: &self.probes[k * self.dim..(k + 1) * self.dim],
                pf: ProbeFilter {
                    biased: &pf.biased[k * pd..(k + 1) * pd],
                    bcast: &pf.bcast[k * pd..(k + 1) * pd],
                },
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
    /// verifies rows. Sweeps one tile (`words`, at most [`TILE_WORDS`])
    /// for one probe, pushing its hits in row order until the tile or
    /// the probe's budget runs out.
    ///
    /// Phase 1 turns each word's visitable bits into a candidate mask
    /// on the plane, software-prefetching each survivor's column row as
    /// its mask comes out — its first `F` bytes, the buckets of the `F`
    /// coordinates after the plane's, which is as far as a packed row
    /// that does not match is read (a 64-byte row starts anywhere in
    /// its cache line, so that can be two lines); phase 2 then
    /// exact-verifies the tile's survivors with the scalar early-abort
    /// kernel over the whole row, its leading buckets taken back from
    /// the group phase 1 just read (the plane over-accepts, so every
    /// coordinate is re-checked). The two phases equal a full-row
    /// `row_matches`; running phase 1 a whole tile ahead is what hides
    /// phase 2's scattered loads behind phase 1's compute. A word past
    /// the plane's complete groups — the open group, at most 63 rows —
    /// has no phase 1: all its visitable rows are verified, their
    /// leading buckets read by atomic loads.
    fn walk(
        &self,
        words: Range<usize>,
        probe: &mut OpenProbe<'_, L::Probe>,
        hits: &mut Vec<(usize, RecordId)>,
    ) {
        debug_assert!(words.len() <= TILE_WORDS);
        let stride = self.stride;
        let planed = self.plane.map_or(0, |p| p.groups);
        let pd = probe.pf.biased.len();
        let mut cands = [0u64; TILE_WORDS];
        for (wi, cand) in words.clone().zip(&mut cands) {
            *cand = self.arena.live_word(wi, self.rows);
            if let Some(only) = self.only {
                *cand &= only.word(wi);
            }
            if let (Some(p), true) = (self.plane, wi < planed && *cand != 0) {
                *cand = p.view.block_candidates(p.kernel, probe.pf, wi, *cand);
                for at in set_bits(*cand).map(|bit| (wi * 64 + bit) * stride) {
                    fetch::prefetch_read(self.cells, at);
                    fetch::prefetch_read(self.cells, at + pd - 1);
                }
            }
        }
        for (wi, cand) in words.zip(cands) {
            // A planed word's candidates passed phase 1 on the plane's
            // leading coordinates; the open group's passed nothing.
            let passed = if wi < planed { pd } else { 0 };
            for row in set_bits(cand).map(|bit| wi * 64 + bit) {
                let s = &self.cells[row * stride..(row + 1) * stride];
                let lead = self.plane.map_or_else(Lead::none, |p| p.view.lead(row));
                if self.layout.row_matches(lead, s, probe.cells, passed) {
                    hits.push((probe.k, row));
                    probe.left -= 1;
                    if probe.left == 0 {
                        return;
                    }
                }
            }
        }
    }
}

impl SketchArena {
    /// First live row matching the probe (lowest id). `None` for no
    /// match or a dimension-mismatched probe.
    pub fn find_first(&self, probe: &[i64]) -> Option<RecordId> {
        let hits = self.sweep(&[probe], None, 1);
        hits.first().map(|&(_, row)| row)
    }

    /// Resolves a whole batch of probes with **one pass** over the
    /// column buffer: N concurrent queries share a single memory sweep
    /// instead of issuing N (the scan at scale is memory-bound, making
    /// this the amortization batched service rests on — `fe-benchmark`
    /// prints both sides: `core.index.batch32_us_per_probe` 635 µs
    /// against `core.index.find_first_miss_us` 811 µs at 10⁶ rows,
    /// 60 against 66 µs at 10⁵, on a 2-thread AVX-512 host).
    ///
    /// Results are position-aligned with `probes` and identical to
    /// calling [`SketchArena::find_first`] per probe. Probes whose
    /// dimension differs from the stamped one resolve to `None`, as
    /// everywhere else.
    pub fn find_first_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        let refs: Vec<&[i64]> = probes.iter().map(Vec::as_slice).collect();
        let mut firsts = vec![None; probes.len()];
        for (p, row) in self.sweep(&refs, None, 1) {
            firsts[p] = Some(row);
        }
        firsts
    }

    /// Every live row matching the probe, ascending.
    pub fn find_all(&self, probe: &[i64]) -> Vec<RecordId> {
        self.find_at_most(probe, usize::MAX)
    }

    /// The `budget` lowest-id live rows matching the probe, ascending —
    /// the count-bounded lookup behind reset-style decisions (0 /
    /// exactly-1 / ≥2 without scanning past the `budget`-th hit).
    pub fn find_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId> {
        let hits = self.sweep(&[probe], None, budget);
        hits.into_iter().map(|(_, row)| row).collect()
    }

    /// [`SketchArena::find_at_most`] restricted to the rows selected by
    /// `mask`: unselected rows are never visited, which is what makes
    /// local-uniqueness checks over a small id subset cheap even on a
    /// large arena.
    pub fn find_at_most_masked(
        &self,
        probe: &[i64],
        mask: &RowMask,
        budget: usize,
    ) -> Vec<RecordId> {
        let hits = self.sweep(&[probe], Some(mask), budget);
        hits.into_iter().map(|(_, row)| row).collect()
    }

    /// The sweep every lookup above (and every epoch tier) is a wrapper
    /// over: for each probe, its `budget` lowest live matching rows —
    /// among those `only` selects, when given — as `(index into probes,
    /// row)` pairs, ascending per probe. Probes of the wrong dimension
    /// match nothing.
    ///
    /// Loads the row count once (`Acquire`), so the sweep covers
    /// exactly the rows complete by then however many land meanwhile,
    /// and at once slices the plane groups they span; prepares the
    /// probes once in the thread-local scratch (normalized for the row
    /// layout, plus their prefilter state when a plane is live) and
    /// hands the typed column to [`SketchArena::run`]. The scratch
    /// stays borrowed for the whole sweep; nothing below re-enters an
    /// arena lookup on this thread.
    pub(crate) fn sweep(
        &self,
        probes: &[&[i64]],
        only: Option<&RowMask>,
        budget: usize,
    ) -> Vec<(usize, RecordId)> {
        let Some(dim) = self.dim else {
            return Vec::new();
        };
        if budget == 0 || self.is_empty() {
            return Vec::new();
        }
        let rows = self.rows();
        let view = self
            .active_plane()
            .map(|(plane, kernel)| (plane.view(rows), kernel));
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            s.active.clear();
            s.active
                .extend((0..probes.len()).filter(|&p| probes[p].len() == dim));
            if s.active.is_empty() {
                return Vec::new();
            }
            match &self.cells {
                Cells::Packed(packed, col, _) => {
                    prepare_into(*packed, &mut s.reduced, probes, &s.active);
                    if let Some((view, _)) = &view {
                        build_filter_probes(
                            view.plane,
                            &s.reduced,
                            dim,
                            &mut s.biased,
                            &mut s.bcast,
                        );
                    }
                    let plane = view.as_ref().map(|(view, kernel)| PlaneProbes {
                        view,
                        groups: view.groups(),
                        kernel: *kernel,
                        pf: ProbeFilter {
                            biased: &s.biased,
                            bcast: &s.bcast,
                        },
                    });
                    let (cells, probes) = (col.published(), &s.reduced);
                    self.run(*packed, rows, cells, probes, plane, &s.active, only, budget)
                }
                Cells::I32(wide, col) => {
                    prepare_into(*wide, &mut s.i32s, probes, &s.active);
                    let (cells, probes) = (col.published(), &s.i32s);
                    self.run(*wide, rows, cells, probes, None, &s.active, only, budget)
                }
                Cells::I64(wide, col) => {
                    prepare_into(*wide, &mut s.i64s, probes, &s.active);
                    let (cells, probes) = (col.published(), &s.i64s);
                    self.run(*wide, rows, cells, probes, None, &s.active, only, budget)
                }
            }
        })
    }

    /// Runs one prepared sweep over the first `rows` rows of `cells`,
    /// on the calling thread: binds the typed column and probes into a
    /// [`Sweep`] and walks it once. `active[k]` is the caller's index
    /// of prepared probe `k`.
    #[allow(clippy::too_many_arguments)]
    fn run<L: Layout>(
        &self,
        layout: L,
        rows: usize,
        cells: &[L::Unit],
        probes: &[L::Probe],
        plane: Option<PlaneProbes<'_>>,
        active: &[usize],
        only: Option<&RowMask>,
        budget: usize,
    ) -> Vec<(usize, RecordId)> {
        let dim = self.dim.unwrap_or(0);
        let stride = layout.stride(dim);
        let sweep = Sweep {
            arena: self,
            layout,
            rows,
            cells: &cells[..rows * stride],
            stride,
            dim,
            probes,
            active,
            plane,
            only,
            budget,
        };
        sweep.tiles()
    }
}

#[cfg(test)]
mod tests {
    use super::super::FilterConfig;
    use super::*;

    /// The sweep driver against the scalar `cyclic_close` oracle over
    /// its whole input table: population × probe count (with a
    /// wrong-dimension probe in every batch) × row subset × budget ×
    /// kernel × cell width. Every public `find_*` only picks a point in
    /// this table.
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
        // Packed rows, i32 and i64 cells.
        for ka in [400u64, 1 << 20, 1 << 40] {
            let t = ka / 4;
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
                    .map(|&c| c + rng.gen_range(-noise..=noise))
                    .collect()
            };
            let mut probes: Vec<Vec<i64>> = (0..32)
                .map(|p| near(&mut rng, &centres[p % 16 % 10]))
                .collect();
            for impostor in probes.iter_mut().skip(10).step_by(3) {
                impostor.iter_mut().for_each(|v| *v += half);
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
                    let mut arena = SketchArena::with_filter(t, ka, config);
                    for row in &rows {
                        arena.push(row);
                    }
                    (0..n_rows).filter(|&r| dead(r)).for_each(|r| {
                        arena.remove(r);
                    });
                    for n in [1, 3, 32] {
                        let mut refs: Vec<&[i64]> = probes[..n].iter().map(Vec::as_slice).collect();
                        if n > 1 {
                            refs[1] = &[1, 2, 3];
                        }
                        for mask in &masks {
                            // The same subset as tombstones: every row
                            // outside it revoked while the arena is
                            // shared, the way an epoch segment loses rows.
                            let revoked = arena.clone();
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
                                        "ka={ka} rows={n_rows} n={n} budget={budget} \
                                         mask={mask:?} {config:?}"
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
        assert_eq!(arena.find_first_batch(&[]), Vec::<Option<RecordId>>::new());
    }
}
