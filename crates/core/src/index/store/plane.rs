//! The prefilter plane: the leading coordinates of every row stored
//! as quantized byte buckets — 64 rows a group, dimension-major within
//! the group — for the vector phase 1, its depth and eligibility model,
//! and the portable SWAR kernel.

use super::cells::{quantize_ring, Reduced};
#[cfg(any(target_arch = "aarch64", test))]
use super::kernels::neon;
use super::kernels::ActiveKernel;
#[cfg(target_arch = "x86_64")]
use super::kernels::{avx2, avx512};
use super::shared::Column;
use super::FilterConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// Resolves [`PlaneDepth::Adaptive`](super::PlaneDepth::Adaptive) from
/// a lane's acceptance rate — `passing` of `ring` buckets, `2·t_q+1` of
/// `⌈ka/q⌉` — as the smallest depth whose expected survivor rate clears
/// 1/128, capped at [`FilterConfig::MAX_ADAPTIVE_DIMS`]. Computed by
/// repeated multiplication rather than a log ratio so boundary cases
/// (exact powers of the pass rate) resolve deterministically. Only
/// asked about rings a lane can reject on ([`byte_plane_eligible`]).
pub(super) fn adaptive_depth_for_rate(passing: u64, ring: u64) -> usize {
    debug_assert!(passing < ring);
    let rate = passing as f64 / ring as f64;
    const TARGET: f64 = 1.0 / 128.0;
    let mut depth = 1usize;
    let mut survivors = rate;
    while survivors > TARGET && depth < FilterConfig::MAX_ADAPTIVE_DIMS {
        survivors *= rate;
        depth += 1;
    }
    depth
}

/// Whether a ring gets a plane at all: a bucket lane passes `2·t_q+1`
/// of `kq` buckets, so once that count reaches `kq` no lane can reject
/// anything and the arena scans with the scalar early-abort kernel
/// alone — as it does on wider rings (`ka ≥ 2¹⁵`), whose residues no
/// byte bucket holds. The rings this turns away accept ≥ 97% of the
/// ring per coordinate (`rings_without_a_plane_cannot_identify`).
pub(super) fn byte_plane_eligible(t: u64, ka: u64) -> bool {
    if ka >= 1 << 15 {
        return false;
    }
    let (_, kq, tq) = quantize_ring(t, ka);
    2 * u64::from(tq) + 1 < u64::from(kq)
}

/// `0x0001` in every 16-bit lane: broadcasts a lane value by
/// multiplication.
const LANES: u64 = 0x0001_0001_0001_0001;
/// The most-significant bit of every 16-bit SWAR lane. The lanes hold
/// buckets ≤ 255, so this bit is always free to carry per-lane
/// comparison results without cross-lane borrows.
const MSBS: u64 = 0x8000_8000_8000_8000;
/// Words one lane of a 64-row group takes: 8 bucket bytes a word.
pub(super) const GROUP_WORDS: usize = 8;

/// One probe's prefilter state, borrowed from the scan scratch: the
/// buckets of its leading plane coordinates, and the same values
/// broadcast across SWAR lanes.
#[derive(Clone, Copy)]
pub(super) struct ProbeFilter<'a> {
    pub(super) biased: &'a [u16],
    pub(super) bcast: &'a [u64],
}

/// The leading dimensions of every row, stored for the vector
/// prefilter one 64-row **group** after another, and dimension-major
/// within a group: group `g` is `dims` lanes of [`GROUP_WORDS`] words,
/// lane `d` holding coordinate `d` of rows `64g .. 64g + 64` as
/// quantized 8-bit buckets (`(value mod ka) / q`) packed eight rows per
/// `u64` word. These are the first `dims` bytes of each row's packed
/// encoding, and the plane is their only home: the arena's row column
/// keeps the rest (DESIGN.md "The prefilter plane"). Phase 1
/// over-accepts (see [`quantize_ring`]), so phase 2 verifies *all*
/// coordinates of a survivor, reading these buckets back through
/// [`Lead`].
///
/// Everything phase 1 reads for a group is one contiguous run of
/// `dims × 64` bytes, and a sweep reads the plane front to back as one
/// stream. (A buffer per dimension does not: a 65 536-row arena's
/// eight 64 KiB lanes, allocated back to back, sit exactly 16 pages
/// apart — eight streams whose pages all index one set of a 4-way
/// first-level DTLB; DESIGN.md "The prefilter plane".)
///
/// Only rows' *positions* live here — liveness stays in the arena's
/// tombstone words, which the candidate masks are intersected with, so
/// `remove` never touches the plane and stale tombstone lanes are
/// harmless.
///
/// A group is published, zeroed, when its first row lands
/// ([`FilterPlane::put`]), and each row then stores its bytes into the
/// group's words before the row count that publishes the row: the
/// rule in the `shared` module docs. Phase 1 reads only complete
/// groups; the rows of the open group (at most 63 per arena) are
/// verified one by one, their buckets read by atomic loads.
#[derive(Debug)]
pub(super) struct FilterPlane {
    /// The groups, `dims × GROUP_WORDS` words each: every complete
    /// group, and the open one from its first row on.
    words: Column<AtomicU64>,
    /// Lanes per group: one per filter dimension
    /// (`min(config.dims, dim)`).
    dims: usize,
    /// Bucket-distance threshold the phase-1 kernels compare against.
    tq: u16,
    /// Bucket count `⌈ka/q⌉` (≤ 256) the phase-1 kernels wrap over.
    kq: u16,
    /// `0x8000 + tq` broadcast: SWAR `absd ≤ tq` comparand.
    th: u64,
    /// `kq − tq` broadcast: SWAR `absd ≥ kq − tq` comparand.
    kmt: u64,
}

/// A copy of a plane word.
fn copy_word(word: &AtomicU64) -> AtomicU64 {
    AtomicU64::new(word.load(Ordering::Relaxed))
}

impl Clone for FilterPlane {
    fn clone(&self) -> FilterPlane {
        FilterPlane {
            words: self.words.copied(self.words.capacity(), copy_word),
            ..*self
        }
    }
}

impl FilterPlane {
    pub(super) fn new(dims: usize, t: u64, ka: u64) -> FilterPlane {
        debug_assert!(dims >= 1 && ka < 1 << 15);
        let (_, kq, tq) = quantize_ring(t, ka);
        FilterPlane {
            words: Column::with_capacity(0),
            dims,
            tq,
            kq,
            th: (0x8000 + u64::from(tq)) * LANES,
            kmt: (u64::from(kq) - u64::from(tq)) * LANES,
        }
    }

    pub(super) fn dims(&self) -> usize {
        self.dims
    }

    /// Words per group.
    fn stride(&self) -> usize {
        self.dims * GROUP_WORDS
    }

    pub(super) fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Makes room for the groups of `total_rows` rows (exclusive
    /// access: the buffer may move).
    pub(super) fn grow(&mut self, total_rows: usize) {
        let words = total_rows.div_ceil(64) * self.stride();
        if words > self.words.capacity() {
            self.words = self.words.copied(words, copy_word);
        }
    }

    /// Where `row`'s byte of lane `d` lies: its word, and its shift in
    /// the word.
    fn place(&self, row: usize, d: usize) -> (usize, usize) {
        let word = row / 64 * self.stride() + d * GROUP_WORDS + row % 64 / 8;
        (word, row % 8 * 8)
    }

    /// Stores row `row`'s leading `dims` buckets — the first bytes of
    /// its packed encoding — in its group's lanes: the writer's half of
    /// the rule in the `shared` module docs. The group's first row
    /// publishes it, zeroed, with one `extend`; every row then ORs its
    /// bytes into words no reader's phase 1 touches yet. Rows arrive
    /// densely in order, from the one writer.
    pub(super) fn put(&self, row: usize, buckets: &[u8]) {
        debug_assert_eq!(buckets.len(), self.dims);
        if row.is_multiple_of(64) {
            self.words
                .extend((0..self.stride()).map(|_| AtomicU64::new(0)));
        }
        let words = self.words.published();
        for (d, &bucket) in buckets.iter().enumerate() {
            let (at, shift) = self.place(row, d);
            // One writer: a load and a store, not a locked `fetch_or`.
            let word = &words[at];
            word.store(
                word.load(Ordering::Relaxed) | u64::from(bucket) << shift,
                Ordering::Relaxed,
            );
        }
    }

    /// Moves row `from`'s buckets to row `to` (in-place compaction;
    /// exclusive access).
    pub(super) fn slide(&mut self, from: usize, to: usize) {
        for d in 0..self.dims {
            let ((src, from_shift), (dst, to_shift)) = (self.place(from, d), self.place(to, d));
            let words = self.words.as_mut_slice();
            let bucket = *words[src].get_mut() >> from_shift & 0xFF;
            let word = words[dst].get_mut();
            *word = *word & !(0xFF << to_shift) | bucket << to_shift;
        }
    }

    /// Keeps the groups of the first `rows` rows, their bytes past the
    /// last row zeroed so that [`FilterPlane::put`] can OR into them
    /// (exclusive access).
    pub(super) fn truncate(&mut self, rows: usize) {
        let stride = self.stride();
        self.words.truncate(rows.div_ceil(64) * stride);
        let held = rows % 64;
        if held > 0 {
            let open = &mut self.words.as_mut_slice()[rows / 64 * stride..];
            for (k, word) in open.iter_mut().enumerate() {
                let bytes = held.saturating_sub(k % GROUP_WORDS * 8).min(8) as u32;
                *word.get_mut() &= u64::MAX.checked_shr(64 - 8 * bytes).unwrap_or(0);
            }
        }
    }

    /// Row `row`'s leading buckets, for a row below the published row
    /// count.
    pub(super) fn lead(&self, row: usize) -> Lead<'_> {
        Lead::of(self.words.published(), self.stride(), row)
    }

    /// The plane as a sweep of the first `rows` rows sees it. Slicing
    /// the groups they span fails loudly should a row count ever be
    /// published before its group.
    pub(super) fn view(&self, rows: usize) -> PlaneView<'_> {
        PlaneView {
            plane: self,
            words: &self.words.published()[..rows.div_ceil(64) * self.stride()],
            groups: rows / 64,
        }
    }
}

/// A packed row's leading buckets where they live — its lanes of one
/// plane group — read by `Relaxed` loads, in a complete group or the
/// open one alike.
#[derive(Clone, Copy)]
pub(super) struct Lead<'a> {
    /// The row's group, `dims × GROUP_WORDS` words; empty for a row of
    /// an arena without a plane, which keeps every byte in its row.
    group: &'a [AtomicU64],
    /// The row's place in its group.
    at: usize,
}

impl<'a> Lead<'a> {
    /// No leading buckets: the row holds them all.
    pub(super) fn none() -> Lead<'a> {
        Lead { group: &[], at: 0 }
    }

    fn of(words: &'a [AtomicU64], stride: usize, row: usize) -> Lead<'a> {
        Lead {
            group: &words[row / 64 * stride..][..stride],
            at: row % 64,
        }
    }

    /// Leading buckets held here.
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.group.len() / GROUP_WORDS
    }

    /// Bucket `d` of the row, `d < self.len()`.
    #[inline]
    pub(super) fn bucket(&self, d: usize) -> u8 {
        let word = &self.group[d * GROUP_WORDS + self.at / 8];
        (word.load(Ordering::Relaxed) >> (self.at % 8 * 8)) as u8
    }
}

/// One sweep's view of a [`FilterPlane`]: the groups of its rows,
/// sliced once so the kernels index a plain slice.
pub(super) struct PlaneView<'a> {
    pub(super) plane: &'a FilterPlane,
    /// The groups the sweep's rows span, the open one included.
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

    /// The lanes of group `w`, [`GROUP_WORDS`] words each.
    #[inline]
    fn group(&self, w: usize) -> &[AtomicU64] {
        let stride = self.plane.stride();
        &self.words[w * stride..(w + 1) * stride]
    }

    /// Row `row`'s leading buckets: in a complete group, the lanes
    /// phase 1 just read.
    #[inline]
    pub(super) fn lead(&self, row: usize) -> Lead<'_> {
        Lead::of(self.words, self.plane.stride(), row)
    }
    /// One dimension's SWAR cyclic test on 4 × 16-bit lane values `a`
    /// against the broadcast probe `pb`, returning the per-lane pass
    /// MSBs. See `DESIGN.md` for the lane algebra; every intermediate
    /// stays within its 16-bit lane because values are buckets ≤ 255
    /// and `MSBS` supplies the borrow headroom.
    #[inline]
    fn swar_pass(&self, a: u64, pb: u64) -> u64 {
        // Per lane: a − b + 0x8000 and b − a + 0x8000 (exact; no
        // cross-lane borrow since the `MSBS` addend dominates any
        // 15-bit operand).
        let d1 = (a | MSBS) - pb;
        let d2 = (pb | MSBS) - a;
        // Full-lane mask of a ≥ b from d1's carried MSB.
        let ge = ((d1 >> 15) & LANES) * 0xFFFF;
        // |a − b| per lane, MSB bias stripped.
        let absd = ((d1 & ge) | (d2 & !ge)) & !MSBS;
        // Cyclic pass: absd ≤ tq  OR  absd ≥ kq − tq.
        ((self.plane.th - absd) | ((absd | MSBS) - self.plane.kmt)) & MSBS
    }

    /// Gathers [`PlaneView::swar_pass`] survivor MSBs into 4 low
    /// bits.
    #[inline]
    fn swar_gather(acc: u64) -> u64 {
        ((acc >> 15) & 1) | ((acc >> 30) & 2) | ((acc >> 45) & 4) | ((acc >> 60) & 8)
    }

    /// SWAR-prefilters the 8 rows of word `wi` of every lane of `group`,
    /// returning one low bit per passing row.
    ///
    /// Bytes have no spare MSB, so the word is split into its even and
    /// odd bytes — each a 4 × 16-bit-lane value whose lanes hold a
    /// bucket ≤ 255, leaving `0x8000` of headroom — and both halves run
    /// the 16-bit lane algebra (which computes the exact `kq − absd`,
    /// so even the `kq = 256` ring needs no wrap-around trick here).
    /// The two 4-bit results interleave back into byte order.
    #[inline]
    fn swar_word(&self, group: &[AtomicU64], pf: ProbeFilter<'_>, wi: usize) -> u64 {
        const EVENS: u64 = 0x00FF_00FF_00FF_00FF;
        let (mut acc_e, mut acc_o) = (MSBS, MSBS);
        for (lane, &pb) in group.chunks_exact(GROUP_WORDS).zip(pf.bcast) {
            let w = lane[wi].load(Ordering::Relaxed);
            acc_e &= self.swar_pass(w & EVENS, pb);
            acc_o &= self.swar_pass((w >> 8) & EVENS, pb);
            if acc_e | acc_o == 0 {
                return 0;
            }
        }
        // 16-bit lane i of the even half is byte 2i (row bit 2i); of
        // the odd half, byte 2i+1 — spread each gather bit i to bit 2i
        // and interleave.
        let spread = |x: u64| (x & 1) | ((x & 2) << 1) | ((x & 4) << 2) | ((x & 8) << 3);
        spread(Self::swar_gather(acc_e)) | (spread(Self::swar_gather(acc_o)) << 1)
    }

    /// Candidate mask for one complete 64-row group (`w <
    /// self.groups()`, so no store races it): prefilters the group's lanes against the probe
    /// and intersects with the group's liveness word — AVX-512 masks a
    /// whole lane in a single 512-bit compare. Groups are whole, so
    /// every backend runs full vectors — there is no buffer tail.
    pub(super) fn block_candidates(
        &self,
        kernel: ActiveKernel,
        pf: ProbeFilter<'_>,
        w: usize,
        lw: u64,
    ) -> u64 {
        debug_assert!(w < self.groups, "phase 1 reads complete groups only");
        let (tq, kq) = (self.plane.tq, self.plane.kq);
        let group = self.group(w);
        let mut out = 0u64;
        match kernel {
            #[cfg(target_arch = "x86_64")]
            ActiveKernel::Avx512 => out = avx512::octo(group, pf.biased, tq, kq),
            #[cfg(target_arch = "aarch64")]
            ActiveKernel::Neon => {
                for pair in 0..4 {
                    // Wholly-dead 16-row runs need no prefilter at all.
                    if (lw >> (pair * 16)) & 0xFFFF != 0 {
                        let m = neon::sixteen(group, pf.biased, tq, kq, pair * 2);
                        out |= u64::from(m) << (pair * 16);
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            ActiveKernel::Avx2 => {
                for half in 0..2 {
                    // Wholly-dead 32-row runs need no prefilter at all.
                    if (lw >> (half * 32)) & 0xFFFF_FFFF != 0 {
                        let m = avx2::quad(group, pf.biased, tq, kq, half * 4);
                        out |= u64::from(m) << (half * 32);
                    }
                }
            }
            ActiveKernel::Swar => {
                for sub in 0..8 {
                    if (lw >> (sub * 8)) & 0xFF != 0 {
                        out |= self.swar_word(group, pf, sub) << (sub * 8);
                    }
                }
            }
        }
        out & lw
    }
}

/// Builds the prefilter probe state (buckets + SWAR broadcasts) for
/// every probe in `probes` — prepared probe rows laid out `dim` apart —
/// into the scratch's reused `biased`/`bcast` buffers,
/// `plane.dims()` entries per probe. The stored values are the probe's
/// *bucket* coordinates, quantized once when the probe was prepared —
/// never per block inside the sweep. Probes that
/// cannot match (wrong dimension, pre-zeroed rows) keep their slots so
/// indexing stays uniform.
pub(super) fn build_filter_probes(
    plane: &FilterPlane,
    probes: &[Reduced],
    dim: usize,
    biased: &mut Vec<u16>,
    bcast: &mut Vec<u64>,
) {
    let pd = plane.dims();
    let count = probes.len().checked_div(dim).unwrap_or(0);
    biased.clear();
    bcast.clear();
    biased.reserve(count * pd);
    bcast.reserve(count * pd);
    for p in 0..count {
        for coordinate in &probes[p * dim..p * dim + pd] {
            biased.push(coordinate.bucket);
            bcast.push(u64::from(coordinate.bucket) * LANES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SketchArena;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A plane of `dims` lanes holding `rows` (whole groups) random
    /// rows.
    fn random_plane(
        rng: &mut StdRng,
        dims: usize,
        (t, ka): (u64, u64),
        rows: usize,
    ) -> FilterPlane {
        let mut plane = FilterPlane::new(dims, t, ka);
        let (q, ..) = quantize_ring(t, ka);
        plane.grow(rows);
        for row in 0..rows {
            let buckets: Vec<u8> = (0..dims)
                .map(|_| (rng.gen_range(0..ka as u16) / q) as u8)
                .collect();
            plane.put(row, &buckets);
        }
        plane
    }

    /// `dims` random probe buckets and their SWAR broadcasts.
    fn random_probe(rng: &mut StdRng, dims: usize, ka: u64, q: u16) -> (Vec<u16>, Vec<u64>) {
        let probe: Vec<u16> = (0..dims).map(|_| rng.gen_range(0..ka as u16) / q).collect();
        let bcast = probe.iter().map(|&b| u64::from(b) * LANES).collect();
        (probe, bcast)
    }

    #[test]
    fn adaptive_depth_model() {
        // Paper ring: 103 of 200 buckets pass, ≈ ½ → 8 lanes.
        assert_eq!(adaptive_depth_for_rate(103, 200), 8);
        // Rate exactly ½: (½)⁷ = 1/128 hits the target at 7 lanes.
        assert_eq!(adaptive_depth_for_rate(1, 2), 7);
        // Rate 3/7: 6 lanes clear 1/128.
        assert_eq!(adaptive_depth_for_rate(3, 7), 6);
        // Sparse ring: one lane rejects nearly everything.
        assert_eq!(adaptive_depth_for_rate(1, 256), 1);
        // Near-1 pass rate: capped at MAX_ADAPTIVE_DIMS.
        assert_eq!(
            adaptive_depth_for_rate(199, 200),
            FilterConfig::MAX_ADAPTIVE_DIMS
        );
        // Deeper adaptive planes clamp to the sketch dimension.
        let mut arena = SketchArena::new(160, 400);
        arena.push(&[1, 2, 3]);
        assert_eq!(arena.plane_dims(), 3);
        assert_eq!(arena.resolved_depth(), FilterConfig::MAX_ADAPTIVE_DIMS);
    }

    #[test]
    fn groups_are_whole_and_lane_after_lane() {
        // Row r of a group carries bucket r in lane 0 and 63 − r in
        // lane 1: lane d is words 8d .. 8d + 8 of the group, eight rows
        // a word, low byte first. A group is published whole by its
        // first row, and phase 1 sees it once its 64th is counted.
        let mut plane = FilterPlane::new(2, 10, 256);
        plane.grow(130);
        assert_eq!(
            (plane.view(0).groups(), plane.heap_bytes()),
            (0, 3 * 2 * 64)
        );
        for row in 0..130 {
            let r = (row % 64) as u8;
            plane.put(row, &[r, 63 - r]);
        }
        let view = plane.view(130);
        assert_eq!((view.groups(), view.words.len()), (2, 3 * 2 * GROUP_WORDS));
        let bytes: Vec<u8> = view
            .group(1)
            .iter()
            .flat_map(|w| w.load(Ordering::Relaxed).to_le_bytes())
            .collect();
        let expect: Vec<u8> = (0..64).chain((0..64).rev()).collect();
        assert_eq!(bytes, expect);
        assert_eq!(
            (0..2).map(|d| view.lead(129).bucket(d)).collect::<Vec<_>>(),
            [1, 62]
        );
        // Compaction slides bytes between groups and zeroes the open
        // group past its last row, so the next row can OR into it.
        plane.slide(129, 3);
        plane.truncate(65);
        assert_eq!([plane.lead(3).bucket(0), plane.lead(3).bucket(1)], [1, 62]);
        plane.put(65, &[7, 9]);
        let lead = plane.lead(65);
        assert_eq!([lead.bucket(0), lead.bucket(1)], [7, 9]);
        assert_eq!(plane.view(66).words.len(), 2 * 2 * GROUP_WORDS);
    }

    #[test]
    fn quantize_ring_model() {
        // Paper ring: q = 2 → 200 buckets, tq = ⌈100/2⌉ + 1 = 51.
        assert_eq!(quantize_ring(100, 400), (2, 200, 51));
        // Byte-native rings (ka ≤ 256): no quantization, no slack.
        assert_eq!(quantize_ring(100, 256), (1, 256, 100));
        assert_eq!(quantize_ring(1, 7), (1, 7, 1));
        // Largest narrow ring: q = 128 → exactly 256 buckets (the kernels
        // broadcast the wrapped 0; see `neon::sixteen`).
        assert_eq!(quantize_ring(1000, (1 << 15) - 1), (128, 256, 9));
        // t clamps to the half-ring before quantizing, and tq clamps to
        // the half-bucket-ring.
        assert_eq!(quantize_ring(u64::MAX, 400), (2, 200, 100));

        // Eligibility cliff: 2·tq+1 must stay below the bucket count.
        assert!(byte_plane_eligible(100, 400));
        assert!(byte_plane_eligible(0, 400));
        // 2t+1 = 255 < 256 buckets — barely eligible.
        assert!(byte_plane_eligible(127, 256));
        // Same threshold, one bucket fewer: 255 ≥ 255.
        assert!(!byte_plane_eligible(127, 255));
        // tq saturates at kq/2 = 100: 201 ≥ 200 buckets.
        assert!(!byte_plane_eligible(198, 400));
        // Rings too wide for packed rows never build any plane.
        assert!(!byte_plane_eligible(100, 1 << 20));
    }

    /// The arithmetic fact that makes one plane width enough: every
    /// narrow ring that gets no plane accepts at least 97% of the ring
    /// per coordinate — sixteen exact lanes would reject at most 39% of
    /// rows there, and such a ring identifies no one. Swept in full:
    /// every `ka < 2¹⁵` and every `t ≤ ka/2` with `2t + 1 < ka`. A
    /// change to [`quantize_ring`]'s slack that widens the no-plane set
    /// fails here instead of silently moving real rings onto the scalar
    /// kernel.
    #[test]
    fn rings_without_a_plane_cannot_identify() {
        let mut loosest = (1.0f64, 0, 0);
        for ka in 2u64..1 << 15 {
            for t in (0..=ka / 2).filter(|t| 2 * t + 1 < ka) {
                if !byte_plane_eligible(t, ka) {
                    let pass = (2 * t + 1) as f64 / ka as f64;
                    if pass < loosest.0 {
                        loosest = (pass, t, ka);
                    }
                }
            }
        }
        let (pass, t, ka) = loosest;
        assert!(
            pass >= 0.97,
            "t = {t}, ka = {ka} gets no plane but passes only {pass:.4} of the ring"
        );
    }

    #[test]
    fn neon_u8_kernel_matches_swar() {
        // The NEON kernel runs everywhere through the emulated `intr`
        // façade: its 16-row masks must equal two SWAR words.
        let mut rng = StdRng::seed_from_u64(0x8E08);
        for (t, ka) in [(100u64, 400u64), (1, 7), (1000, (1 << 15) - 1)] {
            let plane = random_plane(&mut rng, 3, (t, ka), 128);
            let view = plane.view(128);
            for _ in 0..40 {
                let (probe, bcast) = random_probe(&mut rng, 3, ka, quantize_ring(t, ka).0);
                let pf = ProbeFilter {
                    biased: &probe,
                    bcast: &bcast,
                };
                for g in [0, 1] {
                    let group = view.group(g);
                    for wi in (0..GROUP_WORDS).step_by(2) {
                        let neon = neon::sixteen(group, &probe, plane.tq, plane.kq, wi);
                        let (lo, hi) = (
                            view.swar_word(group, pf, wi),
                            view.swar_word(group, pf, wi + 1),
                        );
                        assert_eq!(u64::from(neon), lo | hi << 8, "t={t} ka={ka} g={g} wi={wi}");
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_u8_kernel_matches_swar() {
        if !avx2::available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xA208);
        for (t, ka) in [(100u64, 400u64), (1, 7), (1000, (1 << 15) - 1)] {
            let plane = random_plane(&mut rng, 4, (t, ka), 128);
            let view = plane.view(128);
            for _ in 0..40 {
                let (probe, bcast) = random_probe(&mut rng, 4, ka, quantize_ring(t, ka).0);
                let pf = ProbeFilter {
                    biased: &probe,
                    bcast: &bcast,
                };
                for (g, wi) in [(0, 0), (0, 4), (1, 0), (1, 4)] {
                    let group = view.group(g);
                    let wide = avx2::quad(group, &probe, plane.tq, plane.kq, wi);
                    let mut swar = 0u64;
                    for sub in 0..4 {
                        swar |= view.swar_word(group, pf, wi + sub) << (sub * 8);
                    }
                    assert_eq!(u64::from(wide), swar, "t={t} ka={ka} g={g} wi={wi}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_u8_kernel_matches_swar() {
        if !avx512::available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5128);
        for (t, ka) in [(100u64, 400u64), (1, 7), (1000, (1 << 15) - 1)] {
            let plane = random_plane(&mut rng, 4, (t, ka), 128);
            let view = plane.view(128);
            for _ in 0..40 {
                let (probe, bcast) = random_probe(&mut rng, 4, ka, quantize_ring(t, ka).0);
                let pf = ProbeFilter {
                    biased: &probe,
                    bcast: &bcast,
                };
                for g in [0, 1] {
                    let group = view.group(g);
                    let wide = avx512::octo(group, &probe, plane.tq, plane.kq);
                    let mut swar = 0u64;
                    for sub in 0..8 {
                        swar |= view.swar_word(group, pf, sub) << (sub * 8);
                    }
                    assert_eq!(wide, swar, "t={t} ka={ka} g={g}");
                }
            }
        }
    }

    #[test]
    fn swar_word_u8_implements_bucket_predicate() {
        // Exhaustive single-coordinate check of the SWAR algebra on an
        // awkward odd ring (q = 2, kq = 201): the mask must equal the
        // bucket-distance predicate exactly, and must accept every pair
        // the scalar residue predicate accepts (over-accept only —
        // phase 2 can prune, never resurrect). And on a q = 1 ring
        // (ka = 251), where a bucket is the residue itself and the
        // bucket predicate *is* `cyclic_close`: the 16-bit lane algebra
        // held to the exact predicate.
        for ka in [401u64, 251] {
            for t in [0u64, 1, 57, 100, 199] {
                let (q, kq, tq) = quantize_ring(t, ka);
                let plane = FilterPlane::new(1, t, ka);
                for a in 0..ka as i64 {
                    let row_bucket = a as u16 / q;
                    // Pack the same row bucket in all eight byte slots.
                    let group: [AtomicU64; GROUP_WORDS] = std::array::from_fn(|_| {
                        AtomicU64::new(u64::from(row_bucket) * 0x0101_0101_0101_0101)
                    });
                    let view = PlaneView {
                        plane: &plane,
                        words: &group,
                        groups: 1,
                    };
                    for bval in (0..ka as i64).step_by(3) {
                        let pb = bval as u16 / q;
                        let biased = [pb];
                        let bcast = [u64::from(pb) * LANES];
                        let pf = ProbeFilter {
                            biased: &biased,
                            bcast: &bcast,
                        };
                        let mask = view.swar_word(&group, pf, 0);
                        assert!(mask == 0 || mask == 0xFF, "lanes disagree: {mask:#x}");
                        let d = row_bucket.abs_diff(pb);
                        let bucket_close = d.min(kq - d) <= tq;
                        assert_eq!(
                            mask == 0xFF,
                            bucket_close,
                            "a={a} b={bval} t={t} ka={ka}: mask {mask:#x}"
                        );
                        let close = crate::conditions::cyclic_close(a, bval, t, ka);
                        if close {
                            assert_eq!(mask, 0xFF, "a={a} b={bval} t={t} ka={ka}: over-rejected");
                        }
                        if q == 1 {
                            assert_eq!(bucket_close, close, "a={a} b={bval} t={t} ka={ka}");
                        }
                    }
                }
            }
        }
    }
}
