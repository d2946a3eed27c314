//! Server-side sketch lookup for the identification protocol.
//!
//! Given an incoming probe sketch `s'`, the server must find the enrolled
//! record whose sketch matches under conditions (1)–(4). The paper's
//! strategy is a scan: apply the cheap integer conditions record by
//! record with early abort. At the paper's parameters a non-matching
//! record fails after ~2 coordinates in expectation (pass probability
//! per coordinate ≈ (2t+1)/ka ≈ ½), so the scan is orders of magnitude
//! cheaper than one signature operation — the observed "constant"
//! identification cost. One engine and one reference run it:
//!
//! * [`EpochIndex`] — the production engine, the index every server
//!   builds: an append-only head plus immutable sealed segments, shared
//!   with readers through a refcounted snapshot, so an identification
//!   scan takes a read lock only to clone that snapshot's `Arc` — it
//!   waits at most for a publish's `Arc` swap, never for
//!   enroll/revoke/compact work — and an enroll publishes its row with
//!   one atomic store (see [`epoch`]).
//! * [`ScanIndex`] — the reference: one bare [`store::SketchArena`],
//!   with no tiers and no publication step. The oracle suites and the
//!   kernel benches compare the engine against it.
//!
//! Both store their rows in the columnar [`store::SketchArena`]:
//! one contiguous ring-adaptive buffer (packed 9-bit coordinates at
//! the paper's `ka = 400`) with a tombstone bitmap, compacted by
//! re-appending its live rows, so the conditions (1)–(4) scan streams
//! through memory instead of chasing one heap pointer per record. A
//! sweep runs on the thread that asked for it. See [`store`] for the
//! layout and the blocked early-abort match kernel.
//!
//! Every layer — the arena, the engine, its detached reader and the
//! server above them — answers the paper's one search with the same two
//! calls: a bounded `find(probe, subset, budget)` (the ≤ `budget` lowest
//! live matching ids, ascending) and a first-match batch that borrows
//! its probes. Every matching mode (identify, reset, targeted and local
//! uniqueness, enroll-unique) picks a point of `find`.
//!
//! The early-abort cost model that makes the plain scan so strong at
//! the paper's parameters — and why no coordinate-level index can
//! prune there — is worked through in `DESIGN.md` at the repository
//! root.

pub mod epoch;
pub mod store;

pub use epoch::{EpochIndex, EpochRead, EpochReader, IndexReader, Segment};
pub use store::{sweep_counts, CellWidth, FilterConfig, PlaneDepth, SketchArena, SweepCounts};

/// The paper-faithful early-abort linear scan: one [`SketchArena`]
/// serving [`SketchIndex`] directly. On narrow rings the arena's
/// prefilter plane turns full scans into the two-phase scan (see
/// [`FilterConfig`]).
pub type ScanIndex = SketchArena;

/// A unique record handle assigned by the index.
///
/// Ids are **stable**: once assigned they are never renumbered or reused,
/// even across [`SketchIndex::remove`] — so they can be stored in
/// server-side records and session state. The one sanctioned exception
/// is [`SketchIndex::compact`], which reclaims tombstone slots and
/// returns the old → new renumbering so callers can remap their own
/// references; stability holds *between* compactions.
pub type RecordId = usize;

/// A lookup structure over enrolled sketches.
///
/// # Dimension contract
///
/// All sketches in one index share a dimension, stamped by the first
/// [`SketchIndex::insert`]: inserting a sketch of a different dimension
/// **panics** (enrolling mixed dimensions is an integration bug — the
/// dimension `n` is a published system parameter), while a *probe* of a
/// different dimension simply **matches nothing** (a remote peer
/// controls probe shape, so lookup must not panic). Every
/// implementation honours both halves identically.
///
/// ```rust
/// use fe_core::{ScanIndex, SketchIndex};
///
/// let mut index = ScanIndex::new(100, 400); // threshold t, ring ka
/// let a = index.insert(&[10, -20, 30]);
/// let b = index.insert(&[180, 180, -180]);
/// assert_eq!(index.find_first(&[15, -25, 35]), Some(a)); // within t = 100
/// assert!(index.find(&[15, -25, 35], Some(&[b]), 1).is_empty()); // a is not in the subset
///
/// // Revocation tombstones the slot; ids stay stable…
/// assert!(index.remove(a));
/// assert_eq!(index.find_first(&[15, -25, 35]), None);
/// assert_eq!(index.len(), 1);
///
/// // …until an explicit compaction reclaims the dead slots and reports
/// // the renumbering (b moves to slot 0).
/// let mapping = index.compact();
/// assert_eq!(mapping, vec![(b, 0)]);
/// assert_eq!(index.find_first(&[185, 175, -185]), Some(0));
/// # assert_eq!(index.len(), 1);
/// ```
pub trait SketchIndex {
    /// Inserts a sketch, returning its record id. Borrowed: columnar
    /// storage copies the coordinates into its own buffer, so handing
    /// over an owned `Vec` (as the pre-arena API did) would force every
    /// caller to clone for nothing — the enroll hot path passes the
    /// sketch straight out of the record it is storing.
    ///
    /// # Panics
    /// Panics if the sketch's dimension differs from the index's
    /// stamped dimension (see the trait-level dimension contract).
    fn insert(&mut self, sketch: &[i64]) -> RecordId;

    /// The `budget` lowest live records matching the probe under
    /// conditions (1)–(4), ascending — among `subset` when one is given.
    /// This is the one bounded lookup every matching mode is a point of:
    /// budget 1 is earliest-enrolled-wins identification, budget 2 tells
    /// 0 / exactly-1 / ≥2 matches apart for a reset without scanning past
    /// the second hit, and a subset (compiled into a row mask, so only its
    /// rows are touched) serves targeted and local-uniqueness checks.
    /// Ids in `subset` that are dead or unknown never match; repeats are
    /// redundant. A probe whose dimension differs from the stamped one
    /// matches nothing, and budget 0 finds nothing.
    fn find(&self, probe: &[i64], subset: Option<&[RecordId]>, budget: usize) -> Vec<RecordId>;

    /// The lowest live matching record of every probe, position-aligned
    /// with `probes` and equal to [`SketchIndex::find_first`] per probe.
    /// One sweep of the rows serves the whole batch, so a server resolves
    /// many concurrent identifications in one call. Borrows its probes:
    /// any slice of rows (`Vec<i64>`, `&[i64]`, …) can be passed as is.
    fn find_first_batch(&self, probes: &[impl AsRef<[i64]>]) -> Vec<Option<RecordId>>
    where
        Self: Sized;

    /// The lowest live record matching the probe, if any:
    /// [`SketchIndex::find`] with budget 1 and no subset.
    fn find_first(&self, probe: &[i64]) -> Option<RecordId> {
        self.find(probe, None, 1).pop()
    }

    /// Removes a record (revocation). Record ids are stable: removal
    /// never renumbers other records. Returns `false` if the id was
    /// unknown or already removed.
    fn remove(&mut self, id: RecordId) -> bool;

    /// Number of live (non-removed) sketches.
    fn len(&self) -> usize;

    /// `true` when no sketches are enrolled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total record slots held, live **and** tombstoned. The gap
    /// `slots() - len()` is the memory a [`SketchIndex::compact`] pass
    /// would reclaim.
    fn slots(&self) -> usize;

    /// The stamped sketch dimension (`None` until the first insert or
    /// reserve). Callers that must not panic — e.g. a server validating
    /// an enrollment *before* journaling it — check against this
    /// instead of letting [`SketchIndex::insert`] assert.
    fn dim(&self) -> Option<usize>;

    /// Copies a live record's sketch into `out` (cleared first),
    /// returning `false` — and leaving `out` empty — for dead or
    /// unknown ids. The allocation-free row access primitive: a server
    /// writes a helper's sketch with it, a snapshot walks its record
    /// table through it, and [`SketchIndex::for_each_live`] reuses one
    /// scratch buffer through it across a whole pass. Values are the
    /// canonical ring representatives the storage holds (see
    /// [`store::SketchArena::push`]).
    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool;

    /// Streams every live record, in ascending id order, through a
    /// borrowed row — the zero-clone walk of the whole live population,
    /// for checks from outside the index. Snapshots read rows from the
    /// record table through [`SketchIndex::copy_row_into`], and
    /// compaction moves stored bytes; neither calls this.
    /// The `&[i64]` row is only valid for the duration of the call.
    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64]));

    /// Pre-sizes the index for `additional` more sketches of `dim`
    /// coordinates (the hint recovery uses to build a pre-sized arena
    /// instead of growing it row by row) and stamps `dim`. Never
    /// changes what any lookup or reader observes.
    fn reserve(&mut self, additional: usize, dim: usize);

    /// Heap bytes held by the index's storage (buffers, bitmaps,
    /// segment metadata and the published snapshot). The
    /// storage-ablation bench divides this by [`SketchIndex::len`] to
    /// report bytes/record.
    fn heap_bytes(&self) -> usize;

    /// Reclaims tombstone slots: live records are renumbered densely
    /// (`0..len()`) preserving their relative order, and the old → new
    /// id mapping is returned so callers can remap stored [`RecordId`]s.
    ///
    /// This is the fix for unbounded growth under enroll/revoke churn,
    /// and the only way dead rows leave an index: without it, slot
    /// tables grow with the number of enrollments *ever*, not the number
    /// currently live. Servers expose it through their
    /// snapshot-compaction pass, where record slots are being rewritten
    /// anyway.
    fn compact(&mut self) -> Vec<(RecordId, RecordId)>;

    /// Monotone *structural* generation: bumped whenever record ids are
    /// renumbered ([`SketchIndex::compact`]). Lock-free readers capture
    /// it before a scan and revalidate under the write path's lock — a
    /// changed generation means the scanned ids may name different
    /// records now.
    /// Implementations without renumber-aware readers report `0`.
    fn generation(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChebyshevSketch, NumberLine, SecureSketch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const T: u64 = 100;
    const KA: u64 = 400;

    /// Builds (enrolled sketches, genuine probes) pairs from a real
    /// sketch scheme so index tests exercise realistic data: each probe
    /// is its user's reading moved by up to the scheme's `t` a
    /// coordinate.
    fn make_population(
        scheme: &ChebyshevSketch,
        users: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        let t = scheme.threshold() as i64;
        let mut sketches = Vec::new();
        let mut probes = Vec::new();
        for _ in 0..users {
            let x = scheme.line().random_vector(dim, rng);
            let s = scheme.sketch(&x, rng).unwrap();
            let noisy: Vec<i64> = x
                .iter()
                .map(|&v| {
                    use rand::Rng;
                    scheme.line().wrap(v + rng.gen_range(-t..=t))
                })
                .collect();
            let sp = scheme.sketch(&noisy, rng).unwrap();
            sketches.push(s);
            probes.push(sp);
        }
        (sketches, probes)
    }

    fn check_index<I: SketchIndex>(mut index: I, rng: &mut StdRng) {
        let scheme = ChebyshevSketch::paper_defaults();
        let (sketches, probes) = make_population(&scheme, 50, 32, rng);
        for s in &sketches {
            index.insert(s);
        }
        assert_eq!(index.len(), 50);
        // Every genuine probe finds its own record.
        for (uid, probe) in probes.iter().enumerate() {
            let found = index.find_first(probe).expect("genuine probe must match");
            assert_eq!(found, uid, "probe {uid} matched the wrong record");
        }
        // The batch path agrees with the one-at-a-time path.
        let batch = index.find_first_batch(&probes);
        assert_eq!(batch.len(), probes.len());
        for (uid, found) in batch.iter().enumerate() {
            assert_eq!(*found, Some(uid));
        }
        // Random junk probes (fresh users) almost surely match nothing.
        for _ in 0..20 {
            let x = scheme.line().random_vector(32, rng);
            let s = scheme.sketch(&x, rng).unwrap();
            assert_eq!(index.find_first(&s), None, "impostor matched");
        }
    }

    #[test]
    fn scan_index_end_to_end() {
        let mut rng = StdRng::seed_from_u64(900);
        check_index(ScanIndex::new(T, KA), &mut rng);
    }

    /// A tiny seal threshold so a 50-record population spans six
    /// sealed segments, not just the head.
    fn small_epoch() -> EpochIndex {
        EpochIndex::with_seal_rows(T, KA, FilterConfig::default(), 8)
    }

    #[test]
    fn epoch_index_end_to_end() {
        let mut rng = StdRng::seed_from_u64(914);
        check_index(EpochIndex::new(T, KA), &mut rng);
    }

    #[test]
    fn epoch_index_segmented_end_to_end() {
        let mut rng = StdRng::seed_from_u64(915);
        check_index(small_epoch(), &mut rng);
    }

    #[test]
    fn unbounded_find_finds_duplicates() {
        let mut scan = ScanIndex::new(T, KA);
        scan.insert(&[10, 20, 30]);
        scan.insert(&[15, 25, 35]); // within t of the first
        scan.insert(&[300, 20, 30]); // far in coordinate 0
        let matches = scan.find(&[12, 22, 32], None, usize::MAX);
        assert_eq!(matches, vec![0, 1]);
    }

    #[test]
    fn empty_index_finds_nothing() {
        let scan = ScanIndex::new(T, KA);
        assert!(scan.is_empty());
        assert_eq!(scan.find_first(&[1, 2, 3]), None);
        let epoch = EpochIndex::new(T, KA);
        assert!(epoch.is_empty());
        assert_eq!(epoch.find_first(&[1, 2, 3]), None);
        assert_eq!(epoch.find_first_batch(&[vec![1, 2, 3]]), vec![None]);
    }

    /// The trait-level dimension contract, on every implementation: a
    /// probe of the wrong dimension matches nothing (no panic — probes
    /// come from the network), across every lookup entry point.
    fn check_probe_dimension_contract<I: SketchIndex>(mut index: I) {
        index.insert(&[1, 2, 3]);
        index.insert(&[100, -100, 50]);
        for probe in [vec![1, 2], vec![1, 2, 3, 4], vec![]] {
            assert_eq!(index.find_first(&probe), None);
            assert_eq!(index.find(&probe, None, usize::MAX), Vec::<RecordId>::new());
            assert_eq!(
                index.find_first_batch(std::slice::from_ref(&probe)),
                vec![None]
            );
        }
        // A well-dimensioned probe still works afterwards.
        assert_eq!(index.find_first(&[2, 3, 4]), Some(0));
    }

    #[test]
    fn dimension_mismatch_is_no_match() {
        check_probe_dimension_contract(ScanIndex::new(T, KA));
        check_probe_dimension_contract(EpochIndex::new(T, KA));
        check_probe_dimension_contract(small_epoch());
    }

    /// The other half of the contract: mixed-dimension *inserts* panic,
    /// identically for every implementation.
    #[test]
    #[should_panic(expected = "stamped dimension")]
    fn scan_insert_dimension_mismatch_panics() {
        let mut scan = ScanIndex::new(T, KA);
        scan.insert(&[1, 2, 3]);
        scan.insert(&[1, 2]);
    }

    #[test]
    fn scan_removal_keeps_ids_stable() {
        let mut scan = ScanIndex::new(T, KA);
        let a = scan.insert(&[10, 20, 30]);
        let b = scan.insert(&[150, -150, 90]);
        assert_eq!(scan.len(), 2);
        assert!(scan.remove(a));
        assert!(!scan.remove(a), "double removal must report false");
        assert_eq!(scan.len(), 1);
        // a no longer matches; b keeps its id and still matches.
        assert_eq!(scan.find_first(&[10, 20, 30]), None);
        assert_eq!(scan.find_first(&[150, -150, 90]), Some(b));
        assert_eq!(scan.row(a), None);
        // New inserts get fresh ids, never recycling a's.
        let c = scan.insert(&[1, 2, 3]);
        assert_ne!(c, a);
        assert!(!scan.remove(999), "unknown id");
    }

    /// Shared churn scenario, on the paper's ring and two wide ones (of
    /// the `I32` and `I64` classes), each index built by `new(t, ka)`:
    /// compaction renumbers the survivors densely and keeps their rows,
    /// rows appended after it are found, and heavy enroll/revoke cycles
    /// must not grow the slot table without bound once compaction runs.
    fn check_compaction<I: SketchIndex>(new: impl Fn(u64, u64) -> I, rng: &mut StdRng) {
        let rings = [
            ChebyshevSketch::paper_defaults(),
            ChebyshevSketch::new(NumberLine::new(1 << 14, 4, 100).unwrap(), 100).unwrap(),
            ChebyshevSketch::new(NumberLine::new(1 << 30, 4, 100).unwrap(), 1000).unwrap(),
        ];
        for (scheme, width) in rings
            .iter()
            .zip([CellWidth::Packed, CellWidth::I32, CellWidth::I64])
        {
            let ka = scheme.line().interval_len();
            assert_eq!(CellWidth::for_ring(ka), width);
            let mut index = new(scheme.threshold(), ka);
            let (sketches, probes) = make_population(scheme, 300, 32, rng);
            for s in &sketches {
                index.insert(s);
            }
            // Revoke 3 of every 4 records: 75 survivors, one whole
            // 64-row plane group and 11 rows of an open one.
            for id in 0..300 {
                if id % 4 != 0 {
                    assert!(index.remove(id));
                }
            }
            assert_eq!(index.len(), 75);
            // Tombstones hold their slots until `compact`.
            assert_eq!(index.slots(), 300);

            let mapping = index.compact();
            // Survivors renumber densely, preserving order.
            let expected: Vec<(RecordId, RecordId)> = (0..75).map(|i| (i * 4, i)).collect();
            assert_eq!(mapping, expected);
            assert_eq!(index.len(), 75);
            assert_eq!(index.slots(), 75, "tombstones must be reclaimed");
            // Each survivor's row reads back as its canonical sketch.
            let mut row = Vec::new();
            for &(old, new) in &mapping {
                assert!(index.copy_row_into(new, &mut row));
                let canonical: Vec<i64> = sketches[old]
                    .iter()
                    .map(|&v| store::canonical(v, ka))
                    .collect();
                assert_eq!(row, canonical, "record {old}, now {new}");
            }

            // Genuine probes for survivors resolve at their *new* ids; the
            // revoked ones stay gone.
            for (old, probe) in probes.iter().enumerate() {
                match index.find_first(probe) {
                    Some(found) => {
                        assert_eq!(old % 4, 0, "revoked record {old} matched");
                        assert_eq!(found, old / 4);
                    }
                    None => assert_ne!(old % 4, 0, "survivor {old} lost"),
                }
            }

            // Rows appended after compaction land in the open group
            // (rows 75..95 of 64..128) and are found there.
            let (fresh, fresh_probes) = make_population(scheme, 20, 32, rng);
            for (i, (s, probe)) in fresh.iter().zip(&fresh_probes).enumerate() {
                let id = index.insert(s);
                assert_eq!(id, 75 + i);
                assert_eq!(index.find(probe, None, usize::MAX), vec![id]);
            }

            // Sustained churn with periodic compaction keeps memory
            // proportional to live records, not total enrollments ever.
            let (more, _) = make_population(scheme, 60, 32, rng);
            for s in &more {
                let id = index.insert(s);
                assert!(index.remove(id));
                index.compact();
            }
            assert_eq!(index.len(), 95);
            assert_eq!(index.slots(), 95);
        }
    }

    #[test]
    fn scan_compaction_reclaims_tombstones() {
        let mut rng = StdRng::seed_from_u64(910);
        check_compaction(ScanIndex::new, &mut rng);
    }

    #[test]
    fn epoch_compaction_reclaims_tombstones() {
        let mut rng = StdRng::seed_from_u64(918);
        let small_epoch = |t, ka| EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 8);
        check_compaction(small_epoch, &mut rng);
    }

    #[test]
    fn for_each_live_is_ascending_and_live_only() {
        // Nine rows over a seal threshold of 8: one sealed segment plus
        // the head.
        let mut epoch = small_epoch();
        for i in 0..9 {
            epoch.insert(&[i, i, i]);
        }
        epoch.remove(4);
        let mut live = Vec::new();
        epoch.for_each_live(&mut |id, row| live.push((id, row.to_vec())));
        let ids: Vec<RecordId> = live.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(live[4].1, vec![5, 5, 5]);
    }
}
