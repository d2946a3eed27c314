//! Server-side sketch lookup for the identification protocol.
//!
//! Given an incoming probe sketch `s'`, the server must find the enrolled
//! record whose sketch matches under conditions (1)–(4). Three strategies:
//!
//! * [`ScanIndex`] — the paper-faithful approach: scan records, applying
//!   the cheap integer conditions with early abort. At the paper's
//!   parameters a non-matching record fails after ~2 coordinates in
//!   expectation (pass probability per coordinate ≈ (2t+1)/ka ≈ ½), so the
//!   scan is orders of magnitude cheaper than one signature operation —
//!   the observed "constant" identification cost.
//! * [`BucketIndex`] — an engineering extension: an LSH-style hash index
//!   on a coarse quantization of the leading coordinates, with multi-probe
//!   lookup. Genuinely sublinear in the number of records; documented as
//!   an extension in DESIGN.md and quantified in the index ablation bench.
//! * [`ShardedIndex`] — a horizontal-scaling wrapper: records are
//!   partitioned round-robin across N inner indexes and looked up on all
//!   shards in parallel, with stable *global* record ids. Any
//!   [`SketchIndex`] (scan, bucket, or epoch) can serve as the shard
//!   backend.
//! * [`EpochIndex`] — the read-mostly production engine: a mutable head
//!   arena plus immutable sealed segments, published through an
//!   epoch-reclaimed snapshot so identification scans never take a lock
//!   even while enroll/revoke/compact churn runs (see [`epoch`]).
//!
//! All three store their rows in the columnar [`store::SketchArena`]:
//! one contiguous width-adaptive buffer (`i16` cells at the paper's
//! `ka = 400`) with a tombstone bitmap and an in-place compactor, so
//! the conditions (1)–(4) scan streams through memory instead of
//! chasing one heap pointer per record. See [`store`] for the layout
//! and the blocked early-abort match kernel.
//!
//! The trade-offs between the three — and the early-abort cost model that
//! makes the plain scan so strong at the paper's parameters — are worked
//! through in `DESIGN.md` at the repository root.

mod bucket;
pub mod epoch;
mod scan;
mod sharded;
pub mod store;

pub use bucket::BucketIndex;
pub use epoch::{EpochIndex, EpochRead, EpochReader, IndexReader, Segment, SegmentBacking};
pub use scan::ScanIndex;
pub use sharded::{ShardedIndex, ShardedReader};
pub use store::{
    CellWidth, FilterConfig, FilterKernel, ParallelConfig, PlaneDepth, PlaneWidth, RowMask,
    SketchArena,
};

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
/// assert_eq!(index.lookup(&[15, -25, 35]), Some(a)); // within t = 100
///
/// // Revocation tombstones the slot; ids stay stable…
/// assert!(index.remove(a));
/// assert_eq!(index.lookup(&[15, -25, 35]), None);
/// assert_eq!(index.len(), 1);
///
/// // …until an explicit compaction reclaims the dead slots and reports
/// // the renumbering (b moves to slot 0).
/// let mapping = index.compact();
/// assert_eq!(mapping, vec![(b, 0)]);
/// assert_eq!(index.lookup(&[185, 175, -185]), Some(0));
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

    /// Finds the first record matching the probe under conditions
    /// (1)–(4), if any. "First" means the lowest live [`RecordId`], i.e.
    /// earliest-enrolled-wins, for every implementation. A probe whose
    /// dimension differs from the stamped one matches nothing.
    fn lookup(&self, probe: &[i64]) -> Option<RecordId>;

    /// Finds *all* matching records (used to measure false-close rates).
    /// Implementations return ids in ascending order.
    fn lookup_all(&self, probe: &[i64]) -> Vec<RecordId>;

    /// The `budget` lowest matching records, ascending — the
    /// count-bounded lookup behind reset-style decisions: with
    /// `budget = 2` the caller can distinguish 0 / exactly-1 / ≥2
    /// matches without the index scanning past the second hit.
    ///
    /// The default delegates to [`SketchIndex::lookup_all`] and
    /// truncates; scan-backed implementations override it with the
    /// arena's bounded sweep so the scan actually stops at the
    /// `budget`-th match.
    fn lookup_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId> {
        let mut all = self.lookup_all(probe);
        all.truncate(budget);
        all
    }

    /// The `budget` lowest matching records **among `subset`**,
    /// ascending — the primitive behind local-uniqueness checks over a
    /// caller-supplied id set. Ids in `subset` that are dead or unknown
    /// simply never match; duplicates are redundant.
    ///
    /// The default intersects [`SketchIndex::lookup_all`] with the
    /// subset; scan-backed implementations override it by compiling the
    /// subset into a row-mask overlay so the sweep only touches masked
    /// rows.
    fn lookup_in_subset(&self, probe: &[i64], subset: &[RecordId], budget: usize) -> Vec<RecordId> {
        if budget == 0 || subset.is_empty() {
            return Vec::new();
        }
        let set: std::collections::HashSet<RecordId> = subset.iter().copied().collect();
        let mut out: Vec<RecordId> = self
            .lookup_all(probe)
            .into_iter()
            .filter(|id| set.contains(id))
            .collect();
        out.truncate(budget);
        out
    }

    /// Resolves a batch of probes in one call, returning the first match
    /// per probe (position-aligned with `probes`).
    ///
    /// The default implementation is a sequential loop over
    /// [`SketchIndex::lookup`]; implementations with internal parallelism
    /// ([`ShardedIndex`]) override it to fan the batch out across worker
    /// threads. Batch entry points exist so a server can amortize one
    /// lock acquisition over many concurrent identification requests.
    fn lookup_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        probes.iter().map(|p| self.lookup(p)).collect()
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

    /// Would [`SketchIndex::insert`] accept a sketch of this dimension
    /// without panicking? The complete non-panicking preflight: it
    /// covers the dimension stamp *and* any implementation-specific
    /// constraint (the bucket index additionally requires
    /// `dim >= prefix_dims`).
    fn sketch_dim_ok(&self, dim: usize) -> bool {
        self.dim().is_none_or(|stamped| stamped == dim)
    }

    /// Copies a live record's sketch into `out` (cleared first),
    /// returning `false` — and leaving `out` empty — for dead or
    /// unknown ids. The allocation-free row access primitive behind
    /// [`SketchIndex::for_each_live`]: callers reuse one scratch buffer
    /// across a whole streaming pass. Values are the canonical ring
    /// representatives the storage holds (see
    /// [`store::SketchArena::push`]).
    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool;

    /// Streams every live record, in ascending id order, through a
    /// borrowed row — the zero-clone iteration primitive snapshot and
    /// compaction passes use instead of [`SketchIndex::live_records`].
    /// The `&[i64]` row is only valid for the duration of the call.
    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        let mut scratch = Vec::new();
        for id in 0..self.slots() {
            if self.copy_row_into(id, &mut scratch) {
                f(id, &scratch);
            }
        }
    }

    /// Every live record as `(id, sketch)` pairs in ascending id order.
    /// Clones every sketch — prefer [`SketchIndex::for_each_live`] on
    /// hot paths; this remains for small populations and tests.
    fn live_records(&self) -> Vec<(RecordId, Vec<i64>)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_live(&mut |id, row| out.push((id, row.to_vec())));
        out
    }

    /// Pre-sizes the index for `additional` more sketches of `dim`
    /// coordinates (the bulk-load hint recovery uses to build a
    /// pre-sized arena instead of growing it row by row). A no-op by
    /// default.
    fn reserve(&mut self, additional: usize, dim: usize) {
        let _ = (additional, dim);
    }

    /// Heap bytes held by the index's storage (buffers, bitmaps, and —
    /// for hashed indexes — an estimate of table overhead). The
    /// storage-ablation bench divides this by [`SketchIndex::len`] to
    /// report bytes/record.
    fn heap_bytes(&self) -> usize;

    /// Drops every record — live and tombstoned — and resets id
    /// assignment to zero, as if freshly constructed (tuning parameters
    /// are retained). Ids *are* reused after a clear; this is a
    /// compaction/rebuild primitive, not a bulk [`SketchIndex::remove`].
    fn clear(&mut self);

    /// Reclaims tombstone slots: live records are renumbered densely
    /// (`0..len()`) preserving their relative order, and the old → new
    /// id mapping is returned so callers can remap stored [`RecordId`]s.
    ///
    /// This is the fix for unbounded growth under enroll/revoke churn:
    /// without it, [`ScanIndex`]/[`BucketIndex`] entry tables (and every
    /// shard of a [`ShardedIndex`]) grow with the number of enrollments
    /// *ever*, not the number currently live. Servers expose it through
    /// their snapshot-compaction pass, where record slots are being
    /// rewritten anyway.
    fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        let live = self.live_records();
        self.clear();
        live.into_iter()
            .map(|(old, sketch)| (old, self.insert(&sketch)))
            .collect()
    }

    /// Makes every pending write visible to detached readers (see
    /// [`epoch::EpochRead::reader`]) and ends any bulk-load deferral a
    /// [`SketchIndex::reserve`] hint began. A no-op for indexes without
    /// a publication step — their writes are immediately visible.
    fn flush(&mut self) {}

    /// Monotone *structural* generation: bumped whenever record ids are
    /// renumbered ([`SketchIndex::compact`]) or reset
    /// ([`SketchIndex::clear`]). Lock-free readers capture it before a
    /// scan and revalidate under the write path's lock — a changed
    /// generation means the scanned ids may name different records now.
    /// Implementations without renumber-aware readers report `0`.
    fn generation(&self) -> u64 {
        0
    }

    /// Serializes the index's sealed, fully-live, dense-from-zero
    /// segment prefix as a checkpoint sidecar blob, or `None` when the
    /// index holds no such prefix (or does not segment its storage).
    /// See [`SketchIndex::import_segments`] for the recovery half.
    fn export_segments(&self) -> Option<Vec<u8>> {
        None
    }

    /// Installs a blob from [`SketchIndex::export_segments`] into this
    /// **empty** index, returning how many leading records (ids
    /// `0..n`) it covers so recovery can skip re-inserting them; `None`
    /// (leaving the index unchanged) when the blob does not fit this
    /// index. The default refuses every blob — callers fall back to a
    /// full replay.
    fn import_segments(&mut self, blob: &[u8]) -> Option<usize> {
        let _ = blob;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChebyshevSketch, SecureSketch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const T: u64 = 100;
    const KA: u64 = 400;

    /// Builds (enrolled sketches, genuine probes) pairs from the real
    /// sketch scheme so index tests exercise realistic data.
    fn make_population(
        users: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        let scheme = ChebyshevSketch::paper_defaults();
        let mut sketches = Vec::new();
        let mut probes = Vec::new();
        for _ in 0..users {
            let x = scheme.line().random_vector(dim, rng);
            let s = scheme.sketch(&x, rng).unwrap();
            let noisy: Vec<i64> = x
                .iter()
                .map(|&v| {
                    use rand::Rng;
                    scheme
                        .line()
                        .wrap(v + rng.gen_range(-(T as i64)..=T as i64))
                })
                .collect();
            let sp = scheme.sketch(&noisy, rng).unwrap();
            sketches.push(s);
            probes.push(sp);
        }
        (sketches, probes)
    }

    fn check_index<I: SketchIndex>(mut index: I, rng: &mut StdRng) {
        let (sketches, probes) = make_population(50, 32, rng);
        for s in &sketches {
            index.insert(s);
        }
        assert_eq!(index.len(), 50);
        // Every genuine probe finds its own record.
        for (uid, probe) in probes.iter().enumerate() {
            let found = index.lookup(probe).expect("genuine probe must match");
            assert_eq!(found, uid, "probe {uid} matched the wrong record");
        }
        // The batch path agrees with the one-at-a-time path.
        let batch = index.lookup_batch(&probes);
        assert_eq!(batch.len(), probes.len());
        for (uid, found) in batch.iter().enumerate() {
            assert_eq!(*found, Some(uid));
        }
        // Random junk probes (fresh users) almost surely match nothing.
        let scheme = ChebyshevSketch::paper_defaults();
        for _ in 0..20 {
            let x = scheme.line().random_vector(32, rng);
            let s = scheme.sketch(&x, rng).unwrap();
            assert_eq!(index.lookup(&s), None, "impostor matched");
        }
    }

    #[test]
    fn scan_index_end_to_end() {
        let mut rng = StdRng::seed_from_u64(900);
        check_index(ScanIndex::new(T, KA), &mut rng);
    }

    #[test]
    fn bucket_index_end_to_end() {
        let mut rng = StdRng::seed_from_u64(901);
        check_index(BucketIndex::new(T, KA, 4), &mut rng);
    }

    #[test]
    fn sharded_scan_end_to_end() {
        let mut rng = StdRng::seed_from_u64(904);
        check_index(ShardedIndex::scan(4, T, KA), &mut rng);
    }

    #[test]
    fn sharded_bucket_end_to_end() {
        let mut rng = StdRng::seed_from_u64(905);
        check_index(ShardedIndex::bucket(3, T, KA, 4), &mut rng);
    }

    #[test]
    fn sharded_single_shard_end_to_end() {
        let mut rng = StdRng::seed_from_u64(906);
        check_index(ShardedIndex::scan(1, T, KA), &mut rng);
    }

    /// Tiny epoch thresholds so a 50-record population exercises
    /// freeze/merge/seal, not just the staging arena.
    fn small_epoch() -> EpochIndex {
        EpochIndex::with_thresholds(T, KA, FilterConfig::default(), 8, 2, 32)
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
    fn sharded_epoch_end_to_end() {
        let mut rng = StdRng::seed_from_u64(916);
        check_index(ShardedIndex::from_fn(3, |_| small_epoch()), &mut rng);
    }

    #[test]
    fn bucket_index_agrees_with_scan() {
        let mut rng = StdRng::seed_from_u64(902);
        let (sketches, probes) = make_population(100, 16, &mut rng);
        let mut scan = ScanIndex::new(T, KA);
        let mut bucket = BucketIndex::new(T, KA, 3);
        for s in &sketches {
            scan.insert(s);
            bucket.insert(s);
        }
        for probe in &probes {
            assert_eq!(scan.lookup_all(probe), bucket.lookup_all(probe));
        }
    }

    #[test]
    fn sharded_agrees_with_scan_including_removals() {
        let mut rng = StdRng::seed_from_u64(907);
        let (sketches, probes) = make_population(120, 16, &mut rng);
        let mut scan = ScanIndex::new(T, KA);
        let mut sharded = ShardedIndex::scan(5, T, KA);
        for s in &sketches {
            let a = scan.insert(s);
            let b = sharded.insert(s);
            assert_eq!(a, b, "global ids must mirror single-index ids");
        }
        // Remove every seventh record from both.
        for id in (0..120).step_by(7) {
            assert!(scan.remove(id));
            assert!(sharded.remove(id));
        }
        assert_eq!(scan.len(), sharded.len());
        for probe in &probes {
            assert_eq!(scan.lookup_all(probe), sharded.lookup_all(probe));
            assert_eq!(scan.lookup(probe), sharded.lookup(probe));
        }
    }

    #[test]
    fn bucket_candidates_are_pruned_when_noise_is_small() {
        // Pruning requires ka >> t (see type docs): use t = 25 on the
        // paper's line, where each coordinate has 7 cells.
        let t = 25u64;
        let scheme = ChebyshevSketch::new(*ChebyshevSketch::paper_defaults().line(), t).unwrap();
        let mut rng = StdRng::seed_from_u64(903);
        let mut bucket = BucketIndex::new(t, KA, 4);
        let mut probes = Vec::new();
        for _ in 0..500 {
            let x = scheme.line().random_vector(16, &mut rng);
            bucket.insert(&scheme.sketch(&x, &mut rng).unwrap());
            let noisy: Vec<i64> = x
                .iter()
                .map(|&v| {
                    use rand::Rng;
                    scheme
                        .line()
                        .wrap(v + rng.gen_range(-(t as i64)..=t as i64))
                })
                .collect();
            probes.push(scheme.sketch(&noisy, &mut rng).unwrap());
        }
        // Every genuine probe still matches its record…
        for (uid, probe) in probes.iter().enumerate() {
            assert_eq!(bucket.lookup(probe), Some(uid));
        }
        // …and candidate sets are far smaller than the population:
        // expected fraction (3/7)^4 ≈ 3.4% → ~17 of 500.
        let total: usize = probes.iter().map(|p| bucket.candidates(p).len()).sum();
        let avg = total as f64 / probes.len() as f64;
        assert!(
            avg < 100.0,
            "bucket index barely prunes: avg candidates {avg}"
        );
    }

    #[test]
    fn lookup_all_finds_duplicates() {
        let mut scan = ScanIndex::new(T, KA);
        scan.insert(&[10, 20, 30]);
        scan.insert(&[15, 25, 35]); // within t of the first
        scan.insert(&[300, 20, 30]); // far in coordinate 0
        let matches = scan.lookup_all(&[12, 22, 32]);
        assert_eq!(matches, vec![0, 1]);
    }

    #[test]
    fn empty_index_finds_nothing() {
        let scan = ScanIndex::new(T, KA);
        assert!(scan.is_empty());
        assert_eq!(scan.lookup(&[1, 2, 3]), None);
        let bucket = BucketIndex::new(T, KA, 2);
        assert_eq!(bucket.lookup(&[1, 2, 3]), None);
        let sharded = ShardedIndex::scan(4, T, KA);
        assert!(sharded.is_empty());
        assert_eq!(sharded.lookup(&[1, 2, 3]), None);
        assert_eq!(sharded.lookup_batch(&[vec![1, 2, 3]]), vec![None]);
    }

    /// The trait-level dimension contract, on every implementation: a
    /// probe of the wrong dimension matches nothing (no panic — probes
    /// come from the network), across every lookup entry point.
    fn check_probe_dimension_contract<I: SketchIndex>(mut index: I) {
        index.insert(&[1, 2, 3]);
        index.insert(&[100, -100, 50]);
        for probe in [vec![1, 2], vec![1, 2, 3, 4], vec![]] {
            assert_eq!(index.lookup(&probe), None);
            assert_eq!(index.lookup_all(&probe), Vec::<RecordId>::new());
            assert_eq!(index.lookup_batch(std::slice::from_ref(&probe)), vec![None]);
        }
        // A well-dimensioned probe still works afterwards.
        assert_eq!(index.lookup(&[2, 3, 4]), Some(0));
    }

    #[test]
    fn dimension_mismatch_is_no_match() {
        check_probe_dimension_contract(ScanIndex::new(T, KA));
        check_probe_dimension_contract(BucketIndex::new(T, KA, 2));
        check_probe_dimension_contract(ShardedIndex::scan(3, T, KA));
        check_probe_dimension_contract(ShardedIndex::bucket(2, T, KA, 2));
        check_probe_dimension_contract(EpochIndex::new(T, KA));
        check_probe_dimension_contract(ShardedIndex::from_fn(2, |_| small_epoch()));
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
    #[should_panic(expected = "stamped dimension")]
    fn bucket_insert_dimension_mismatch_panics() {
        let mut bucket = BucketIndex::new(T, KA, 2);
        bucket.insert(&[1, 2, 3]);
        bucket.insert(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "stamped dimension")]
    fn sharded_insert_dimension_mismatch_panics() {
        let mut sharded = ShardedIndex::scan(2, T, KA);
        sharded.insert(&[1, 2, 3]);
        sharded.insert(&[1, 2, 3]);
        sharded.insert(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "prefix_dims")]
    fn bucket_prefix_validation() {
        BucketIndex::new(T, KA, 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn sharded_rejects_zero_shards() {
        ShardedIndex::scan(0, T, KA);
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
        assert_eq!(scan.lookup(&[10, 20, 30]), None);
        assert_eq!(scan.lookup(&[150, -150, 90]), Some(b));
        assert_eq!(scan.sketch(a), None);
        // New inserts get fresh ids, never recycling a's.
        let c = scan.insert(&[1, 2, 3]);
        assert_ne!(c, a);
        assert!(!scan.remove(999), "unknown id");
    }

    #[test]
    fn sharded_removal_keeps_ids_stable() {
        let mut sharded = ShardedIndex::scan(3, T, KA);
        let a = sharded.insert(&[10, 20, 30]);
        let b = sharded.insert(&[150, -150, 90]);
        let c = sharded.insert(&[-120, 60, 10]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert!(sharded.remove(b));
        assert!(!sharded.remove(b), "double removal must report false");
        assert_eq!(sharded.len(), 2);
        assert_eq!(sharded.lookup(&[150, -150, 90]), None);
        assert_eq!(sharded.lookup(&[10, 20, 30]), Some(a));
        assert_eq!(sharded.lookup(&[-120, 60, 10]), Some(c));
        // New inserts continue the global sequence.
        let d = sharded.insert(&[77, 77, 77]);
        assert_eq!(d, 3);
        assert!(!sharded.remove(999), "unknown id");
    }

    /// Shared churn scenario: heavy enroll/revoke cycles must not grow
    /// the slot table without bound once compaction runs.
    fn check_compaction<I: SketchIndex>(mut index: I, rng: &mut StdRng) {
        let (sketches, probes) = make_population(40, 16, rng);
        for s in &sketches {
            index.insert(s);
        }
        // Revoke 3 of every 4 records.
        for id in 0..40 {
            if id % 4 != 0 {
                assert!(index.remove(id));
            }
        }
        assert_eq!(index.len(), 10);
        assert_eq!(index.slots(), 40);

        let mapping = index.compact();
        // Survivors renumber densely, preserving order.
        let expected: Vec<(RecordId, RecordId)> = (0..10).map(|i| (i * 4, i)).collect::<Vec<_>>();
        assert_eq!(mapping, expected);
        assert_eq!(index.len(), 10);
        assert_eq!(index.slots(), 10, "tombstones must be reclaimed");

        // Genuine probes for survivors resolve at their *new* ids; the
        // revoked ones stay gone.
        for (old, probe) in probes.iter().enumerate() {
            match index.lookup(probe) {
                Some(found) => {
                    assert_eq!(old % 4, 0, "revoked record {old} matched");
                    assert_eq!(found, old / 4);
                }
                None => assert_ne!(old % 4, 0, "survivor {old} lost"),
            }
        }

        // Sustained churn with periodic compaction keeps memory
        // proportional to live records, not total enrollments ever.
        let (more, _) = make_population(60, 16, rng);
        for s in &more {
            let id = index.insert(s);
            assert!(index.remove(id));
            index.compact();
        }
        assert_eq!(index.len(), 10);
        assert_eq!(index.slots(), 10);
    }

    #[test]
    fn scan_compaction_reclaims_tombstones() {
        let mut rng = StdRng::seed_from_u64(910);
        check_compaction(ScanIndex::new(T, KA), &mut rng);
    }

    #[test]
    fn bucket_compaction_reclaims_tombstones() {
        let mut rng = StdRng::seed_from_u64(911);
        check_compaction(BucketIndex::new(T, KA, 4), &mut rng);
    }

    #[test]
    fn sharded_compaction_reclaims_tombstones() {
        let mut rng = StdRng::seed_from_u64(912);
        check_compaction(ShardedIndex::scan(3, T, KA), &mut rng);
    }

    #[test]
    fn epoch_compaction_reclaims_tombstones() {
        let mut rng = StdRng::seed_from_u64(918);
        check_compaction(small_epoch(), &mut rng);
    }

    #[test]
    fn sharded_compaction_rebalances_and_stays_consistent() {
        // Remove a skewed subset (everything on shard 0), compact, and
        // verify the rebuilt sharded index agrees with a compacted scan.
        let mut rng = StdRng::seed_from_u64(913);
        let (sketches, probes) = make_population(60, 16, &mut rng);
        let mut scan = ScanIndex::new(T, KA);
        let mut sharded = ShardedIndex::scan(4, T, KA);
        for s in &sketches {
            scan.insert(s);
            sharded.insert(s);
        }
        for id in (0..60).step_by(4) {
            // Global ids ≡ 0 (mod 4) all live on shard 0.
            assert!(scan.remove(id));
            assert!(sharded.remove(id));
        }
        assert_eq!(scan.compact(), sharded.compact());
        assert_eq!(scan.len(), sharded.len());
        for probe in &probes {
            assert_eq!(scan.lookup(probe), sharded.lookup(probe));
            assert_eq!(scan.lookup_all(probe), sharded.lookup_all(probe));
        }
        // Fresh inserts continue dense after compaction.
        let a = scan.insert(&[0; 16]);
        let b = sharded.insert(&[0; 16]);
        assert_eq!(a, b);
        assert_eq!(a, 45);
    }

    #[test]
    fn clear_resets_id_assignment() {
        let mut scan = ScanIndex::new(T, KA);
        scan.insert(&[1, 2, 3]);
        scan.insert(&[4, 5, 6]);
        scan.clear();
        assert!(scan.is_empty());
        assert_eq!(scan.slots(), 0);
        assert_eq!(scan.insert(&[7, 8, 9]), 0, "ids restart after clear");

        let mut sharded = ShardedIndex::scan(2, T, KA);
        sharded.insert(&[1, 2]);
        sharded.clear();
        assert_eq!(sharded.insert(&[3, 4]), 0);
    }

    #[test]
    fn live_records_are_ascending_and_live_only() {
        let mut sharded = ShardedIndex::scan(3, T, KA);
        for i in 0..9 {
            sharded.insert(&[i, i, i]);
        }
        sharded.remove(4);
        let live = sharded.live_records();
        let ids: Vec<RecordId> = live.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(live[4].1, vec![5, 5, 5]);
    }

    #[test]
    fn bucket_removal_works() {
        let mut bucket = BucketIndex::new(T, KA, 2);
        let a = bucket.insert(&[10, 20, 30]);
        let b = bucket.insert(&[12, 22, 32]);
        assert_eq!(bucket.lookup_all(&[11, 21, 31]), vec![a, b]);
        assert!(bucket.remove(a));
        assert_eq!(bucket.lookup_all(&[11, 21, 31]), vec![b]);
        assert_eq!(bucket.len(), 1);
        assert!(!bucket.remove(a));
    }
}
