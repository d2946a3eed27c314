//! The paper-faithful early-abort linear scan, on columnar storage.

use super::store::{FilterConfig, RowMask, SketchArena};
use super::{RecordId, SketchIndex};

/// Early-abort linear scan (the paper's strategy), backed by a
/// [`SketchArena`]: one contiguous ring-adaptive buffer instead of a
/// `Vec` of boxed rows, so the conditions (1)–(4) scan streams through
/// memory with no pointer chasing. On narrow rings the arena's
/// prefilter plane turns full scans into the two-phase vectorized
/// kernel (see [`FilterConfig`]).
#[derive(Debug, Clone)]
pub struct ScanIndex {
    arena: SketchArena,
}

impl ScanIndex {
    /// Creates a scan index for sketches over a ring of circumference
    /// `ka` with threshold `t`, with the default prefilter plane (see
    /// [`ScanIndex::with_filter`]).
    pub fn new(t: u64, ka: u64) -> Self {
        ScanIndex {
            arena: SketchArena::new(t, ka),
        }
    }

    /// Creates a scan index with an explicit prefilter configuration
    /// (e.g. [`FilterConfig::disabled`] for the pure scalar kernel, or
    /// [`FilterConfig::swar`] to pin the portable vector path).
    pub fn with_filter(t: u64, ka: u64, filter: FilterConfig) -> Self {
        ScanIndex {
            arena: SketchArena::with_filter(t, ka, filter),
        }
    }

    /// Materializes an enrolled sketch by id (`None` for removed or
    /// unknown ids). Values are the canonical ring representatives the
    /// arena stores.
    pub fn sketch(&self, id: RecordId) -> Option<Vec<i64>> {
        self.arena.row(id)
    }

    /// The backing arena (diagnostics and benches).
    pub fn arena(&self) -> &SketchArena {
        &self.arena
    }
}

impl SketchIndex for ScanIndex {
    fn insert(&mut self, sketch: &[i64]) -> RecordId {
        self.arena.push(sketch)
    }

    fn lookup(&self, probe: &[i64]) -> Option<RecordId> {
        self.arena.find_first(probe)
    }

    fn lookup_all(&self, probe: &[i64]) -> Vec<RecordId> {
        self.arena.find_all(probe)
    }

    fn lookup_at_most(&self, probe: &[i64], budget: usize) -> Vec<RecordId> {
        // The arena's bounded sweep: stops at the budget-th hit while
        // keeping the prefilter plane.
        self.arena.find_at_most(probe, budget)
    }

    fn lookup_in_subset(&self, probe: &[i64], subset: &[RecordId], budget: usize) -> Vec<RecordId> {
        if budget == 0 || subset.is_empty() {
            return Vec::new();
        }
        // Unknown ids never match; kept out so the bitmap is sized by the
        // arena, not by the largest id a caller names.
        let rows = self.arena.rows();
        let mask = RowMask::from_rows(subset.iter().copied().filter(|&id| id < rows));
        self.arena.find_at_most_masked(probe, &mask, budget)
    }

    fn lookup_batch(&self, probes: &[Vec<i64>]) -> Vec<Option<RecordId>> {
        // One pass over the arena serves the whole batch (the scan is
        // memory-bound at scale; see SketchArena::find_first_batch).
        self.arena.find_first_batch(probes)
    }

    fn remove(&mut self, id: RecordId) -> bool {
        self.arena.remove(id)
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn slots(&self) -> usize {
        self.arena.rows()
    }

    fn dim(&self) -> Option<usize> {
        self.arena.dim()
    }

    fn copy_row_into(&self, id: RecordId, out: &mut Vec<i64>) -> bool {
        self.arena.copy_row_into(id, out)
    }

    fn for_each_live(&self, f: &mut dyn FnMut(RecordId, &[i64])) {
        self.arena.for_each_live(f);
    }

    fn reserve(&mut self, additional: usize, dim: usize) {
        self.arena.reserve(additional, dim);
    }

    fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
    }

    fn clear(&mut self) {
        self.arena.clear();
    }

    fn compact(&mut self) -> Vec<(RecordId, RecordId)> {
        self.arena.compact()
    }
}
