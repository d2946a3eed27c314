//! [`Column`]: the one buffer the index reads while it is still being
//! written — a run of bytes kept in atomic words.
//!
//! A column is reserved once, at a fixed capacity, and never moves. Its
//! words come from one zeroed allocation — the crate's one `unsafe`
//! outside the SIMD dispatch — so a large column costs address space,
//! not memory, for as long as the allocator's pages stay untouched:
//! `calloc` hands out fresh `mmap` pages as they are, the kernel's zero
//! page until rows land in them. One writer stores the bytes past the
//! published length and then release-stores the new length; readers
//! acquire-load the length (or a row count published after it) and read
//! the words below it by `Relaxed` loads, which are plain loads on
//! every target the crate builds for. That is the **publication
//! invariant** (DESIGN.md "Publication invariant"):
//!
//! 1. a byte below `len` is never stored to again — but for the plane's
//!    words, which the rule below lets change;
//! 2. a byte at or past `len` is zero, and only the writer stores to
//!    it — one writer at a time (`writing`);
//! 3. `len` grows only by a `Release` store that follows the word
//!    stores it covers, and readers learn it only by an `Acquire` load.
//!
//! Rows keep their byte stride, so a row may start or end inside a
//! word, which then holds bytes on both sides of `len`. The writer
//! loads that word and stores it back with the new bytes ORed in
//! (invariant 2 makes theirs zero); a reader loading it meanwhile gets
//! the word before or after, equal in every published byte, and masks
//! off the rest. Every access is atomic, so nothing here can race in
//! the language's sense: a broken rule gives a wrong row, not undefined
//! behaviour. Exclusive access (`&mut self`) only ever moves a column
//! whole ([`Column::grow`]).
//!
//! The prefilter plane is the one column whose published words still
//! change. It publishes a 512-row block's words, zero, when the
//! block's first row lands — a length store, the words being zero
//! already — and then takes each 64-row group's words by atomic stores
//! when the group's 64th row lands, before the arena's `Release` store
//! of that row count. The rule that keeps that sound without a lock:
//!
//! * a word changes only by atomic stores of the one writer, and every
//!   read of it is an atomic load — phase 1's word loop included;
//! * a group whose 64th row is published is never stored to again;
//! * phase 1 keeps candidates only in the groups below `rows / 64` of
//!   the row count its sweep acquired — complete, so frozen, and
//!   ordered before that count. It reads a whole block, so it may load
//!   the words of a group still open (or being written) as well, but
//!   only under a zero candidate word, which AND keeps zero whatever
//!   the load returns. The open group's rows phase 2 checks one by
//!   one, their cells copied from the plane's staging (outside this
//!   column) and kept only if the staging still holds their group once
//!   the copy is taken (`plane::Lead`).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A fixed-capacity append-only run of bytes in atomic words, with one
/// writer and any number of lock-free readers (module docs: the
/// publication invariant).
pub(crate) struct Column {
    /// Zeroed when reserved; byte `i` is byte `i % 8` of word `i / 8`,
    /// little-endian.
    words: Box<[AtomicU64]>,
    /// Published length in bytes: `Release`-stored by the writer after
    /// it stored the words below it, `Acquire`-loaded by readers.
    len: AtomicUsize,
    /// Held for the duration of an `extend`; a second writer panics
    /// instead of racing the first.
    writing: AtomicBool,
}

impl Column {
    /// An empty column that can hold `capacity` bytes — rounded up to a
    /// whole word — all zero: one zeroed allocation, which writes
    /// nothing to pages the allocator takes fresh from the kernel.
    pub(crate) fn with_capacity(capacity: usize) -> Column {
        let words = Box::<[AtomicU64]>::new_zeroed_slice(capacity.div_ceil(8));
        // SAFETY: an `AtomicU64` has `u64`'s layout, and all-zero bytes
        // are a valid `u64`.
        #[allow(unsafe_code)]
        let words = unsafe { words.assume_init() };
        Column {
            words,
            len: AtomicUsize::new(0),
            writing: AtomicBool::new(false),
        }
    }

    /// Bytes the column can hold without [`Column::grow`].
    pub(crate) fn capacity(&self) -> usize {
        8 * self.words.len()
    }

    /// Bytes published so far.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The words that hold a published byte: the last may hold bytes
    /// past the published length as well — zero, or being stored.
    pub(crate) fn words(&self) -> &[AtomicU64] {
        &self.words[..self.len().div_ceil(8)]
    }

    /// Appends `bytes`, published together once the last is stored.
    ///
    /// # Panics
    /// Panics when `bytes` is longer than the spare capacity, or when
    /// another `extend` on this column is still running.
    pub(crate) fn extend(&self, bytes: &[u8]) {
        self.publish(bytes.len(), |len| self.store(len, bytes));
    }

    /// The writer's stores of `extend`: `bytes` from byte `len` — the
    /// published length — on.
    fn store(&self, len: usize, bytes: &[u8]) {
        let (mut at, skip) = (len / 8, len % 8);
        let mut bytes = bytes;
        if skip > 0 && !bytes.is_empty() {
            // The word the last published byte shares: its bytes past
            // `len` are zero, so the new ones are ORed in.
            let (head, rest) = bytes.split_at(bytes.len().min(8 - skip));
            let word = &self.words[at];
            word.store(
                word.load(Ordering::Relaxed) | le_word(head) << (8 * skip),
                Ordering::Relaxed,
            );
            (at, bytes) = (at + 1, rest);
        }
        let (whole, tail) = bytes.as_chunks::<8>();
        let words = &self.words[at..];
        for (word, eight) in words.iter().zip(whole) {
            word.store(u64::from_le_bytes(*eight), Ordering::Relaxed);
        }
        if !tail.is_empty() {
            words[whole.len()].store(le_word(tail), Ordering::Relaxed);
        }
    }

    /// Publishes `n` more bytes as they are — zero (invariant 2).
    pub(crate) fn extend_zeroed(&self, n: usize) {
        self.publish(n, |_| {});
    }

    /// The writer's one path: holds `writing`, lets `store` write the
    /// `n` bytes past the published length it is given, and publishes
    /// them.
    fn publish(&self, n: usize, store: impl FnOnce(usize)) {
        assert!(
            !self.writing.swap(true, Ordering::Acquire),
            "a column has one writer at a time"
        );
        let len = self.len.load(Ordering::Relaxed);
        assert!(n <= self.capacity() - len, "column capacity exceeded");
        store(len);
        self.len.store(len + n, Ordering::Release);
        self.writing.store(false, Ordering::Release);
    }

    /// Copies `out.len()` published bytes from byte `at` on into `out`.
    pub(crate) fn read(&self, at: usize, out: &mut [u8]) {
        assert!(at + out.len() <= self.len(), "an unpublished byte");
        let (mut at, mut out) = (at, out);
        while !out.is_empty() {
            let n = out.len().min(8 - at % 8);
            let (run, rest) = std::mem::take(&mut out).split_at_mut(n);
            let word = self.words[at / 8].load(Ordering::Relaxed).to_le_bytes();
            run.copy_from_slice(&word[at % 8..][..run.len()]);
            (at, out) = (at + run.len(), rest);
        }
    }

    /// Moves the column into a buffer of at least `capacity` bytes —
    /// the one operation that reallocates, hence `&mut self`.
    pub(crate) fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity() {
            let mut fresh = Column::with_capacity(capacity);
            let len = *self.len.get_mut();
            for (to, from) in fresh
                .words
                .iter_mut()
                .zip(&mut self.words[..len.div_ceil(8)])
            {
                *to.get_mut() = *from.get_mut();
            }
            *fresh.len.get_mut() = len;
            *self = fresh;
        }
    }
}

/// The little-endian word of up to eight bytes, zero above them.
fn le_word(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |word, &b| word << 8 | u64::from(b))
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Column")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every published byte, read back through [`Column::read`].
    fn bytes(column: &Column) -> Vec<u8> {
        let mut out = vec![0; column.len()];
        column.read(0, &mut out);
        out
    }

    /// Runs of 1 to 17 bytes — each starting where the last ended, so
    /// most start and end inside a word — publish exactly their bytes:
    /// no published byte ever changes, every byte past the length stays
    /// zero, any published range reads back, and `grow` keeps them all.
    #[test]
    fn extend_publishes_and_earlier_slices_stay_put() {
        let mut column = Column::with_capacity(200);
        assert_eq!(
            (column.len(), column.capacity(), column.words().len()),
            (0, 200, 0)
        );
        column.extend(&[1, 2, 3]);
        let early = column.words();
        column.extend(&[4, 5]);
        assert_eq!(
            early[0].load(Ordering::Relaxed).to_le_bytes()[..3],
            [1, 2, 3]
        );
        assert_eq!(bytes(&column), [1, 2, 3, 4, 5]);
        let mut want = bytes(&column);
        for n in 1..=17 {
            let run: Vec<u8> = (want.len()..want.len() + n)
                .map(|i| i as u8 | 0x80)
                .collect();
            column.extend(&run);
            want.extend(&run);
            assert_eq!(bytes(&column), want, "after a run of {n}");
            let last = column
                .words()
                .last()
                .map_or(0, |w| w.load(Ordering::Relaxed));
            let past = match want.len() % 8 {
                0 => 0,
                used => last >> (8 * used),
            };
            assert_eq!(
                (past, column.words().len()),
                (0, want.len().div_ceil(8)),
                "after a run of {n}"
            );
        }
        for at in 0..want.len() {
            for end in at..=want.len() {
                let mut out = vec![0; end - at];
                column.read(at, &mut out);
                assert_eq!(out, want[at..end], "bytes {at}..{end}");
            }
        }
        column.grow(400);
        assert_eq!((bytes(&column), column.capacity()), (want, 400));
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn extend_past_capacity_panics() {
        // Two bytes are reserved as a word: eight fit, nine do not.
        let column = Column::with_capacity(2);
        column.extend(&[0; 8]);
        column.extend(&[0]);
    }

    #[test]
    fn exclusive_access_grows_and_copies() {
        let mut column = Column::with_capacity(2);
        column.extend(&[9, 10]);
        column.grow(14);
        assert_eq!((bytes(&column), column.capacity()), (vec![9, 10], 16));
        column.extend(&[11]);
        column.grow(8);
        column.extend_zeroed(2);
        column.extend(&[12]);
        assert_eq!(
            (bytes(&column), column.capacity()),
            (vec![9, 10, 11, 0, 0, 12], 16)
        );
    }

    /// The zeroed reservation at its edges (Miri runs this): a column
    /// with no words — a dangling, zero-length box — one of a single
    /// byte, and ones of a whole word and one byte past it are
    /// allocated, extended, grown (a copy into a fresh reservation) and
    /// dropped.
    #[test]
    fn zero_and_one_slot_columns_allocate_clone_and_grow() {
        for capacity in [0usize, 1, 8, 9] {
            let mut column = Column::with_capacity(capacity);
            let values = vec![0xA5u8; capacity];
            column.extend(&values);
            assert_eq!(
                (bytes(&column), column.capacity()),
                (values.clone(), 8 * capacity.div_ceil(8))
            );
            column.grow(capacity + 2);
            column.extend(&[8, 9]);
            assert_eq!(bytes(&column), [&values[..], &[8, 9]].concat());
        }
    }

    #[test]
    fn a_second_writer_is_refused_not_raced() {
        let column = Column::with_capacity(4);
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            column.publish(1, |_| column.extend(&[2]));
        }));
        assert!(nested.is_err(), "a nested extend must panic");
        assert_eq!(column.len(), 0);
    }

    /// A reader that sees `n` bytes published sees exactly the bytes
    /// written — never an unwritten one (the writer's stores happen
    /// before the length that covers them). Runs of three bytes, so
    /// the writer stores into words the readers are loading.
    #[test]
    fn readers_see_only_fully_written_prefixes() {
        const N: usize = if cfg!(miri) { 300 } else { 30_000 };
        let value = |i: usize| (i % 251 + 1) as u8;
        let column = Column::with_capacity(N);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut seen = 0;
                    while seen < N {
                        let len = column.len();
                        assert!(len >= seen, "the length went backwards");
                        seen = len;
                        let at = len.saturating_sub(64);
                        let mut out = vec![0; len - at];
                        column.read(at, &mut out);
                        for (i, &b) in (at..).zip(&out) {
                            assert_eq!(b, value(i), "byte {i} published unwritten");
                        }
                    }
                });
            }
            for i in (0..N).step_by(3) {
                column.publish(3, |len| {
                    // Dawdle inside the window a misplaced length store
                    // would open.
                    (0..32).for_each(|_| std::hint::spin_loop());
                    column.store(len, &[value(i), value(i + 1), value(i + 2)]);
                });
            }
        });
    }
}
