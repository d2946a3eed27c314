//! [`Column`]: the one buffer the index reads while it is still being
//! written, and the index's only `unsafe` outside the SIMD kernels.
//!
//! A column is reserved once, at a fixed capacity, and never moves.
//! Reserving writes nothing: the slots are uninitialised until a value
//! lands in them, so a large column costs address space, not memory,
//! for as long as the allocator's pages stay untouched. One writer
//! fills slots past the published length and then release-stores the
//! new length; readers acquire-load the length and slice the prefix
//! below it. That is the **publication invariant** (DESIGN.md
//! "Publication invariant") every `unsafe` block that touches a slot
//! cites:
//!
//! 1. a slot below `len` is initialised, and changed only through its
//!    own interior mutability while the column is shared (`&self`);
//! 2. a slot at or past `len` is touched by the writer alone — written,
//!    never read — and there is at most one writer at a time
//!    (`writing`);
//! 3. `len` grows only by a `Release` store that follows the writes it
//!    covers, and readers learn it only by an `Acquire` load.
//!
//! Exclusive access (`&mut self`) only ever moves a column whole
//! ([`Column::grow`]); no published slot is written through it. The
//! `unsafe` sites are four: the `Sync` impl, the uninitialised
//! reservation, the published slice and the writer's slot write.
//!
//! The prefilter plane is the one column whose published slots still
//! change (invariant 1's interior mutability): a `Column<AtomicU64>`
//! that publishes a 512-row block's words, zeroed, when the block's
//! first row lands, and then takes each 64-row group's words by atomic
//! stores when the group's 64th row lands, before the arena's `Release`
//! store of that row count. The rule that keeps that sound without a
//! lock:
//!
//! * a word changes only by atomic stores of the one writer, and every
//!   read of it is an atomic load — phase 1's word loop included, so
//!   nothing about the plane needs `unsafe`;
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

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A fixed-capacity append-only buffer with one writer and any number
/// of lock-free readers (module docs: the publication invariant).
pub(crate) struct Column<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Published length: `Release`-stored by the writer after it filled
    /// the slots below it, `Acquire`-loaded by readers.
    len: AtomicUsize,
    /// Held for the duration of an `extend`; a second writer panics
    /// instead of racing the first.
    writing: AtomicBool,
}

// SAFETY: through `&Column` another thread can only borrow slots below
// `len`, which invariant 1 leaves changeable only through `T`'s own
// interior mutability (`T: Sync`), or `extend`, which moves `T`s from
// its own thread (`T: Send`) into slots that invariant 2 reserves for
// the single writer.
unsafe impl<T: Send + Sync> Sync for Column<T> {}

impl<T> Column<T> {
    /// An empty column that can hold `capacity` values: a reservation,
    /// not a write. The slots are left uninitialised — nothing reads
    /// one before `extend` has written it — so creating a column
    /// neither clears nor touches its memory: pages the allocator
    /// hands out fresh stay the kernel's zero page until rows land in
    /// them, and a block it recycled is not swept first. (A zeroed
    /// allocation is not the same thing: `calloc` clears a recycled
    /// block, and glibc's clears — and so faults in — a whole fresh
    /// 8 MiB one once the process has freed another that size.)
    pub(crate) fn with_capacity(capacity: usize) -> Column<T> {
        let mut slots = Vec::with_capacity(capacity);
        // SAFETY: the capacity was just reserved, and a
        // `MaybeUninit` — in an `UnsafeCell` or not — is valid
        // uninitialised.
        unsafe { slots.set_len(capacity) };
        Column {
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
            writing: AtomicBool::new(false),
        }
    }

    /// Values the column can hold without [`Column::grow`].
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Everything published so far. The slice stays valid — and its
    /// contents fixed — while later `extend`s land behind it.
    pub(crate) fn published(&self) -> &[T] {
        let len = self.len.load(Ordering::Acquire);
        // SAFETY: the Acquire load pairs with the Release store in
        // `extend` (invariant 3), so the writes that initialised slots
        // `..len` happened before it, and invariant 1 says nothing
        // changes them while this `&self` borrow lives but their own
        // interior mutability, which `&T` permits.
        // `len ≤ capacity` is checked where it is stored;
        // `UnsafeCell<MaybeUninit<T>>` has `T`'s layout.
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr().cast::<T>(), len) }
    }

    /// Appends `values` — all of them, published together once the
    /// last is written.
    ///
    /// # Panics
    /// Panics when `values` is longer than the spare capacity, or when
    /// another `extend` on this column is still running — which is what
    /// lets a shared column keep invariant 2 without an `unsafe fn`.
    pub(crate) fn extend(&self, values: impl ExactSizeIterator<Item = T>) {
        assert!(
            !self.writing.swap(true, Ordering::Acquire),
            "a column has one writer at a time"
        );
        let len = self.len.load(Ordering::Relaxed);
        let n = values.len();
        assert!(n <= self.slots.len() - len, "column capacity exceeded");
        let mut written = 0;
        for (slot, value) in self.slots[len..len + n].iter().zip(values) {
            // SAFETY: the slot is at or past the published length, so
            // no reader slices it (invariant 3) and — holding `writing`
            // — no other writer touches it either (invariant 2): this
            // write is the only access, and it reads nothing.
            unsafe { slot.get().write(MaybeUninit::new(value)) };
            written += 1;
        }
        // Only what was written is published, whatever `len()` claimed.
        debug_assert_eq!(written, n, "the iterator's length was not exact");
        self.len.store(len + written, Ordering::Release);
        self.writing.store(false, Ordering::Release);
    }

    /// A copy of the published values, each taken by `copy` (`T` need
    /// not be `Copy`), in a fresh buffer of `capacity`.
    pub(crate) fn copied(&self, capacity: usize, copy: impl FnMut(&T) -> T) -> Column<T> {
        let fresh = Column::with_capacity(capacity);
        fresh.extend(self.published().iter().map(copy));
        fresh
    }
}

impl<T: Copy> Column<T> {
    /// Appends a copy of `values`.
    pub(crate) fn extend_from_slice(&self, values: &[T]) {
        self.extend(values.iter().copied());
    }

    /// Moves the column into a buffer of at least `capacity` values —
    /// the one operation that reallocates, hence `&mut self`.
    pub(crate) fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity() {
            *self = self.copied(capacity, |&v| v);
        }
    }
}

impl<T> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Column")
            .field("len", &self.len.load(Ordering::Acquire))
            .field("capacity", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_publishes_and_earlier_slices_stay_put() {
        let column = Column::<u32>::with_capacity(8);
        assert_eq!((column.published(), column.capacity()), (&[][..], 8));
        column.extend_from_slice(&[1, 2, 3]);
        let early = column.published();
        column.extend_from_slice(&[4, 5]);
        assert_eq!(early, [1, 2, 3]);
        assert_eq!(column.published(), [1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn extend_past_capacity_panics() {
        Column::<u8>::with_capacity(2).extend([0; 3].into_iter());
    }

    #[test]
    fn exclusive_access_grows_and_copies() {
        let mut column = Column::<i16>::with_capacity(2);
        column.extend_from_slice(&[9, 10]);
        column.grow(16);
        assert_eq!((column.published(), column.capacity()), (&[9, 10][..], 16));
        column.extend([11].into_iter());
        let copy = column.copied(column.capacity(), |&v| v);
        column.extend([12].into_iter());
        assert_eq!((copy.published(), copy.capacity()), (&[9, 10, 11][..], 16));
    }

    /// The uninitialised reservation at its edges (Miri runs this): a
    /// column with no slots — a dangling, zero-length box — and one
    /// with a single slot are allocated, extended, copied (the way
    /// `grow` copies), grown and dropped, and nothing unwritten is ever
    /// read.
    #[test]
    fn zero_and_one_slot_columns_allocate_clone_and_grow() {
        for capacity in [0usize, 1] {
            let mut column = Column::<i64>::with_capacity(capacity);
            let values = vec![-7i64; capacity];
            column.extend_from_slice(&values);
            assert_eq!(
                (column.published(), column.capacity()),
                (&values[..], capacity)
            );
            let copy = column.copied(capacity, |&v| v);
            assert_eq!((copy.published(), copy.capacity()), (&values[..], capacity));
            column.grow(capacity + 2);
            column.extend_from_slice(&[8, 9]);
            assert_eq!(column.published(), [&values[..], &[8, 9]].concat());
            assert_eq!(copy.published(), values, "a copy owns its slots");
        }
    }

    #[test]
    fn a_second_writer_is_refused_not_raced() {
        let column = Column::<u64>::with_capacity(4);
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            column.extend((0..1).map(|_| {
                column.extend([2].into_iter());
                1
            }));
        }));
        assert!(nested.is_err(), "a nested extend must panic");
        assert!(column.published().is_empty());
    }

    /// A reader that sees `n` values published sees exactly the values
    /// written — never an unwritten slot (the writer's stores happen
    /// before the length that covers them).
    #[test]
    fn readers_see_only_fully_written_prefixes() {
        const N: usize = if cfg!(miri) { 200 } else { 20_000 };
        let column = Column::<u64>::with_capacity(N);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut seen = 0;
                    while seen < N {
                        let values = column.published();
                        assert!(values.len() >= seen, "the length went backwards");
                        seen = values.len();
                        for (i, &v) in values.iter().enumerate().rev().take(64) {
                            assert_eq!(v, i as u64 + 1, "slot {i} published unwritten");
                        }
                    }
                });
            }
            for i in 0..N {
                column.extend((0..1).map(|_| {
                    // Dawdle inside the window a misplaced length store
                    // would open.
                    (0..32).for_each(|_| std::hint::spin_loop());
                    i as u64 + 1
                }));
            }
        });
    }
}
