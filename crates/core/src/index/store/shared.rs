//! [`Column`]: the one buffer the index reads while it is still being
//! written, and the index's only `unsafe` outside the SIMD kernels.
//!
//! A column is allocated once, at a fixed capacity, and never moves.
//! One writer fills slots past the published length and then
//! release-stores the new length; readers acquire-load the length and
//! slice the prefix below it. That is the **publication invariant**
//! (DESIGN.md "Publication invariant") every `unsafe` block here
//! cites:
//!
//! 1. a slot below `len` is never written again while the column is
//!    shared (`&self`);
//! 2. a slot at or past `len` is touched by the writer alone, and there
//!    is at most one writer at a time (`writing`);
//! 3. `len` grows only by a `Release` store that follows the writes it
//!    covers, and readers learn it only by an `Acquire` load.
//!
//! `&mut self` methods are exempt: exclusive access rules out readers
//! and writers alike.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A fixed-capacity append-only buffer with one writer and any number
/// of lock-free readers (module docs: the publication invariant).
pub(crate) struct Column<T> {
    slots: Box<[UnsafeCell<T>]>,
    /// Published length: `Release`-stored by the writer after it filled
    /// the slots below it, `Acquire`-loaded by readers.
    len: AtomicUsize,
    /// Held for the duration of an `extend`; a second writer panics
    /// instead of racing the first.
    writing: AtomicBool,
}

// SAFETY: through `&Column` another thread can only read slots below
// `len`, which invariant 1 makes immutable (`T: Sync`), or `extend`,
// which moves `T`s from its own thread (`T: Send`) into slots that
// invariant 2 reserves for the single writer.
unsafe impl<T: Send + Sync> Sync for Column<T> {}

impl<T: Copy + Default> Column<T> {
    /// An empty column that can hold `capacity` values.
    pub(crate) fn with_capacity(capacity: usize) -> Column<T> {
        Column {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(T::default()))
                .collect(),
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
        // `extend` (invariant 3), so the writes to slots `..len`
        // happened before it, and invariant 1 says nothing writes them
        // again while this `&self` borrow lives. `len ≤ capacity` is
        // checked where it is stored; `UnsafeCell<T>` has `T`'s layout.
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr().cast::<T>(), len) }
    }

    /// Appends `n` values: `fill` receives the `n` slots past the
    /// published length (holding `T::default()` or stale values), and
    /// once it returns they are published together.
    ///
    /// # Panics
    /// Panics when `n` exceeds the spare capacity, or when another
    /// `extend` on this column is still running — which is what lets a
    /// shared column keep invariant 2 without an `unsafe fn`.
    pub(crate) fn extend(&self, n: usize, fill: impl FnOnce(&mut [T])) {
        assert!(
            !self.writing.swap(true, Ordering::Acquire),
            "a column has one writer at a time"
        );
        let len = self.len.load(Ordering::Relaxed);
        assert!(n <= self.slots.len() - len, "column capacity exceeded");
        // SAFETY: slots `len..len + n` are in bounds (asserted) and at
        // or past the published length, so no reader slices them
        // (invariant 3) and — holding `writing` — no other writer does
        // either (invariant 2): the `&mut` is exclusive.
        let slots = unsafe {
            std::slice::from_raw_parts_mut(UnsafeCell::raw_get(self.slots.as_ptr().add(len)), n)
        };
        fill(slots);
        self.len.store(len + n, Ordering::Release);
        self.writing.store(false, Ordering::Release);
    }

    /// Appends a copy of `values`.
    pub(crate) fn extend_from_slice(&self, values: &[T]) {
        self.extend(values.len(), |slots| slots.copy_from_slice(values));
    }

    /// The published values, mutable: exclusive access means nobody is
    /// reading them.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        let len = *self.len.get_mut();
        // SAFETY: `&mut self` proves no reader or writer borrows the
        // column; `len ≤ capacity`, and `UnsafeCell<T>` has `T`'s
        // layout.
        unsafe { std::slice::from_raw_parts_mut(self.slots.as_mut_ptr().cast::<T>(), len) }
    }

    /// Forgets everything past `len` (capacity is kept).
    pub(crate) fn truncate(&mut self, len: usize) {
        let published = self.len.get_mut();
        *published = len.min(*published);
    }

    /// Moves the column into a buffer of at least `capacity` values —
    /// the one operation that reallocates, hence `&mut self`.
    pub(crate) fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity() {
            *self = self.with_room(capacity);
        }
    }

    /// A copy of the published values in a fresh buffer of `capacity`.
    fn with_room(&self, capacity: usize) -> Column<T> {
        let copy = Column::with_capacity(capacity);
        copy.extend_from_slice(self.published());
        copy
    }
}

impl<T: Copy + Default> Clone for Column<T> {
    fn clone(&self) -> Column<T> {
        self.with_room(self.capacity())
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
        Column::<u8>::with_capacity(2).extend(3, |_| {});
    }

    #[test]
    fn exclusive_access_edits_truncates_and_grows() {
        let mut column = Column::<i16>::with_capacity(4);
        column.extend_from_slice(&[7, 8, 9, 10]);
        column.as_mut_slice().copy_within(2..4, 0);
        column.truncate(2);
        assert_eq!(column.published(), [9, 10]);
        column.grow(16);
        assert_eq!((column.published(), column.capacity()), (&[9, 10][..], 16));
        column.extend(1, |slots| slots[0] = 11);
        let copy = column.clone();
        column.truncate(0);
        assert_eq!((copy.published(), copy.capacity()), (&[9, 10, 11][..], 16));
    }

    #[test]
    fn a_second_writer_is_refused_not_raced() {
        let column = Column::<u64>::with_capacity(4);
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            column.extend(1, |_| column.extend(1, |_| {}));
        }));
        assert!(nested.is_err(), "a nested extend must panic");
        assert!(column.published().is_empty());
    }

    /// A reader that sees `n` values published sees exactly the values
    /// written — never a default-filled slot (the writer's stores
    /// happen before the length that covers them).
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
                column.extend(1, |slots| {
                    // Dawdle inside the window a misplaced length store
                    // would open.
                    (0..32).for_each(|_| std::hint::spin_loop());
                    slots[0] = i as u64 + 1;
                });
            }
        });
    }
}
