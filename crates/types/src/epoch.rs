//! [`EpochCell`]: shared state whose readers and writer are kept apart
//! by the phases of an epoch protocol instead of by a lock.
//!
//! The multi-core machine runs each epoch in two phases separated by
//! barriers: in the run phase every thread reads the shared LLC and STLB
//! and writes only its own epoch slot; in the replay phase each shared
//! structure has exactly one writer and nothing reads it. Within that
//! protocol a lock only adds an atomic read-modify-write to every probe.
//! The cell drops it: reads are plain loads, and the one `unsafe` write
//! entry point states the phase contract its caller must keep.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// A value shared between threads that alternate between a phase in
/// which any thread may read it and a phase in which one thread writes
/// it, with a barrier between the phases.
///
/// Aligned to a 64-byte cache line, so cells in adjacent array slots
/// never share a line and two host threads working on neighbouring
/// cells do not false-share.
///
/// Debug builds mark a write in progress, and [`read`](Self::read)
/// panics if it sees the mark: a read that overlaps a write is a
/// protocol slip. Release builds carry no check.
///
/// # Examples
///
/// ```
/// use morrigan_types::EpochCell;
///
/// let mut cell = EpochCell::new(1);
/// *cell.get_mut() += 1;
/// assert_eq!(*cell.read(), 2);
/// // SAFETY: no other thread exists and no reference into the cell is
/// // alive while the write runs.
/// unsafe { cell.write(|v| *v *= 10) };
/// assert_eq!(*cell.read(), 20);
/// ```
#[repr(align(64))]
pub struct EpochCell<T> {
    value: UnsafeCell<T>,
    /// Set for the duration of a [`write`](Self::write).
    #[cfg(debug_assertions)]
    writing: AtomicBool,
}

// SAFETY: a shared `&EpochCell<T>` hands out `&T` to any thread through
// `read` (so `T: Sync`) and lets one thread mutate the value through the
// `unsafe` `write` (so `T: Send`, as a value moved to that thread would
// be). The exclusion between the two is the caller's obligation, stated
// on `write`: writes happen only while no other thread holds a reference
// into the cell, and the barrier that ends the phase orders the write
// before every later read. The debug builds' `writing` mark is an
// atomic, shared soundly by construction.
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Self {
            value: UnsafeCell::new(value),
            #[cfg(debug_assertions)]
            writing: AtomicBool::new(false),
        }
    }

    /// Exclusive access; the borrow checker proves no one else holds a
    /// reference.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Shared access: a plain load.
    ///
    /// # Panics
    ///
    /// In debug builds, if a [`write`](Self::write) to this cell is in
    /// progress on any thread that has published its mark.
    pub fn read(&self) -> &T {
        #[cfg(debug_assertions)]
        assert!(
            !self.writing.load(Ordering::Relaxed),
            "EpochCell read while a write is in progress (epoch phase contract broken)"
        );
        // SAFETY: `write` requires that no reference into the cell exists
        // while it mutates, and every mutation goes through `write` or
        // `get_mut` (which holds `&mut self`). So no `&mut T` is alive
        // now, and sharing `&T` is sound.
        unsafe { &*self.value.get() }
    }

    /// Mutates the value through a shared reference.
    ///
    /// # Safety
    ///
    /// From the call until `f` returns, no other thread may hold a
    /// reference into the cell: no reference returned by
    /// [`read`](Self::read) may be alive and no other `write` may run.
    /// Afterwards, other threads may read only once a synchronizing
    /// operation (a barrier's release/acquire pair) orders the write
    /// before their reads.
    pub unsafe fn write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(debug_assertions)]
        self.writing.store(true, Ordering::Relaxed);
        // SAFETY: the caller guarantees that no other reference into the
        // cell exists until `f` returns, so this `&mut T` is unique.
        let result = f(unsafe { &mut *self.value.get() });
        #[cfg(debug_assertions)]
        self.writing.store(false, Ordering::Relaxed);
        result
    }
}

impl<T: Clone> Clone for EpochCell<T> {
    fn clone(&self) -> Self {
        Self::new(self.read().clone())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("EpochCell").field(self.read()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_padded_to_cache_lines() {
        assert_eq!(std::mem::align_of::<EpochCell<u8>>(), 64);
        assert!(std::mem::size_of::<EpochCell<[u64; 9]>>().is_multiple_of(64));
        let cells: Vec<EpochCell<u64>> = (0..4).map(EpochCell::new).collect();
        for pair in cells.windows(2) {
            let (a, b) = (&pair[0] as *const _ as usize, &pair[1] as *const _ as usize);
            assert!(
                a.is_multiple_of(64) && b - a >= 64,
                "adjacent cells share a line"
            );
        }
    }

    #[test]
    fn writes_are_visible_to_later_reads() {
        let cell = EpochCell::new(vec![1, 2]);
        // SAFETY: single thread; no reference from `read` is alive.
        let len = unsafe {
            cell.write(|v| {
                v.push(3);
                v.len()
            })
        };
        assert_eq!(len, 3);
        assert_eq!(cell.read(), &[1, 2, 3]);
        assert_eq!(cell.clone().read(), &[1, 2, 3]);
    }

    #[test]
    fn phases_hand_the_cell_between_threads() {
        // Run phase: two threads read; replay phase: one writes. The
        // scope joins are the barriers.
        let cell = EpochCell::new(0u64);
        for epoch in 1..=3 {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| assert_eq!(*cell.read(), epoch - 1));
                }
            });
            std::thread::scope(|s| {
                // SAFETY: the only thread touching the cell in this scope.
                s.spawn(|| unsafe { cell.write(|v| *v = epoch) });
            });
        }
        assert_eq!(*cell.read(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write is in progress")]
    fn a_read_during_a_write_panics_in_debug_builds() {
        let cell = EpochCell::new(0u32);
        // SAFETY: the nested `read` asserts before it creates a reference,
        // so the write's `&mut` is never aliased.
        unsafe {
            cell.write(|_| {
                cell.read();
            })
        };
    }
}
