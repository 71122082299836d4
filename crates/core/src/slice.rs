//! Shared-slice utility for worksharing writes.
//!
//! OpenMP loops routinely write `a[i] = …` from many threads, relying
//! on the schedule to hand each index to exactly one thread. Rust's
//! `&mut` aliasing rules cannot see that, so [`SharedSlice`] provides
//! the classic escape hatch: a `Sync` view of a mutable slice whose
//! unsynchronized writes are `unsafe`, with the disjointness obligation
//! placed on the caller — precisely the obligation OpenMP programs
//! already discharge by construction, because worksharing schedules
//! partition the iteration space (a property the runtime's property
//! tests pin down).
//!
//! **Prefer the safe output layer.** Since the `IterSpace` redesign,
//! [`ParFor::write_into`](crate::builder::ParFor::write_into) and
//! [`ParFor::write_chunks_into`](crate::builder::ParFor::write_chunks_into)
//! cover the common shapes of this pattern — one output slot per
//! iteration, or whole output rows per claimed chunk — with zero
//! caller-side `unsafe` (NPB CG, Mandelbrot, the IS key generation and
//! the heat example are written with them). `SharedSlice` remains for
//! what those cannot express: scatters to schedule-unrelated indices,
//! or cross-barrier read/write phases inside one long-lived `parallel`
//! region (the NPB IS ranking is both).

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;

/// A `Sync` view over `&mut [T]` permitting disjoint unsynchronized
/// element writes from a team.
///
/// ```
/// use romp_core::prelude::*;
/// use romp_core::slice::SharedSlice;
///
/// let mut out = vec![0usize; 1000];
/// {
///     let view = SharedSlice::new(&mut out);
///     omp_parallel!(num_threads(4), |ctx| {
///         omp_for!(ctx, schedule(static, 16), for i in 0..1000 {
///             // SAFETY: the worksharing loop gives each index to
///             // exactly one thread.
///             unsafe { view.write(i, i * 2) };
///         });
///     });
/// }
/// assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
/// ```
pub struct SharedSlice<'a, T> {
    ptr: *const UnsafeCell<T>,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access discipline is delegated to the unsafe write/read
// methods; the wrapper itself only shares a pointer.
unsafe impl<T: Send + Sync> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send + Sync> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap a mutable slice. The borrow keeps ordinary access frozen
    /// for the wrapper's lifetime.
    pub fn new(slice: &'a mut [T]) -> Self {
        let len = slice.len();
        SharedSlice {
            ptr: slice.as_mut_ptr() as *const UnsafeCell<T>,
            len,
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the slice empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write element `i`.
    ///
    /// # Safety
    ///
    /// No other thread may access element `i` concurrently. A
    /// worksharing schedule that assigns `i` to exactly one thread (as
    /// every romp schedule does) discharges this.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len, "SharedSlice index {i} out of {}", self.len);
        // SAFETY: caller guarantees exclusivity for element i.
        unsafe { *(*self.ptr.add(i)).get() = value };
    }

    /// Read element `i`.
    ///
    /// # Safety
    ///
    /// No thread may be writing element `i` concurrently (reads of
    /// elements written in a *previous* construct are fine — the
    /// construct barrier publishes them).
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len, "SharedSlice index {i} out of {}", self.len);
        // SAFETY: caller guarantees no concurrent writer.
        unsafe { *(*self.ptr.add(i)).get() }
    }

    /// Raw pointer to the start of the underlying storage. Useful for
    /// constructing whole-slice read views between constructs (after a
    /// barrier has published all writes):
    /// `std::slice::from_raw_parts(s.as_ptr(), s.len())`.
    pub fn as_ptr(&self) -> *const T {
        self.ptr as *const T
    }

    /// Mutable reference to element `i`.
    ///
    /// # Safety
    ///
    /// Same exclusivity obligation as [`write`](Self::write), for the
    /// lifetime of the returned borrow.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "SharedSlice index {i} out of {}", self.len);
        // SAFETY: caller guarantees exclusivity for element i.
        unsafe { &mut *(*self.ptr.add(i)).get() }
    }

    /// Read-only view of the elements in `range` — a thread reading a
    /// block other threads filled before the last barrier.
    ///
    /// # Safety
    ///
    /// No thread may write any element of `range` while the returned
    /// borrow lives.
    ///
    /// # Panics
    ///
    /// If `range` is not within the slice.
    #[inline]
    pub unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        self.check(&range);
        // SAFETY: in bounds (checked); the caller guarantees no writer.
        unsafe { std::slice::from_raw_parts(self.as_ptr().add(range.start), range.len()) }
    }

    /// Exclusive view of the elements in `range` — a thread's own block
    /// of a shared work array, as an ordinary `&mut [T]`.
    ///
    /// # Safety
    ///
    /// No other thread may access any element of `range` while the
    /// returned borrow lives.
    ///
    /// # Panics
    ///
    /// If `range` is not within the slice.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        self.check(&range);
        // SAFETY: in bounds (checked); the pointer comes from the
        // `&mut [T]` this view froze, and the caller guarantees the
        // block is this thread's alone.
        unsafe {
            std::slice::from_raw_parts_mut((self.ptr as *mut T).add(range.start), range.len())
        }
    }

    fn check(&self, range: &Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedSlice range {range:?} out of {}",
            self.len
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut data = vec![0u64; 4096];
        {
            let view = SharedSlice::new(&mut data);
            par_for(0..4096usize)
                .num_threads(8)
                .schedule(Schedule::dynamic_chunk(64))
                .run(|i| unsafe { view.write(i, (i * i) as u64) });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn read_after_barrier_sees_writes() {
        let mut data = vec![0usize; 256];
        let mut mirror = vec![0usize; 256];
        {
            let d = SharedSlice::new(&mut data);
            let m = SharedSlice::new(&mut mirror);
            omp_parallel!(num_threads(4), |ctx| {
                omp_for!(
                    ctx,
                    for i in 0..256 {
                        unsafe { d.write(i, i + 1) };
                    }
                );
                // Implied barrier published the writes; now read a
                // shuffled pattern.
                omp_for!(
                    ctx,
                    for i in 0..256 {
                        let v = unsafe { d.read(255 - i) };
                        unsafe { m.write(i, v) };
                    }
                );
            });
        }
        for (i, &v) in mirror.iter().enumerate() {
            assert_eq!(v, 256 - i);
        }
    }

    #[test]
    fn blocks_are_ordinary_slices_across_a_barrier() {
        // Each thread fills its own block, then (after the barrier)
        // sums everyone's: 4 blocks of 8.
        let mut data = vec![0u32; 32];
        let mut sums = vec![0u32; 4];
        {
            let d = SharedSlice::new(&mut data);
            let s = SharedSlice::new(&mut sums);
            parallel().num_threads(4).run(|ctx| {
                let t = ctx.thread_num();
                // Team may be smaller than asked: cover every block.
                for b in (t..4).step_by(ctx.num_threads()) {
                    unsafe { d.slice_mut(8 * b..8 * b + 8) }.fill(b as u32 + 1);
                }
                ctx.barrier();
                for b in (t..4).step_by(ctx.num_threads()) {
                    unsafe { s.write(b, d.slice(0..32).iter().sum()) };
                }
            });
        }
        assert_eq!(sums, [8 * (1 + 2 + 3 + 4); 4]);
    }

    #[test]
    #[should_panic(expected = "out of 4")]
    fn block_out_of_range_panics() {
        let mut data = vec![0u8; 4];
        let view = SharedSlice::new(&mut data);
        let _ = unsafe { view.slice_mut(2..5) };
    }

    #[test]
    fn get_mut_accumulates() {
        let mut data = vec![0i64; 100];
        {
            let view = SharedSlice::new(&mut data);
            par_for(0..100usize).num_threads(4).run(|i| {
                let cell = unsafe { view.get_mut(i) };
                *cell += i as i64;
                *cell *= 2;
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 2 * i as i64);
        }
    }

    #[test]
    fn len_and_empty() {
        let mut v = [1, 2, 3];
        let s = SharedSlice::new(&mut v);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let mut e: [i32; 0] = [];
        assert!(SharedSlice::new(&mut e).is_empty());
    }
}
