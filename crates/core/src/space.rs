//! Typed iteration spaces for worksharing loops.
//!
//! OpenMP's canonical loop forms go far beyond `0..n`: bounds can be
//! signed, increments can stride (either direction), and `collapse(n)`
//! fuses a rectangular loop nest into one schedulable space. This
//! module captures all of those shapes behind one sealed trait,
//! [`IterSpace`]: every space maps onto the dense normalized space
//! `0..trip()` of `u64` points, and [`decode`](IterSpace::decode) maps
//! a normalized point back to the user-facing index. The runtime only
//! ever schedules normalized points
//! ([`ThreadCtx::ws_for_normalized`]); every front end — the builder's
//! generic [`ParFor`](crate::builder::ParFor), the directive macros,
//! and the `//#omp` translator — lowers through the helpers here, so
//! trip accounting and decoding exist exactly once: the runtime has no
//! strided entry of its own, and its one chunk-claim loop serves every
//! schedule, `ordered` and `sections` alike.
//!
//! Decoding is chunk-granular by design: the scheduler hands a thread a
//! contiguous normalized chunk `[lo, hi)`, and
//! [`chunk`](IterSpace::chunk) turns it into an incremental iterator
//! that decodes the chunk's *first* point with whatever division the
//! space needs and then steps — collapsed spaces pay one `div`/`mod`
//! per chunk, not one per iteration (the divisor itself is computed
//! once at construction, not in the loop).
//!
//! ```
//! use romp_core::prelude::*;
//!
//! // A strided signed space through the same builder as a plain range.
//! let seen = std::sync::Mutex::new(Vec::new());
//! par_for(StridedRange::new(10, 0, -3))
//!     .num_threads(2)
//!     .run(|i| seen.lock().unwrap().push(i));
//! let mut v = seen.into_inner().unwrap();
//! v.sort_unstable();
//! assert_eq!(v, vec![1, 4, 7, 10]);
//!
//! // collapse(2): both loops fused into one schedulable space.
//! let hits: Vec<std::sync::atomic::AtomicU32> =
//!     (0..6).map(|_| Default::default()).collect();
//! par_for(collapse2(0..2usize, 0..3usize)).num_threads(3).run(|(i, j)| {
//!     hits[i * 3 + j].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//! });
//! assert!(hits.iter().all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
//! ```

use romp_runtime::{Schedule, ThreadCtx};
use std::ops::Range;

mod sealed {
    pub trait Sealed {}
    impl Sealed for std::ops::Range<usize> {}
    impl Sealed for std::ops::Range<i64> {}
    impl Sealed for super::StridedRange {}
    impl<A: super::IterSpace, B: super::IterSpace> Sealed for super::Collapse2<A, B> {}
    impl<A: super::IterSpace, B: super::IterSpace, C: super::IterSpace> Sealed
        for super::Collapse3<A, B, C>
    {
    }
}

/// A worksharing iteration space: anything that maps onto the dense
/// normalized space `0..trip()` with a cheap inverse.
///
/// Sealed: the scheduling contract (every normalized point decoded
/// exactly once) is pinned by this crate's property tests, so outside
/// implementations are not accepted. The provided shapes are
/// `Range<usize>`, `Range<i64>`, [`StridedRange`], and the
/// [`Collapse2`]/[`Collapse3`] fusions of any of those.
pub trait IterSpace: sealed::Sealed + Clone + Send + Sync {
    /// The user-facing index type (`usize`, `i64`, or a tuple for
    /// collapsed spaces).
    type Index: Copy + Send;

    /// Incremental decoder for one contiguous normalized chunk.
    type Chunk: Iterator<Item = Self::Index>;

    /// Number of points in the space.
    fn trip(&self) -> u64;

    /// Map normalized point `k < trip()` back to the user-facing index.
    fn decode(&self, k: u64) -> Self::Index;

    /// Incremental decoder over the normalized chunk `lo..hi`
    /// (`lo <= hi <= trip()`): yields `decode(lo), …, decode(hi - 1)`
    /// without re-dividing per point.
    fn chunk(&self, lo: u64, hi: u64) -> Self::Chunk;
}

impl IterSpace for Range<usize> {
    type Index = usize;
    type Chunk = Range<usize>;

    #[inline]
    fn trip(&self) -> u64 {
        self.end.saturating_sub(self.start) as u64
    }

    #[inline]
    fn decode(&self, k: u64) -> usize {
        self.start + k as usize
    }

    #[inline]
    fn chunk(&self, lo: u64, hi: u64) -> Range<usize> {
        self.start + lo as usize..self.start + hi as usize
    }
}

impl IterSpace for Range<i64> {
    type Index = i64;
    type Chunk = Range<i64>;

    #[inline]
    fn trip(&self) -> u64 {
        if self.end > self.start {
            self.end.abs_diff(self.start)
        } else {
            0
        }
    }

    #[inline]
    fn decode(&self, k: u64) -> i64 {
        self.start + k as i64
    }

    #[inline]
    fn chunk(&self, lo: u64, hi: u64) -> Range<i64> {
        self.start + lo as i64..self.start + hi as i64
    }
}

/// A strided signed space: `start, start + step, …` while `< end`
/// (positive step) or `> end` (negative step) — OpenMP's canonical
/// loop increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedRange {
    start: i64,
    step: i64,
    trip: u64,
}

impl StridedRange {
    /// Build the space. `step` must be nonzero; a bound pair that the
    /// step walks away from (e.g. `5..2` with step `1`) is empty, as in
    /// OpenMP.
    pub fn new(start: i64, end: i64, step: i64) -> Self {
        assert!(step != 0, "worksharing loop step must be nonzero");
        let trip = if step > 0 {
            if end > start {
                end.abs_diff(start).div_ceil(step.unsigned_abs())
            } else {
                0
            }
        } else if start > end {
            start.abs_diff(end).div_ceil(step.unsigned_abs())
        } else {
            0
        };
        StridedRange { start, step, trip }
    }

    /// The stride.
    pub fn step(&self) -> i64 {
        self.step
    }
}

/// Chunk decoder for [`StridedRange`]: one multiply at construction,
/// one add per point.
#[derive(Debug, Clone)]
pub struct StridedChunk {
    next: i64,
    step: i64,
    remaining: u64,
}

impl Iterator for StridedChunk {
    type Item = i64;

    #[inline]
    fn next(&mut self) -> Option<i64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.next;
        self.next = self.next.wrapping_add(self.step);
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl IterSpace for StridedRange {
    type Index = i64;
    type Chunk = StridedChunk;

    #[inline]
    fn trip(&self) -> u64 {
        self.trip
    }

    /// Wrapping arithmetic: a point of the space is an `i64`, but
    /// `k * step` alone can leave the `i64` range when the span exceeds
    /// `i64::MAX` (the sum wraps back to the exact point).
    #[inline]
    fn decode(&self, k: u64) -> i64 {
        self.start.wrapping_add((k as i64).wrapping_mul(self.step))
    }

    #[inline]
    fn chunk(&self, lo: u64, hi: u64) -> StridedChunk {
        StridedChunk {
            next: self.decode(lo),
            step: self.step,
            remaining: hi.saturating_sub(lo),
        }
    }
}

/// Two spaces fused into one rectangular space (`collapse(2)`): the
/// schedule balances across the whole rectangle, not just the outer
/// loop. Indices decode to `(outer, inner)` tuples.
///
/// The inner-trip divisor is computed **once here**, not per
/// iteration — and [`chunk`](IterSpace::chunk) divides only at chunk
/// entry, stepping incrementally after that.
#[derive(Debug, Clone, Copy)]
pub struct Collapse2<A: IterSpace, B: IterSpace> {
    outer: A,
    inner: B,
    /// `inner.trip()`, hoisted; `max(1)` so `decode` stays total on
    /// empty spaces (where it is never reached by the scheduler).
    div: u64,
    trip: u64,
}

/// Fuse two spaces into a [`Collapse2`].
pub fn collapse2<A: IterSpace, B: IterSpace>(outer: A, inner: B) -> Collapse2<A, B> {
    let inner_trip = inner.trip();
    let trip = outer
        .trip()
        .checked_mul(inner_trip)
        .expect("collapse(2) trip count overflows u64");
    Collapse2 {
        outer,
        inner,
        div: inner_trip.max(1),
        trip,
    }
}

/// Chunk decoder for [`Collapse2`]: divides once at chunk entry, then
/// steps the inner counter and re-decodes the outer index only on
/// wrap-around.
#[derive(Clone)]
pub struct Collapse2Chunk<A: IterSpace, B: IterSpace> {
    outer: A,
    inner: B,
    cur_outer: A::Index,
    ka: u64,
    kb: u64,
    div: u64,
    remaining: u64,
}

impl<A: IterSpace, B: IterSpace> Iterator for Collapse2Chunk<A, B> {
    type Item = (A::Index, B::Index);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.kb == self.div {
            self.kb = 0;
            self.ka += 1;
            self.cur_outer = self.outer.decode(self.ka);
        }
        let out = (self.cur_outer, self.inner.decode(self.kb));
        self.kb += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl<A: IterSpace, B: IterSpace> IterSpace for Collapse2<A, B> {
    type Index = (A::Index, B::Index);
    type Chunk = Collapse2Chunk<A, B>;

    #[inline]
    fn trip(&self) -> u64 {
        self.trip
    }

    #[inline]
    fn decode(&self, k: u64) -> Self::Index {
        (
            self.outer.decode(k / self.div),
            self.inner.decode(k % self.div),
        )
    }

    #[inline]
    fn chunk(&self, lo: u64, hi: u64) -> Self::Chunk {
        let (ka, kb) = (lo / self.div, lo % self.div);
        Collapse2Chunk {
            cur_outer: self.outer.decode(ka),
            outer: self.outer.clone(),
            inner: self.inner.clone(),
            ka,
            kb,
            div: self.div,
            remaining: hi.saturating_sub(lo),
        }
    }
}

/// Three spaces fused into one box space (`collapse(3)`); indices
/// decode to `(a, b, c)` tuples. Divisors are hoisted at construction
/// and [`chunk`](IterSpace::chunk) steps incrementally, dividing only
/// at chunk entry — same cost model as [`Collapse2`].
#[derive(Debug, Clone, Copy)]
pub struct Collapse3<A: IterSpace, B: IterSpace, C: IterSpace> {
    a: A,
    b: B,
    c: C,
    /// `b.trip().max(1)` / `c.trip().max(1)` / their product — hoisted
    /// so `decode` stays total (and division-light) everywhere.
    div_b: u64,
    div_c: u64,
    div_bc: u64,
    trip: u64,
}

/// Fuse three spaces into a [`Collapse3`].
pub fn collapse3<A: IterSpace, B: IterSpace, C: IterSpace>(a: A, b: B, c: C) -> Collapse3<A, B, C> {
    let trip = a
        .trip()
        .checked_mul(b.trip())
        .and_then(|t| t.checked_mul(c.trip()))
        .expect("collapse(3) trip count overflows u64");
    let div_b = b.trip().max(1);
    let div_c = c.trip().max(1);
    Collapse3 {
        a,
        b,
        c,
        div_b,
        div_c,
        // Fits whenever `trip` is non-zero; an empty outer space may
        // pair with inner trips whose product overflows, and then no
        // index is ever decoded.
        div_bc: div_b.saturating_mul(div_c),
        trip,
    }
}

/// Chunk decoder for [`Collapse3`]: divides once at chunk entry, then
/// steps the innermost counter, re-decoding the outer indices only on
/// wrap-around.
#[derive(Clone)]
pub struct Collapse3Chunk<A: IterSpace, B: IterSpace, C: IterSpace> {
    a: A,
    b: B,
    c: C,
    cur_a: A::Index,
    cur_b: B::Index,
    ka: u64,
    kb: u64,
    kc: u64,
    div_b: u64,
    div_c: u64,
    remaining: u64,
}

impl<A: IterSpace, B: IterSpace, C: IterSpace> Iterator for Collapse3Chunk<A, B, C> {
    type Item = (A::Index, B::Index, C::Index);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.kc == self.div_c {
            self.kc = 0;
            self.kb += 1;
            if self.kb == self.div_b {
                self.kb = 0;
                self.ka += 1;
                self.cur_a = self.a.decode(self.ka);
            }
            self.cur_b = self.b.decode(self.kb);
        }
        let out = (self.cur_a, self.cur_b, self.c.decode(self.kc));
        self.kc += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl<A: IterSpace, B: IterSpace, C: IterSpace> IterSpace for Collapse3<A, B, C> {
    type Index = (A::Index, B::Index, C::Index);
    type Chunk = Collapse3Chunk<A, B, C>;

    #[inline]
    fn trip(&self) -> u64 {
        self.trip
    }

    #[inline]
    fn decode(&self, k: u64) -> Self::Index {
        (
            self.a.decode(k / self.div_bc),
            self.b.decode((k / self.div_c) % self.div_b),
            self.c.decode(k % self.div_c),
        )
    }

    #[inline]
    fn chunk(&self, lo: u64, hi: u64) -> Self::Chunk {
        let ka = lo / self.div_bc;
        let rem = lo % self.div_bc;
        let (kb, kc) = (rem / self.div_c, rem % self.div_c);
        Collapse3Chunk {
            cur_a: self.a.decode(ka),
            cur_b: self.b.decode(kb),
            a: self.a.clone(),
            b: self.b.clone(),
            c: self.c.clone(),
            ka,
            kb,
            kc,
            div_b: self.div_b,
            div_c: self.div_c,
            remaining: hi.saturating_sub(lo),
        }
    }
}

// ---------------------------------------------------------------------
// The one lowering: spaces → the runtime's normalized driver.
// ---------------------------------------------------------------------

/// Workshare `space` over the current team (the `for` directive for an
/// arbitrary [`IterSpace`]): each point of the space runs exactly once.
/// Implies an end barrier unless `nowait`.
///
/// This is the function every front end bottoms out in; see the module
/// docs. Always inlined, like `ThreadCtx::ws_for_normalized` (whose
/// docs give the reason): a body's accumulators stay in registers.
#[inline(always)]
pub fn ws_space<S: IterSpace>(
    ctx: &ThreadCtx<'_>,
    space: &S,
    sched: Schedule,
    nowait: bool,
    mut body: impl FnMut(S::Index),
) {
    ctx.ws_for_normalized(space.trip(), sched, nowait, |lo, hi| {
        for idx in space.chunk(lo, hi) {
            body(idx);
        }
    });
}

/// Chunk-granular variant of [`ws_space`]: the body receives each
/// claimed chunk's decoder whole, so hot kernels can iterate without
/// per-index closure dispatch.
#[inline(always)]
pub fn ws_space_chunks<S: IterSpace>(
    ctx: &ThreadCtx<'_>,
    space: &S,
    sched: Schedule,
    nowait: bool,
    mut body: impl FnMut(S::Chunk),
) {
    ctx.ws_for_normalized(space.trip(), sched, nowait, |lo, hi| {
        body(space.chunk(lo, hi));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enumerate<S: IterSpace>(s: &S) -> Vec<S::Index> {
        s.chunk(0, s.trip()).collect()
    }

    #[test]
    fn range_usize_space() {
        let s = 3..8usize;
        assert_eq!(s.trip(), 5);
        assert_eq!(s.decode(0), 3);
        assert_eq!(s.decode(4), 7);
        assert_eq!(enumerate(&s), vec![3, 4, 5, 6, 7]);
        assert_eq!((5..5usize).trip(), 0);
    }

    #[test]
    fn range_i64_space_negative_bounds() {
        let s = -3i64..2;
        assert_eq!(s.trip(), 5);
        assert_eq!(enumerate(&s), vec![-3, -2, -1, 0, 1]);
        // Reversed range is empty, not huge.
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 2i64..-3;
        assert_eq!(reversed.trip(), 0);
    }

    #[test]
    fn strided_spaces_walk_canonical_progressions() {
        let up = StridedRange::new(0, 10, 3);
        assert_eq!(enumerate(&up), vec![0, 3, 6, 9]);
        let down = StridedRange::new(10, 0, -3);
        assert_eq!(enumerate(&down), vec![10, 7, 4, 1]);
        let neg = StridedRange::new(-7, -1, 2);
        assert_eq!(enumerate(&neg), vec![-7, -5, -3]);
        assert_eq!(StridedRange::new(5, 5, 1).trip(), 0);
        assert_eq!(StridedRange::new(5, 2, 1).trip(), 0);
        assert_eq!(StridedRange::new(2, 5, -1).trip(), 0);
    }

    #[test]
    fn strided_space_spanning_more_than_i64_max() {
        // The span is 2^64 - 2: trip and decode must stay in `u64` /
        // wrapping arithmetic where `end - start` would overflow.
        let s = StridedRange::new(i64::MIN + 1, i64::MAX, 1 << 62);
        assert_eq!(s.trip(), 4);
        let want = vec![i64::MIN + 1, i64::MIN + 1 + (1 << 62), 1, 1 + (1 << 62)];
        assert_eq!(enumerate(&s), want);
        for (k, &w) in want.iter().enumerate() {
            assert_eq!(s.decode(k as u64), w);
            assert_eq!(s.chunk(k as u64, 4).collect::<Vec<_>>(), want[k..]);
        }
        let down = StridedRange::new(i64::MAX, i64::MIN, -(1 << 62));
        assert_eq!(
            enumerate(&down),
            vec![i64::MAX, i64::MAX - (1 << 62), -1, -1 - (1 << 62)]
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_step_rejected() {
        StridedRange::new(0, 10, 0);
    }

    #[test]
    fn collapse2_decodes_row_major() {
        let s = collapse2(1..3usize, 10..13usize);
        assert_eq!(s.trip(), 6);
        assert_eq!(
            enumerate(&s),
            vec![(1, 10), (1, 11), (1, 12), (2, 10), (2, 11), (2, 12)]
        );
        // decode agrees with the chunk path at every point.
        for k in 0..s.trip() {
            assert_eq!(s.decode(k), enumerate(&s)[k as usize]);
        }
    }

    #[test]
    fn collapse2_mid_chunk_entry() {
        let s = collapse2(0..4usize, 0..3usize);
        // A chunk starting mid-row must divide once and then step.
        let got: Vec<_> = s.chunk(4, 9).collect();
        assert_eq!(got, vec![(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]);
    }

    #[test]
    fn collapse_with_empty_dimension_is_empty() {
        assert_eq!(collapse2(0..10usize, 0..0usize).trip(), 0);
        assert_eq!(collapse2(0..0usize, 0..10usize).trip(), 0);
        assert_eq!(collapse3(0..4usize, 0..0usize, 0..9usize).trip(), 0);
        // Empty outer space, inner trips whose product overflows u64.
        let s = collapse3(0..0usize, 0..1usize << 40, 0..1usize << 40);
        assert_eq!(s.trip(), 0);
        assert_eq!(s.chunk(0, 0).count(), 0);
    }

    #[test]
    fn collapse3_flattens() {
        let s = collapse3(0..2usize, 0..2usize, 0..2usize);
        assert_eq!(s.trip(), 8);
        assert_eq!(s.decode(0), (0, 0, 0));
        assert_eq!(s.decode(7), (1, 1, 1));
        let all = enumerate(&s);
        assert_eq!(all.len(), 8);
        for (k, idx) in all.iter().enumerate() {
            assert_eq!(s.decode(k as u64), *idx);
        }
    }

    #[test]
    fn collapse3_every_chunk_matches_pointwise_decode() {
        // The incremental chunk decoder must agree with `decode` for
        // every possible (lo, hi) window, including mid-row entries.
        let s = collapse3(1..4usize, 0..2usize, 5..9usize);
        for lo in 0..s.trip() {
            for hi in lo..=s.trip() {
                let got: Vec<_> = s.chunk(lo, hi).collect();
                let want: Vec<_> = (lo..hi).map(|k| s.decode(k)).collect();
                assert_eq!(got, want, "chunk({lo}, {hi})");
            }
        }
    }

    #[test]
    fn collapse_of_mixed_spaces() {
        // Strided outer, signed inner: the fusion composes any spaces.
        let s = collapse2(StridedRange::new(0, 6, 2), -1i64..1);
        assert_eq!(
            enumerate(&s),
            vec![(0, -1), (0, 0), (2, -1), (2, 0), (4, -1), (4, 0)]
        );
    }
}
