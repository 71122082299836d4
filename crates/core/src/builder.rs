//! Typed builder API for parallel regions and worksharing loops.
//!
//! This is the code shape the directive front ends (macros and the
//! `//#omp` translator) desugar into; it is also pleasant to use
//! directly. Everything is a thin, zero-allocation wrapper over
//! [`romp_runtime::fork`] and the [`IterSpace`] lowering in
//! [`crate::space`].
//!
//! One generic builder, [`ParFor<S>`], serves every iteration space —
//! plain and signed ranges, [`StridedRange`](crate::space::StridedRange)
//! strides, and `collapse(2)`/`collapse(3)` fusions — with the full
//! clause set (`schedule`, `num_threads`, `if`, reductions, chunked
//! variants) available uniformly. On top of the classic `run`/`reduce`
//! shapes it offers a **safe mutable-output layer**:
//! [`write_into`](ParFor::write_into) and
//! [`write_chunks_into`](ParFor::write_chunks_into) hand each thread
//! disjoint `&mut` views of an output slice — the `a[i] = …` pattern of
//! OpenMP loops — with no caller-side `unsafe` (the disjointness proof
//! is the runtime's exactly-once partition contract, pinned by the
//! conformance suite).

use crate::space::{collapse2, Collapse2, IterSpace};
use romp_runtime::reduction::RedVar;
use romp_runtime::{fork, CancelKind, ForkSpec, ProcBind, ReduceOp, Schedule, TaskSpec, ThreadCtx};
use std::ops::Range;

/// Builder for a bare `parallel` region.
///
/// ```
/// use romp_core::builder::parallel;
///
/// let mut counts = vec![0usize; 4];
/// let counts_ref = std::sync::Mutex::new(&mut counts);
/// parallel().num_threads(4).run(|ctx| {
///     let tn = ctx.thread_num();
///     counts_ref.lock().unwrap()[tn] += 1;
/// });
/// assert_eq!(counts, vec![1, 1, 1, 1]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel {
    spec: ForkSpec,
}

/// Start building a `parallel` region.
pub fn parallel() -> Parallel {
    Parallel::default()
}

impl Parallel {
    /// The `num_threads` clause.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.spec.num_threads = Some(n);
        self
    }

    /// The `if` clause: `false` serializes the region.
    pub fn if_clause(mut self, cond: bool) -> Self {
        self.spec.if_clause = Some(cond);
        self
    }

    /// The `proc_bind` clause: recorded on the team, reported through
    /// `omp_get_proc_bind`, and enforced by place-partitioning the team
    /// where the platform supports it (see `romp_runtime::affinity`).
    pub fn proc_bind(mut self, bind: ProcBind) -> Self {
        self.spec.proc_bind = Some(bind);
        self
    }

    /// The `teams` construct: form a league of `n` initial teams. The
    /// region spreads across the place partition (unless an explicit
    /// [`proc_bind`](Self::proc_bind) overrides it), so nested
    /// `parallel` regions inside each team inherit a disjoint,
    /// locality-friendly slice of the machine. League geometry is
    /// reported through `omp_get_num_teams` / `omp_get_team_num`.
    pub fn teams(mut self, n: usize) -> Self {
        self.spec = self.spec.teams(n);
        self
    }

    /// The underlying fork spec (for interop with [`romp_runtime::fork`]).
    pub fn spec(&self) -> ForkSpec {
        self.spec
    }

    /// Execute the region: `body` runs once on every team thread. The
    /// `'env` lifetime is [`fork`]'s: task closures created inside may
    /// borrow anything that outlives this call.
    pub fn run<'env, F>(self, body: F)
    where
        F: Fn(&ThreadCtx<'env>) + Sync,
    {
        fork(self.spec, body);
    }
}

/// Builder for a `task` construct inside a parallel region: the typed
/// equivalent of `omp_task!` clauses, and what the `//#omp task`
/// translator output desugars into. Dependences order the task against
/// sibling tasks per the OpenMP serialization rules (see
/// [`romp_runtime::TaskDeps`]).
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
///
/// // c = a + b as a diamond-shaped task graph: the sum task cannot
/// // start before both producers finish, on any thread.
/// let (a, b, c) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
/// parallel().num_threads(4).run(|ctx| {
///     ctx.single(true, || {
///         task(ctx).depend_out(&a).spawn(|| a.store(1, Relaxed));
///         task(ctx).depend_out(&b).spawn(|| b.store(2, Relaxed));
///         task(ctx)
///             .depend_in(&a)
///             .depend_in(&b)
///             .depend_out(&c)
///             .spawn(|| c.store(a.load(Relaxed) + b.load(Relaxed), Relaxed));
///     });
/// });
/// assert_eq!(c.load(Relaxed), 3);
/// ```
#[must_use = "a task builder does nothing until .spawn(body)"]
#[derive(Debug)]
pub struct Task<'c, 'scope> {
    ctx: &'c ThreadCtx<'scope>,
    spec: TaskSpec,
}

/// Start building a `task` construct on `ctx`.
pub fn task<'c, 'scope>(ctx: &'c ThreadCtx<'scope>) -> Task<'c, 'scope> {
    Task {
        ctx,
        spec: TaskSpec::new(),
    }
}

impl<'scope> Task<'_, 'scope> {
    /// `depend(in: x)`: run after the last task that wrote `x`.
    pub fn depend_in<T: ?Sized>(mut self, x: &T) -> Self {
        self.spec = self.spec.input(x);
        self
    }

    /// `depend(out: x)`: run after the last writer of `x` and every
    /// reader since; become `x`'s last writer.
    pub fn depend_out<T: ?Sized>(mut self, x: &T) -> Self {
        self.spec = self.spec.output(x);
        self
    }

    /// `depend(inout: x)`: same ordering as [`depend_out`](Self::depend_out).
    pub fn depend_inout<T: ?Sized>(mut self, x: &T) -> Self {
        self.spec = self.spec.inout(x);
        self
    }

    /// The `if` clause: `false` executes the task undeferred on the
    /// encountering thread (after its dependences are satisfied).
    pub fn if_clause(mut self, cond: bool) -> Self {
        self.spec = self.spec.if_clause(cond);
        self
    }

    /// The `final` clause: `true` makes this task and all its
    /// descendants execute undeferred (included tasks).
    pub fn final_clause(mut self, cond: bool) -> Self {
        self.spec = self.spec.final_clause(cond);
        self
    }

    /// Create the task. The closure may borrow anything outliving the
    /// region (`'scope`); dependence addresses were captured when the
    /// `depend_*` calls ran.
    pub fn spawn<F: FnOnce() + Send + 'scope>(self, f: F) {
        self.ctx.task_spec(self.spec, f);
    }
}

/// `cancel` through the typed front end: request cancellation of the
/// innermost enclosing region of `kind` — the builder-API spelling of
/// [`omp_cancel!`](crate::omp_cancel) (the macro and the `//#omp`
/// translator lower to the same [`ThreadCtx::cancel`] call). Returns
/// `true` when cancellation is active for the calling thread, which
/// should then return toward the region end; always `false` (no-op)
/// while the `OMP_CANCELLATION` ICV is off.
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
///
/// let _arm = romp_core::runtime::icv::set_cancellation_override(Some(true));
/// let chunks = AtomicUsize::new(0);
/// parallel().num_threads(2).run(|ctx| {
///     ctx.ws_for(0..100_000, Schedule::dynamic_chunk(64), false, |i| {
///         chunks.fetch_add(1, Relaxed);
///         if i == 100 {
///             cancel(ctx, CancelKind::For);
///         }
///     });
/// });
/// assert!(chunks.load(Relaxed) < 100_000);
/// romp_core::runtime::icv::set_cancellation_override(None);
/// ```
pub fn cancel(ctx: &ThreadCtx<'_>, kind: CancelKind) -> bool {
    ctx.cancel(kind)
}

/// `cancellation point` through the typed front end: has cancellation
/// of the innermost enclosing region of `kind` been activated? The
/// builder-API spelling of
/// [`omp_cancellation_point!`](crate::omp_cancellation_point).
pub fn cancellation_point(ctx: &ThreadCtx<'_>, kind: CancelKind) -> bool {
    ctx.cancellation_point(kind)
}

/// Builder for a combined `parallel for` over any [`IterSpace`].
#[derive(Debug, Clone)]
pub struct ParFor<S: IterSpace> {
    space: S,
    sched: Schedule,
    spec: ForkSpec,
}

/// The 2-D collapse of two `usize` ranges — what [`par_for_2d`]
/// builds. (Former standalone `ParFor2` builder; now just an instance
/// of the generic [`ParFor`].)
pub type ParFor2 = ParFor<Collapse2<Range<usize>, Range<usize>>>;

/// Start building a `parallel for` over any iteration space: a
/// `Range<usize>`, a `Range<i64>`, a
/// [`StridedRange`](crate::space::StridedRange), or a
/// [`collapse2`]/[`collapse3`](crate::space::collapse3) fusion.
pub fn par_for<S: IterSpace>(space: S) -> ParFor<S> {
    ParFor {
        space,
        sched: Schedule::default(),
        spec: ForkSpec::default(),
    }
}

/// Start building a collapsed 2-D `parallel for` (`collapse(2)` over
/// two `usize` ranges). Delegates to [`par_for`] +
/// [`collapse2`]; bodies receive the `(i, j)` tuple.
pub fn par_for_2d(outer: Range<usize>, inner: Range<usize>) -> ParFor2 {
    par_for(collapse2(outer, inner))
}

/// `Send`/`Sync` wrapper for the base pointer of an output slice whose
/// disjoint chunks are handed out by the worksharing schedule.
struct SendPtr<T>(*mut T);
// SAFETY: access discipline is enforced by the normalized-chunk
// partition (each chunk visits exactly one thread); the wrapper itself
// only carries the address.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// whole `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<S: IterSpace> ParFor<S> {
    /// The `schedule` clause.
    pub fn schedule(mut self, sched: Schedule) -> Self {
        self.sched = sched;
        self
    }

    /// The `num_threads` clause.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.spec.num_threads = Some(n);
        self
    }

    /// The `if` clause: `false` serializes the region.
    pub fn if_clause(mut self, cond: bool) -> Self {
        self.spec.if_clause = Some(cond);
        self
    }

    /// The `proc_bind` clause (recorded and reported; see
    /// [`Parallel::proc_bind`]).
    pub fn proc_bind(mut self, bind: ProcBind) -> Self {
        self.spec.proc_bind = Some(bind);
        self
    }

    /// Merge a whole fork spec (used by the macro front end, which
    /// accumulates `num_threads`/`if` clauses into a [`ForkSpec`]).
    /// Clauses set in `spec` win; clauses it leaves unset keep whatever
    /// [`num_threads`](Self::num_threads)/[`if_clause`](Self::if_clause)
    /// already configured, so chaining order cannot silently drop one.
    pub fn fork_spec(mut self, spec: ForkSpec) -> Self {
        if spec.num_threads.is_some() {
            self.spec.num_threads = spec.num_threads;
        }
        if spec.if_clause.is_some() {
            self.spec.if_clause = spec.if_clause;
        }
        if spec.proc_bind.is_some() {
            self.spec.proc_bind = spec.proc_bind;
        }
        if spec.league {
            self.spec.league = true;
        }
        self
    }

    /// Run `body(i)` for every index of the space, distributed over the
    /// team.
    pub fn run<F>(self, body: F)
    where
        F: Fn(S::Index) + Sync,
    {
        let ParFor { space, sched, spec } = self;
        fork(spec, |ctx| {
            // nowait: the region-end implicit barrier is the loop barrier.
            crate::space::ws_space(ctx, &space, sched, true, &body);
        });
    }

    /// Run `body(chunk)` for whole claimed chunks — lets hot kernels
    /// iterate without per-index closure dispatch. For `Range<usize>`
    /// spaces the chunk *is* a `Range<usize>`.
    pub fn run_chunks<F>(self, body: F)
    where
        F: Fn(S::Chunk) + Sync,
    {
        let ParFor { space, sched, spec } = self;
        fork(spec, |ctx| {
            crate::space::ws_space_chunks(ctx, &space, sched, true, &body);
        });
    }

    /// The `reduction` clause: every thread folds into a private
    /// accumulator seeded with the operator identity; partials and `init`
    /// are combined at the end.
    pub fn reduce<T, Op, F>(self, op: Op, init: T, body: F) -> T
    where
        T: Clone + Send,
        Op: ReduceOp<T>,
        F: Fn(S::Index, &mut T) + Sync,
    {
        let ParFor { space, sched, spec } = self;
        let red = RedVar::new(init, op);
        fork(spec, |ctx| {
            let mut local = op.identity();
            crate::space::ws_space(ctx, &space, sched, true, |i| body(i, &mut local));
            red.contribute(local);
        });
        red.into_inner()
    }

    /// Chunked variant of [`reduce`](Self::reduce).
    pub fn reduce_chunks<T, Op, F>(self, op: Op, init: T, body: F) -> T
    where
        T: Clone + Send,
        Op: ReduceOp<T>,
        F: Fn(S::Chunk, &mut T) + Sync,
    {
        let ParFor { space, sched, spec } = self;
        let red = RedVar::new(init, op);
        fork(spec, |ctx| {
            let mut local = op.identity();
            crate::space::ws_space_chunks(ctx, &space, sched, true, |c| body(c, &mut local));
            red.contribute(local);
        });
        red.into_inner()
    }

    /// Safe mutable-output loop: `body(idx, slot)` runs once per point
    /// of the space, where `slot` is the exclusive `&mut` to
    /// `out[k]` for the point's normalized position `k` — the OpenMP
    /// `a[i] = …` pattern with **no caller-side `unsafe`**.
    ///
    /// `out.len()` must equal the space's trip count. Disjointness is
    /// guaranteed by the worksharing partition (every normalized index
    /// is claimed by exactly one thread), so any schedule is fine.
    ///
    /// ```
    /// use romp_core::prelude::*;
    ///
    /// let mut squares = vec![0u64; 1000];
    /// par_for(0..1000usize)
    ///     .num_threads(4)
    ///     .schedule(Schedule::dynamic_chunk(64))
    ///     .write_into(&mut squares, |i, slot| *slot = (i * i) as u64);
    /// assert!(squares.iter().enumerate().all(|(i, &v)| v == (i * i) as u64));
    /// ```
    pub fn write_into<T, F>(self, out: &mut [T], body: F)
    where
        T: Send,
        F: Fn(S::Index, &mut T) + Sync,
    {
        let ParFor { space, sched, spec } = self;
        let trip = space.trip();
        assert_eq!(
            out.len() as u64,
            trip,
            "write_into: output slice length {} != iteration-space size {trip}",
            out.len()
        );
        let base = SendPtr(out.as_mut_ptr());
        fork(spec, |ctx| {
            ctx.ws_for_normalized(trip, sched, true, |lo, hi| {
                // SAFETY: the normalized driver hands `[lo, hi)` to
                // exactly one thread (the exactly-once partition pinned
                // by the conformance suite), so this subslice is
                // disjoint from every other chunk's; the fork join
                // publishes the writes back to the caller's borrow.
                let slots = unsafe {
                    std::slice::from_raw_parts_mut(base.get().add(lo as usize), (hi - lo) as usize)
                };
                for (slot, idx) in slots.iter_mut().zip(space.chunk(lo, hi)) {
                    body(idx, slot);
                }
            });
        });
    }

    /// Chunk-granular safe mutable output, in the style of
    /// `par_chunks_mut`: each claimed chunk's decoder arrives together
    /// with the exclusive `&mut` subslice of `out` it owns.
    ///
    /// `out.len()` must be a multiple of the trip count; the quotient
    /// `m = out.len() / trip` is the per-iteration output stride, so a
    /// chunk `[lo, hi)` owns `out[lo*m .. hi*m]`. With `m == 1` this is
    /// the chunked form of [`write_into`](Self::write_into); with
    /// `m == row_len` a loop over rows owns whole output rows —
    /// see `examples/heat.rs`.
    ///
    /// ```
    /// use romp_core::prelude::*;
    ///
    /// // Each of 8 rows of width 16 is filled by whichever thread
    /// // claims it; no atomics, no unsafe.
    /// let mut grid = vec![0usize; 8 * 16];
    /// par_for(0..8usize).num_threads(3).write_chunks_into(&mut grid, |rows, out| {
    ///     for (row, row_out) in rows.zip(out.chunks_mut(16)) {
    ///         for (col, cell) in row_out.iter_mut().enumerate() {
    ///             *cell = row * 16 + col;
    ///         }
    ///     }
    /// });
    /// assert!(grid.iter().enumerate().all(|(k, &v)| v == k));
    /// ```
    pub fn write_chunks_into<T, F>(self, out: &mut [T], body: F)
    where
        T: Send,
        F: Fn(S::Chunk, &mut [T]) + Sync,
    {
        let ParFor { space, sched, spec } = self;
        let trip = space.trip();
        let stride = if trip == 0 {
            assert!(
                out.is_empty(),
                "write_chunks_into: iteration space is empty but the output \
                 slice has {} elements (nothing would be written)",
                out.len()
            );
            1
        } else {
            assert!(
                !out.is_empty(),
                "write_chunks_into: output slice is empty but the iteration \
                 space has {trip} points (nothing would be written)"
            );
            assert_eq!(
                out.len() as u64 % trip,
                0,
                "write_chunks_into: output length {} is not a multiple of the \
                 iteration-space size {trip}",
                out.len()
            );
            (out.len() as u64 / trip) as usize
        };
        let base = SendPtr(out.as_mut_ptr());
        fork(spec, |ctx| {
            ctx.ws_for_normalized(trip, sched, true, |lo, hi| {
                // SAFETY: as in `write_into`; the per-iteration stride
                // scales the disjoint normalized chunks onto disjoint
                // subslices.
                let slots = unsafe {
                    std::slice::from_raw_parts_mut(
                        base.get().add(lo as usize * stride),
                        (hi - lo) as usize * stride,
                    )
                };
                body(space.chunk(lo, hi), slots);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{collapse3, StridedRange};
    use romp_runtime::{MaxOp, SumOp};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_covers_all_indices_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        par_for(0..1000usize)
            .num_threads(4)
            .schedule(Schedule::dynamic_chunk(7))
            .run(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn teams_builder_forms_a_league() {
        parallel().teams(2).run(|ctx| {
            assert_eq!(romp_runtime::omp_get_num_teams(), ctx.num_threads());
            assert_eq!(romp_runtime::omp_get_team_num(), ctx.thread_num());
            assert_eq!(ctx.proc_bind(), ProcBind::Spread);
        });
        // Outside any teams construct the league is trivial.
        assert_eq!(romp_runtime::omp_get_num_teams(), 1);
        assert_eq!(romp_runtime::omp_get_team_num(), 0);
    }

    #[test]
    fn par_for_reduce_matches_serial() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let serial: f64 = data.iter().sum();
        for sched in [
            Schedule::static_block(),
            Schedule::static_chunk(13),
            Schedule::dynamic_chunk(64),
            Schedule::guided(),
        ] {
            let parallel = par_for(0..data.len())
                .num_threads(4)
                .schedule(sched)
                .reduce(SumOp, 0.0, |i, acc| *acc += data[i]);
            assert!(
                (parallel - serial).abs() < 1e-9,
                "sched {sched}: {parallel} vs {serial}"
            );
        }
    }

    #[test]
    fn reduce_includes_init() {
        let s = par_for(0..10usize)
            .num_threads(2)
            .reduce(SumOp, 100i64, |i, acc| *acc += i as i64);
        assert_eq!(s, 100 + 45);
    }

    #[test]
    fn reduce_max() {
        let data: Vec<i64> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let m = par_for(0..data.len())
            .num_threads(4)
            .reduce(MaxOp, i64::MIN, |i, acc| *acc = (*acc).max(data[i]));
        assert_eq!(m, *data.iter().max().unwrap());
    }

    #[test]
    fn run_chunks_sees_contiguous_ranges() {
        let total = AtomicUsize::new(0);
        par_for(0..777usize)
            .num_threads(3)
            .schedule(Schedule::static_chunk(50))
            .run_chunks(|r| {
                assert!(r.start < r.end && r.end <= 777);
                assert!(r.end - r.start <= 50);
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
        assert_eq!(total.load(Ordering::Relaxed), 777);
    }

    #[test]
    fn par_for_2d_covers_rectangle() {
        let hits: Vec<AtomicUsize> = (0..20 * 30).map(|_| AtomicUsize::new(0)).collect();
        par_for_2d(0..20, 0..30).num_threads(4).run(|(i, j)| {
            hits[i * 30 + j].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_2d_reduce() {
        let s = par_for_2d(1..4, 1..5)
            .num_threads(3)
            .reduce(SumOp, 0usize, |(i, j), acc| *acc += i * j);
        // (1+2+3) * (1+2+3+4) = 60
        assert_eq!(s, 60);
    }

    #[test]
    fn signed_and_strided_spaces_through_the_same_builder() {
        let s = par_for(-5i64..5)
            .num_threads(3)
            .schedule(Schedule::dynamic())
            .reduce(SumOp, 0i64, |i, acc| *acc += i);
        assert_eq!(s, -5);
        let s =
            par_for(StridedRange::new(0, 100, 7))
                .num_threads(4)
                .reduce(SumOp, 0i64, |i, acc| *acc += i);
        assert_eq!(s, (0..100).step_by(7).sum::<usize>() as i64);
    }

    #[test]
    fn collapse3_through_builder() {
        let s = par_for(collapse3(0..3usize, 0..4usize, 0..5usize))
            .num_threads(4)
            .schedule(Schedule::guided())
            .reduce(SumOp, 0usize, |(i, j, k), acc| *acc += i * 100 + j * 10 + k);
        let mut want = 0usize;
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    want += i * 100 + j * 10 + k;
                }
            }
        }
        assert_eq!(s, want);
    }

    #[test]
    fn empty_range_is_fine() {
        par_for(5..5usize)
            .num_threads(4)
            .run(|_| panic!("no iterations"));
        let s = par_for(5..5usize)
            .num_threads(4)
            .reduce(SumOp, 7i32, |_, _| panic!("no iterations"));
        assert_eq!(s, 7);
    }

    #[test]
    fn if_clause_serializes_but_computes() {
        let s = par_for(0..100usize)
            .if_clause(false)
            .reduce(SumOp, 0usize, |i, acc| {
                assert_eq!(romp_runtime::omp_get_num_threads(), 1);
                *acc += i;
            });
        assert_eq!(s, 4950);
    }

    #[test]
    fn write_into_fills_every_slot() {
        let mut out = vec![0u64; 4096];
        par_for(0..4096usize)
            .num_threads(8)
            .schedule(Schedule::dynamic_chunk(64))
            .write_into(&mut out, |i, slot| *slot = (i * i) as u64);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn write_into_collapse_positions_are_normalized() {
        // Output is indexed by normalized position, so a 2-D space
        // writes row-major regardless of its bounds.
        let mut out = vec![(0usize, 0usize); 12];
        par_for_2d(5..8, 2..6)
            .num_threads(3)
            .write_into(&mut out, |(i, j), slot| *slot = (i, j));
        for (k, &(i, j)) in out.iter().enumerate() {
            assert_eq!((i, j), (5 + k / 4, 2 + k % 4));
        }
    }

    #[test]
    fn write_into_strided_space() {
        let mut out = vec![0i64; 34];
        par_for(StridedRange::new(100, 0, -3))
            .num_threads(4)
            .schedule(Schedule::guided())
            .write_into(&mut out, |i, slot| *slot = i);
        for (k, &v) in out.iter().enumerate() {
            assert_eq!(v, 100 - 3 * k as i64);
        }
    }

    #[test]
    #[should_panic(expected = "write_into")]
    fn write_into_length_mismatch_panics() {
        let mut out = vec![0u8; 9];
        par_for(0..10usize).write_into(&mut out, |_, _| {});
    }

    #[test]
    fn write_chunks_into_strided_output() {
        // 6 iterations, 4 output cells each.
        let mut out = vec![0usize; 24];
        par_for(0..6usize)
            .num_threads(3)
            .schedule(Schedule::static_chunk(1))
            .write_chunks_into(&mut out, |rows, slots| {
                for (row, cells) in rows.zip(slots.chunks_mut(4)) {
                    for (c, cell) in cells.iter_mut().enumerate() {
                        *cell = row * 4 + c;
                    }
                }
            });
        assert!(out.iter().enumerate().all(|(k, &v)| v == k));
    }

    #[test]
    fn write_chunks_into_empty_space() {
        let mut out: Vec<u8> = Vec::new();
        par_for(3..3usize).write_chunks_into(&mut out, |_, _| panic!("no chunks"));
    }

    #[test]
    #[should_panic(expected = "write_chunks_into")]
    fn write_chunks_into_rejects_output_for_empty_space() {
        // An empty space cannot satisfy a non-empty output: diagnose
        // instead of silently writing nothing.
        let mut out = vec![0u8; 4];
        par_for(3..3usize).write_chunks_into(&mut out, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "write_chunks_into")]
    fn write_chunks_into_rejects_empty_output_for_nonempty_space() {
        // The symmetric mistake — a forgotten allocation — must not
        // silently degenerate to zero-length slots.
        let mut out: Vec<u8> = Vec::new();
        par_for(0..4usize).write_chunks_into(&mut out, |_, _| {});
    }
}
