//! Worksharing-loop driver: the `for` directive.
//!
//! This is the analogue of the runtime calls the paper's compiler pass
//! inserts for its worksharing-loop directive ("we add a runtime library
//! routine call to calculate the loop bounds"): static schedules are
//! computed thread-locally ([`StaticChunks`]), dynamic/guided schedules
//! go through the team's shared dispatch slot.
//!
//! All loops are internally normalized to `0..trip` and claim their
//! chunks through one loop, `ThreadCtx::claim_chunks`: the `ordered`
//! loop and `sections` (a `dynamic,1` loop over the section indices,
//! as in libgomp) go through it too. Strided, signed and
//! collapsed spaces — including the `step_by`/`step(..)` headers the
//! macros and the `//#omp` translator accept — are lowered by
//! `romp-core`'s `IterSpace` (`StridedRange` for strides) onto the
//! same normalized driver.

use crate::ctx::{SiblingPanic, ThreadCtx};
use crate::sched::{guided_grab, Schedule, StaticChunks};
use crate::team::{Team, WsSlot};
use crate::wait::Role;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Handle passed to the body of an `ordered` loop; see
/// [`ThreadCtx::ws_for_ordered`].
pub struct Ordered<'a> {
    team: &'a Team,
    slot: &'a WsSlot,
    /// This construct's cancellable generation: a `cancel for` makes
    /// siblings skip whole chunks whose turns then never advance, so
    /// turn waiters watch the team's construct-scoped flag for it.
    cgen: u64,
    current: Cell<u64>,
    ran: Cell<bool>,
}

impl Ordered<'_> {
    /// Execute `f` as the iteration's `ordered` region: iterations run
    /// their ordered regions in iteration order. Call at most once per
    /// iteration.
    ///
    /// Under cancellation a waiter can be released before its turn
    /// (earlier iterations may have been skipped and will never
    /// release it). Ordering is then moot — the region's result is
    /// unspecified — but **mutual exclusion is not negotiable**: user
    /// code relies on it for unsynchronized shared writes, so every
    /// section body runs under the slot's `claimed` spinlock (one
    /// uncontended CAS when turn order already excludes).
    pub fn section<R>(&self, f: impl FnOnce() -> R) -> R {
        assert!(
            !self.ran.get(),
            "ordered region executed twice in one iteration"
        );
        self.ran.set(true);
        let in_turn = self.wait_turn();
        self.lock_section();
        let out = f();
        self.slot.claimed.store(false, Ordering::SeqCst);
        if in_turn {
            self.slot
                .ordered_next
                .store(self.current.get() + 1, Ordering::SeqCst);
        }
        self.team.sleepers().wake_all();
        out
    }

    /// Wait for this iteration's turn. Returns `true` when the turn was
    /// actually acquired; `false` when the wait was released early by
    /// cancellation (the caller must then neither assume exclusivity
    /// nor advance the turn counter).
    fn wait_turn(&self) -> bool {
        let me = self.current.get();
        let team = self.team;
        // Cancelled region or construct: earlier iterations may have
        // been skipped and will never take their turn — give up the
        // wait (the section body still serializes through the
        // `claimed` lock).
        let cancelled = || {
            team.cancel_parallel.load(Ordering::Relaxed)
                || team.cancel_ws.load(Ordering::Relaxed) == self.cgen + 1
        };
        let mut turn = false;
        crate::wait::until(team.ladder(Role::Member), team.sleepers(), || {
            turn = self.slot.ordered_next.load(Ordering::Acquire) == me;
            turn || team.abort.load(Ordering::Relaxed) || cancelled()
        });
        if !turn && team.abort.load(Ordering::Relaxed) {
            std::panic::panic_any(SiblingPanic);
        }
        turn
    }

    /// Acquire the slot's `claimed` flag as the section-body lock.
    fn lock_section(&self) {
        let team = self.team;
        while self
            .slot
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            crate::wait::until(team.ladder(Role::Member), team.sleepers(), || {
                !self.slot.claimed.load(Ordering::Relaxed) || team.abort.load(Ordering::Relaxed)
            });
            if team.abort.load(Ordering::Relaxed) {
                std::panic::panic_any(SiblingPanic);
            }
        }
    }

    /// Called by the driver after each iteration: if the body skipped its
    /// ordered region, take and release the turn so later iterations are
    /// not blocked.
    fn finish_iteration(&self) {
        if !self.ran.get() && self.wait_turn() {
            self.slot
                .ordered_next
                .store(self.current.get() + 1, Ordering::SeqCst);
            self.team.sleepers().wake_all();
        }
        self.ran.set(false);
    }
}

/// A schedule resolved once for one loop (see
/// [`ThreadCtx::resolve_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Thread-local plan ([`StaticChunks`]): `None` = one block per
    /// thread, `Some(c)` = round-robin chunks of `c`.
    Static(Option<u64>),
    /// Claimed from the construct slot's shared cursor: `dynamic`
    /// grabs of `chunk`, or `guided` grabs of at least `chunk`.
    Shared { chunk: u64, guided: bool },
}

/// One thread's view of a `dynamic` or `guided` loop: chunks of
/// `0..trip` claimed from the construct slot's shared cursor.
struct SharedChunks<'a> {
    next: &'a AtomicU64,
    trip: u64,
    chunk: u64,
    guided: bool,
    size: usize,
}

impl Iterator for SharedChunks<'_> {
    type Item = Range<u64>;

    /// Claim the next chunk; `None` once the space is exhausted.
    fn next(&mut self) -> Option<Range<u64>> {
        let (next, trip, chunk) = (self.next, self.trip, self.chunk);
        let claimed = if self.guided {
            // CAS loop: shrinking grabs proportional to the remaining
            // work.
            let mut cur = next.load(Ordering::Acquire);
            loop {
                if cur >= trip {
                    return None;
                }
                let g = guided_grab(trip - cur, self.size, chunk);
                match next.compare_exchange_weak(cur, cur + g, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => break cur..cur + g,
                    Err(seen) => cur = seen,
                }
            }
        } else {
            let cur = next.fetch_add(chunk, Ordering::AcqRel);
            if cur >= trip {
                return None;
            }
            cur..cur.saturating_add(chunk).min(trip)
        };
        crate::stats::bump(|s| &s.dispatched_chunks);
        Some(claimed)
    }
}

impl<'scope> ThreadCtx<'scope> {
    /// Worksharing loop over `range` (the `for` directive): the team
    /// divides the iterations according to `sched`; each index runs
    /// exactly once. Implies an end barrier unless `nowait`.
    #[inline(always)] // see `ws_for_normalized`
    pub fn ws_for(
        &self,
        range: Range<usize>,
        sched: Schedule,
        nowait: bool,
        mut body: impl FnMut(usize),
    ) {
        let base = range.start;
        let trip = range.end.saturating_sub(range.start) as u64;
        self.ws_for_normalized(trip, sched, nowait, move |lo, hi| {
            for i in lo..hi {
                body(base + i as usize);
            }
        });
    }

    /// Like [`ws_for`](Self::ws_for) but hands the body whole chunks,
    /// letting hot kernels iterate contiguous memory without per-index
    /// closure calls.
    #[inline(always)] // see `ws_for_normalized`
    pub fn ws_for_chunks(
        &self,
        range: Range<usize>,
        sched: Schedule,
        nowait: bool,
        mut body: impl FnMut(Range<usize>),
    ) {
        let base = range.start;
        let trip = range.end.saturating_sub(range.start) as u64;
        self.ws_for_normalized(trip, sched, nowait, move |lo, hi| {
            body(base + lo as usize..base + hi as usize);
        });
    }

    /// Normalized worksharing driver: distribute the dense `u64` space
    /// `0..trip` according to `sched`, invoking `chunk_body(lo, hi)` for
    /// each chunk this thread claims. Implies an end barrier unless
    /// `nowait`.
    ///
    /// This is the single entry every loop shape funnels through:
    /// [`ws_for`](Self::ws_for), [`ws_for_chunks`](Self::ws_for_chunks)
    /// and [`sections`](Self::sections) normalize their iteration
    /// spaces to a trip count and map chunks back; `romp-core`'s
    /// `IterSpace` lowering does the same for strided/signed/collapsed
    /// spaces. All trip accounting is `u64`, so collapsed spaces larger
    /// than `usize` loops still schedule correctly.
    /// **Cancellation** is chunk-granular: when the construct (or the
    /// whole region) is cancelled, the driver stops handing out chunks
    /// — a chunk already claimed runs to completion. The checks cost
    /// one relaxed load per chunk and are skipped entirely (one boolean
    /// read per construct) while `cancel-var` is off.
    ///
    /// Always inlined down to the chunk loop, so a body's accumulators
    /// stay in registers: left to the inliner, that followed unrelated
    /// code size and moved `sync-fine`'s loop regions by 17–60 %.
    #[inline(always)]
    pub fn ws_for_normalized(
        &self,
        trip: u64,
        sched: Schedule,
        nowait: bool,
        chunk_body: impl FnMut(u64, u64),
    ) {
        let cgen = self.enter_cancellable_ws();
        match self.resolve_schedule(sched, trip) {
            Dispatch::Static(chunk) => {
                self.claim_chunks(self.static_chunks(trip, chunk), cgen, chunk_body);
            }
            Dispatch::Shared { chunk, guided } => {
                let Some(slot) = self.enter_slot(|s| s.next.store(0, Ordering::Relaxed)) else {
                    // Cancelled region: skip the whole construct.
                    self.exit_cancellable_ws();
                    return;
                };
                self.claim_chunks(
                    self.shared_chunks(slot, trip, chunk, guided),
                    cgen,
                    chunk_body,
                );
                slot.leave(self.team());
            }
        }
        self.exit_cancellable_ws();
        if !nowait {
            self.barrier();
        }
    }

    /// Worksharing loop with an `ordered` clause: `body(i, ord)` may call
    /// `ord.section(..)` once to run code in strict iteration order.
    pub fn ws_for_ordered(
        &self,
        range: Range<usize>,
        sched: Schedule,
        nowait: bool,
        mut body: impl FnMut(usize, &Ordered<'_>),
    ) {
        let base = range.start;
        let trip = range.end.saturating_sub(range.start) as u64;
        let cgen = self.enter_cancellable_ws();
        // Ordered loops always take a slot: the turnstile lives there
        // even for static schedules. `claimed` is the section-body lock
        // (see `Ordered::section`); a previous `single` in this slot
        // may have left it set.
        let Some(slot) = self.enter_slot(|s| {
            s.next.store(0, Ordering::Relaxed);
            s.ordered_next.store(0, Ordering::Relaxed);
            s.claimed.store(false, Ordering::Relaxed);
        }) else {
            self.exit_cancellable_ws();
            return; // cancelled region
        };
        let ord = Ordered {
            team: self.team(),
            slot,
            cgen,
            current: Cell::new(0),
            ran: Cell::new(false),
        };
        let run = |lo: u64, hi: u64| {
            for i in lo..hi {
                ord.current.set(i);
                ord.ran.set(false);
                body(base + i as usize, &ord);
                ord.finish_iteration();
            }
        };
        match self.resolve_schedule(sched, trip) {
            Dispatch::Static(chunk) => {
                self.claim_chunks(self.static_chunks(trip, chunk), cgen, run)
            }
            Dispatch::Shared { chunk, guided } => {
                self.claim_chunks(self.shared_chunks(slot, trip, chunk, guided), cgen, run)
            }
        }
        slot.leave(self.team());
        self.exit_cancellable_ws();
        if !nowait {
            self.barrier();
        }
    }

    /// The one chunk-claim loop: run `run(lo, hi)` on every chunk this
    /// thread claims from `chunks` (its static plan, or a slot's
    /// [`SharedChunks`]) until the space is exhausted or the construct
    /// (or the region) is cancelled.
    #[inline(always)]
    fn claim_chunks(
        &self,
        mut chunks: impl Iterator<Item = Range<u64>>,
        cgen: u64,
        mut run: impl FnMut(u64, u64),
    ) {
        let watch = self.team().snap().icvs.cancellation;
        loop {
            self.chaos_chunk_grab();
            if watch && self.ws_cancelled(cgen) {
                break;
            }
            match chunks.next() {
                Some(r) => run(r.start, r.end),
                None => break,
            }
        }
    }

    /// This thread's static plan for `0..trip`.
    fn static_chunks(&self, trip: u64, chunk: Option<u64>) -> StaticChunks {
        StaticChunks::new(trip, self.num_threads(), self.thread_num(), chunk)
    }

    /// Chunks of `0..trip` claimed from `slot`'s shared cursor.
    fn shared_chunks<'a>(
        &self,
        slot: &'a WsSlot,
        trip: u64,
        chunk: u64,
        guided: bool,
    ) -> SharedChunks<'a> {
        SharedChunks {
            next: &slot.next,
            trip,
            chunk,
            guided,
            size: self.num_threads(),
        }
    }

    /// Chaos hook at the chunk-grab edge. Panics and delays fire inside
    /// `chaos::poke` (a chunk-grab panic is legal: it unwinds the
    /// region body under `run_region`'s catch); an injected `Cancel` is
    /// routed through the legal self-gating request path, exactly as a
    /// sibling's `omp_cancel!(for)` would arrive. Compiles to nothing
    /// without the `chaos` feature.
    #[inline]
    fn chaos_chunk_grab(&self) {
        if matches!(
            crate::chaos::chaos_point!(crate::chaos::Site::ChunkGrab),
            Some(crate::chaos::Injected::Cancel)
        ) {
            self.cancel(crate::ctx::CancelKind::For);
        }
    }

    /// Resolve `sched` once for a loop of `trip` iterations: `runtime`
    /// reads the team's `run-sched-var` (so every team thread agrees),
    /// `auto` — as a clause or as that ICV — is block static, and
    /// every chunk is clamped to `1..=max(trip, 1)`. A
    /// chunk past the trip count names the same partition as one equal
    /// to it; the clamp keeps the chunk arithmetic far from `u64::MAX`.
    fn resolve_schedule(&self, sched: Schedule, trip: u64) -> Dispatch {
        let sched = match sched {
            Schedule::Runtime => self.team().snap().icvs.run_sched,
            other => other,
        };
        let clamp = |chunk: u64| chunk.clamp(1, trip.max(1));
        match sched {
            Schedule::Static { chunk } => Dispatch::Static(chunk.map(clamp)),
            Schedule::Dynamic { chunk } => Dispatch::Shared {
                chunk: clamp(chunk),
                guided: false,
            },
            Schedule::Guided { chunk } => Dispatch::Shared {
                chunk: clamp(chunk),
                guided: true,
            },
            Schedule::Runtime | Schedule::Auto => Dispatch::Static(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::pool::{fork, ForkSpec};
    use crate::sched::Schedule;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    fn cover(trip: usize, threads: usize, sched: Schedule) {
        let hits: Vec<AtomicU32> = (0..trip).map(|_| AtomicU32::new(0)).collect();
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            ctx.ws_for(0..trip, sched, false, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "trip={trip} threads={threads} sched={sched}"
        );
    }

    #[test]
    fn every_schedule_covers_every_index_once() {
        for sched in [
            Schedule::static_block(),
            Schedule::static_chunk(3),
            Schedule::dynamic(),
            Schedule::dynamic_chunk(16),
            Schedule::guided(),
            Schedule::guided_chunk(8),
            Schedule::Auto,
            Schedule::Runtime,
        ] {
            for trip in [0usize, 1, 7, 256] {
                for threads in [1usize, 2, 4] {
                    cover(trip, threads, sched);
                }
            }
        }
    }

    #[test]
    fn chunks_are_contiguous_and_bounded() {
        fork(ForkSpec::with_num_threads(4), |ctx| {
            ctx.ws_for_chunks(10..1000, Schedule::dynamic_chunk(37), false, |r| {
                assert!(r.start >= 10 && r.end <= 1000);
                assert!(!r.is_empty() && r.len() <= 37);
            });
        });
    }

    #[test]
    fn nonzero_base_offsets_respected() {
        let total = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(3), |ctx| {
            ctx.ws_for(100..200, Schedule::guided(), false, |i| {
                assert!((100..200).contains(&i));
                total.fetch_add(i, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (100..200).sum::<usize>());
    }

    #[test]
    fn consecutive_nowait_loops_do_not_corrupt() {
        // Many back-to-back nowait dynamic loops stress the slot ring
        // (generation recycling with threads racing ahead).
        let counters: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        fork(ForkSpec::with_num_threads(4), |ctx| {
            for counter in &counters {
                ctx.ws_for(0..64, Schedule::dynamic(), true, |_i| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            ctx.barrier();
        });
        for (round, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 64, "round {round}");
        }
    }

    #[test]
    fn ordered_static_schedule_serializes_in_order() {
        let order = Mutex::new(Vec::new());
        fork(ForkSpec::with_num_threads(4), |ctx| {
            ctx.ws_for_ordered(0..40, Schedule::static_block(), false, |i, ord| {
                ord.section(|| order.lock().push(i));
            });
        });
        assert_eq!(*order.lock(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_guided_schedule_serializes_in_order() {
        let order = Mutex::new(Vec::new());
        fork(ForkSpec::with_num_threads(3), |ctx| {
            ctx.ws_for_ordered(0..50, Schedule::guided_chunk(2), false, |i, ord| {
                ord.section(|| order.lock().push(i));
            });
        });
        assert_eq!(*order.lock(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_section_is_optional_per_iteration() {
        // Iterations that skip their ordered region must not block later
        // ones.
        let order = Mutex::new(Vec::new());
        fork(ForkSpec::with_num_threads(4), |ctx| {
            ctx.ws_for_ordered(0..30, Schedule::dynamic(), false, |i, ord| {
                if i % 3 == 0 {
                    ord.section(|| order.lock().push(i));
                }
            });
        });
        assert_eq!(
            *order.lock(),
            (0..30).filter(|i| i % 3 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resolve_schedule_maps_runtime_and_auto() {
        use super::Dispatch;
        fork(ForkSpec::with_num_threads(1), |ctx| {
            assert_eq!(
                ctx.resolve_schedule(Schedule::Auto, 10),
                Dispatch::Static(None)
            );
            // Runtime resolves as the team's run-sched-var snapshot.
            assert_eq!(
                ctx.resolve_schedule(Schedule::Runtime, 10),
                ctx.resolve_schedule(ctx.team().snap().icvs.run_sched, 10)
            );
            assert_eq!(
                ctx.resolve_schedule(Schedule::dynamic_chunk(5), 10),
                Dispatch::Shared {
                    chunk: 5,
                    guided: false
                }
            );
            // Chunks are clamped to `1..=max(trip, 1)`.
            assert_eq!(
                ctx.resolve_schedule(Schedule::guided_chunk(0), 10),
                Dispatch::Shared {
                    chunk: 1,
                    guided: true
                }
            );
            assert_eq!(
                ctx.resolve_schedule(Schedule::static_chunk(1 << 63), 10),
                Dispatch::Static(Some(10))
            );
            assert_eq!(
                ctx.resolve_schedule(Schedule::dynamic_chunk(u64::MAX), 0),
                Dispatch::Shared {
                    chunk: 1,
                    guided: false
                }
            );
        });
    }

    /// Run `f` with cancellation armed for this task's forks (a
    /// task-local set — hermetic under concurrently running tests).
    fn with_cancellation<R>(f: impl FnOnce() -> R) -> R {
        let armed = crate::icv::set_local(|i| i.cancellation = true);
        let out = f();
        drop(armed);
        out
    }

    #[test]
    fn cancelled_dynamic_loop_stops_handing_out_chunks() {
        with_cancellation(|| {
            // One thread, chunk 10: cancelling in the third chunk means
            // exactly 3 chunks (30 iterations) run — deterministic.
            let seen = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(1), |ctx| {
                ctx.ws_for(0..1000, Schedule::dynamic_chunk(10), false, |i| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    if i == 25 {
                        assert!(ctx.cancel(crate::CancelKind::For));
                    }
                });
            });
            assert_eq!(seen.load(Ordering::Relaxed), 30);
        });
    }

    #[test]
    fn cancelled_static_loop_stops_between_chunks() {
        with_cancellation(|| {
            let seen = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(1), |ctx| {
                ctx.ws_for(0..1000, Schedule::static_chunk(10), false, |_| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    ctx.cancel(crate::CancelKind::For);
                });
            });
            // Cancelled in the very first chunk: it completes, nothing
            // further is dispatched.
            assert_eq!(seen.load(Ordering::Relaxed), 10);
        });
    }

    #[test]
    fn cancellation_expires_at_the_next_construct() {
        with_cancellation(|| {
            // A cancelled loop must not bleed into the next loop: the
            // generation-matched flag simply never matches again.
            let (first, second) = (AtomicUsize::new(0), AtomicUsize::new(0));
            fork(ForkSpec::with_num_threads(2), |ctx| {
                ctx.ws_for(0..100, Schedule::dynamic_chunk(5), false, |_| {
                    first.fetch_add(1, Ordering::Relaxed);
                    ctx.cancel(crate::CancelKind::For);
                });
                ctx.ws_for(0..100, Schedule::dynamic_chunk(5), false, |_| {
                    second.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(first.load(Ordering::Relaxed) < 100);
            assert_eq!(second.load(Ordering::Relaxed), 100);
        });
    }

    #[test]
    fn cancel_var_off_makes_cancel_a_noop() {
        let disarmed = crate::icv::set_local(|i| i.cancellation = false);
        let seen = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(2), |ctx| {
            ctx.ws_for(0..100, Schedule::dynamic_chunk(5), false, |_| {
                seen.fetch_add(1, Ordering::Relaxed);
                assert!(!ctx.cancel(crate::CancelKind::For));
                assert!(!ctx.cancellation_point(crate::CancelKind::For));
            });
            assert!(!ctx.cancel(crate::CancelKind::Parallel));
            assert!(!ctx.cancellation_point(crate::CancelKind::Parallel));
        });
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        drop(disarmed);
    }

    #[test]
    fn cancel_parallel_skips_barriers_and_later_constructs() {
        with_cancellation(|| {
            let after_barrier = AtomicUsize::new(0);
            let singles = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(4), |ctx| {
                if ctx.thread_num() == 0 {
                    assert!(ctx.cancel(crate::CancelKind::Parallel));
                } else {
                    // Blocked or late siblings must get through.
                    ctx.barrier();
                }
                after_barrier.fetch_add(1, Ordering::Relaxed);
                // Constructs after cancellation are skipped (no hang,
                // no execution for late arrivals that observe the flag).
                if ctx.single(false, || ()).is_some() {
                    singles.fetch_add(1, Ordering::Relaxed);
                }
                ctx.ws_for(0..64, Schedule::dynamic(), false, |_| {});
            });
            assert_eq!(after_barrier.load(Ordering::Relaxed), 4);
            assert!(singles.load(Ordering::Relaxed) <= 1);
        });
    }

    #[test]
    fn cancel_for_on_static_ordered_loop_does_not_hang() {
        // `cancel for` on a static-scheduled ordered loop makes some
        // threads skip whole chunks, so the skipped chunks' turns never
        // advance; a sibling that raced into a later chunk must be
        // released from its turn wait by the construct-scoped flag
        // (OpenMP forbids this combination — romp must still not hang).
        with_cancellation(|| {
            for _ in 0..5 {
                let ran = AtomicUsize::new(0);
                fork(ForkSpec::with_num_threads(3), |ctx| {
                    ctx.ws_for_ordered(0..60, Schedule::static_chunk(10), false, |i, ord| {
                        if i == 5 {
                            ctx.cancel(crate::CancelKind::For);
                        }
                        ord.section(|| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                    // The loop's closing barrier completed: every
                    // thread got out of the construct.
                    ctx.barrier();
                });
                assert!(ran.load(Ordering::Relaxed) >= 1);
            }
        });
    }

    #[test]
    fn cancelled_region_single_copy_returns_without_panicking() {
        // `single copyprivate` must not turn a cooperative cancel into
        // a panic: threads arriving after the cancel skip the construct
        // and compute locally; threads caught mid-construct wait for
        // the claim winner's published value.
        with_cancellation(|| {
            for _ in 0..10 {
                fork(ForkSpec::with_num_threads(3), |ctx| {
                    if ctx.thread_num() == 1 {
                        ctx.cancel(crate::CancelKind::Parallel);
                    }
                    // Unsynchronized arrival: some threads observe the
                    // cancel before the construct, some inside it.
                    let v = ctx.single_copy(|| 42u32);
                    assert_eq!(v, 42);
                });
            }
        });
    }

    #[test]
    fn cancelled_ordered_sections_stay_mutually_exclusive() {
        // A waiter released early by `cancel parallel` runs its ordered
        // section out of turn — ordering is forfeit, but two section
        // bodies must never overlap (user code relies on the exclusion
        // for unsynchronized writes).
        with_cancellation(|| {
            for round in 0..5 {
                let in_section = AtomicUsize::new(0);
                fork(ForkSpec::with_num_threads(4), |ctx| {
                    ctx.ws_for_ordered(0..64, Schedule::static_chunk(1), false, |i, ord| {
                        if i == 5 + round {
                            ctx.cancel(crate::CancelKind::Parallel);
                        }
                        ord.section(|| {
                            assert_eq!(
                                in_section.fetch_add(1, Ordering::SeqCst),
                                0,
                                "two ordered bodies ran concurrently"
                            );
                            for _ in 0..200 {
                                std::hint::spin_loop();
                            }
                            in_section.fetch_sub(1, Ordering::SeqCst);
                        });
                    });
                });
            }
        });
    }

    #[test]
    fn cancel_parallel_discards_unstarted_tasks() {
        with_cancellation(|| {
            // Team of one: tasks sit deferred (nobody can steal), so
            // cancelling before the region-end drain means every body
            // must be discarded — deterministically zero runs.
            let ran = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(1), |ctx| {
                let tok = 0u8;
                ctx.task_spec(crate::TaskSpec::new().output(&tok), || {});
                for _ in 0..8 {
                    let r = &ran;
                    // Dependence-stalled behind the head: the discard
                    // path must release and discard the whole chain.
                    ctx.task_spec(crate::TaskSpec::new().inout(&tok), move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    });
                }
                assert!(ctx.cancel(crate::CancelKind::Parallel));
            });
            assert_eq!(ran.load(Ordering::Relaxed), 0, "tasks were not discarded");
        });
    }

    #[test]
    fn reduce_value_sequences_multiple_types() {
        // Alternating types across reduction generations exercise the
        // double-buffered cells. Each construct pays one barrier, so a
        // straggler pattern that changes every round makes threads
        // arrive at a reused cell in every order.
        use crate::reduction::{MaxOp, SumOp};
        for n in [2, 4, crate::icv::hardware_threads() + 3] {
            fork(ForkSpec::with_num_threads(n), |ctx| {
                let t = ctx.thread_num();
                let straggle = |round: usize| {
                    for _ in 0..(t * 7 + round) % 5 {
                        std::thread::yield_now();
                    }
                };
                let ids = n * (n - 1) / 2;
                for round in 0..200 {
                    straggle(round);
                    let s: usize = ctx.reduce_value(SumOp, t + round);
                    assert_eq!(s, n * round + ids, "{n} threads, round {round}");
                    straggle(round);
                    let pair: (u64, f64) = ctx.reduce_value(SumOp, (1u64, t as f64));
                    assert_eq!(pair, (n as u64, ids as f64), "{n} threads, round {round}");
                    straggle(round);
                    let m: f64 = ctx.reduce_value(MaxOp, t as f64);
                    assert_eq!(m, (n - 1) as f64, "{n} threads, round {round}");
                }
            });
        }
    }
}
