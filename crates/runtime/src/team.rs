//! Team state: everything the threads of one parallel region share.
//!
//! A [`Team`] is created per `parallel` construct (the analogue of
//! libomp's `kmp_team_t`). Besides the barrier and panic plumbing it owns
//! a small ring of **worksharing slots** (`WsSlot`): the shared state a
//! `dynamic`/`guided` loop (`sections` is one), an `ordered` loop or a
//! `single` needs. Threads join a slot through `ThreadCtx::enter_slot`.
//!
//! ## The slot protocol
//!
//! OpenMP requires every thread of a team to encounter the same sequence
//! of worksharing constructs. Each thread therefore keeps a private
//! *generation* counter that increments at every slot-using construct; a
//! construct's shared state lives in `slots[gen % WS_SLOTS]`. Because
//! `nowait` lets fast threads run ahead, a slot may still be occupied by
//! an older generation when a thread arrives; the protocol is:
//!
//! * `gen == mine, state == READY` — join the construct;
//! * `gen == mine, state == FREE` — race to install (first CAS wins);
//! * `gen < mine` — the older construct must fully drain
//!   (`done == team size`) before one arriving thread recycles the slot
//!   by CAS-ing `(gen, READY) → (gen, INSTALLING)`.
//!
//! Generation and state live in **one** atomic word, so that CAS names
//! the generation it recycles: a thread whose `(gen, READY)` load went
//! stale — a sibling recycled the slot, the team ran the new construct
//! and left it, and the slot reads `READY` again — fails the CAS and
//! joins the newer generation instead of installing it a second time
//! (which would wipe `done` and hang the team on the next lap).
//!
//! `done == size` can only be reached after *every* team thread has left
//! the construct, so a slot is never recycled under a thread still using
//! it, and all threads racing to install target the same generation
//! (a thread can only want generation `g + WS_SLOTS` after finishing
//! `g`, which requires `g` to be fully done).

use crate::affinity::TeamPlaces;
use crate::barrier::TeamBarrier;
use crate::icv::{ProcBind, WaitPolicy};
use crate::task::TaskSystem;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of in-flight worksharing constructs a team supports before
/// fast threads must wait for slow ones (libomp uses 7 dispatch buffers).
pub const WS_SLOTS: usize = 8;

const STATE_FREE: u64 = 0;
const STATE_INSTALLING: u64 = 1;
const STATE_READY: u64 = 2;
/// Low bits of [`WsSlot::word`] holding the state; the generation sits
/// above them.
const STATE_BITS: u32 = 2;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// Pack a slot word.
const fn pack(gen: u64, state: u64) -> u64 {
    (gen << STATE_BITS) | state
}

/// Shared state for one worksharing construct.
#[derive(Debug)]
pub(crate) struct WsSlot {
    /// `generation << STATE_BITS | state`: the generation installed in
    /// this slot and its install state, one word so a recycling CAS
    /// cannot succeed against a generation it did not observe.
    word: AtomicU64,
    /// Threads that have finished the installed construct.
    done: AtomicUsize,
    /// Dispatch cursor (next unclaimed iteration, normalized space).
    /// Each thread keeps the loop's trip count and chunk itself.
    pub next: AtomicU64,
    /// `single`: set by the one thread that executes the block;
    /// `ordered`: the section-body lock.
    pub claimed: AtomicBool,
    /// `ordered`: the iteration whose turn it is.
    pub ordered_next: AtomicU64,
}

impl WsSlot {
    fn new(initial_gen: u64) -> Self {
        WsSlot {
            word: AtomicU64::new(pack(initial_gen, STATE_FREE)),
            done: AtomicUsize::new(0),
            next: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
            ordered_next: AtomicU64::new(0),
        }
    }

    /// Enter this slot for construct generation `gen`, installing the
    /// shared state with `init` if we win the installation race.
    /// Returns `false` if the team aborted — or was cancelled (`cancel
    /// parallel`) — while we waited: after cancellation threads skip
    /// constructs unevenly, so an older generation may never drain and
    /// a waiter must not spin on it forever. Callers disambiguate via
    /// the team's flags (abort unwinds, cancel returns early).
    pub(crate) fn enter(
        &self,
        gen: u64,
        team_size: usize,
        abort: &AtomicBool,
        cancel: &AtomicBool,
        init: impl FnOnce(&WsSlot),
    ) -> bool {
        let mut init = Some(init);
        let mut spins = 0u32;
        loop {
            if abort.load(Ordering::Relaxed) || cancel.load(Ordering::Relaxed) {
                return false;
            }
            let word = self.word.load(Ordering::Acquire);
            let (cur, state) = (word >> STATE_BITS, word & STATE_MASK);
            // FREE slot of our generation: race to install. Older
            // generation: recycle, but only once it fully drained.
            let installable = if cur == gen {
                if state == STATE_READY {
                    return true;
                }
                state == STATE_FREE
            } else {
                debug_assert!(
                    cur < gen,
                    "workshare slot generation ran backwards ({cur} > {gen}); \
                     team threads encountered different construct sequences"
                );
                state == STATE_READY && self.done.load(Ordering::Acquire) == team_size
            };
            // The CAS expects the exact word loaded above, generation
            // included: if a sibling installed (and the team even
            // finished) `gen` since that load, it fails and the next
            // lap joins the READY construct.
            if installable
                && self
                    .word
                    .compare_exchange(
                        word,
                        pack(cur, STATE_INSTALLING),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                self.done.store(0, Ordering::Relaxed);
                // Unreachable panic: `init` is `Some` on entry and this
                // arm — the only `take()` — returns right after running
                // it. (Covered by the chaos soak's fork/join churn,
                // which drives this CAS race continuously.)
                (init.take().expect("installer runs once"))(self);
                self.word.store(pack(gen, STATE_READY), Ordering::Release);
                return true;
            }
            spins += 1;
            if spins > 10_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Mark this thread as finished with the construct it entered.
    pub(crate) fn leave(&self) {
        self.done.fetch_add(1, Ordering::AcqRel);
    }

    /// Return the slot to its just-constructed state for generation
    /// `initial_gen`. Hot-team recycling: called by the master between
    /// regions, while every team thread is parked at its doorbell, so
    /// plain stores suffice (the doorbell ring publishes them).
    pub(crate) fn reset(&self, initial_gen: u64) {
        self.word
            .store(pack(initial_gen, STATE_FREE), Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
    }
}

/// One generation-tagged reduction accumulator (see `Team::reduce_cells`).
#[derive(Debug)]
pub(crate) struct RedCell {
    /// Which reduction generation currently owns the cell; `u64::MAX`
    /// means never used.
    pub gen: u64,
    pub value: Option<Box<dyn Any + Send>>,
}

impl RedCell {
    fn new() -> Self {
        RedCell {
            gen: u64::MAX,
            value: None,
        }
    }
}

/// Per-fork snapshot of the master's data environment: ICV-derived
/// values that are fixed for the duration of one region but change from
/// region to region. A new team takes them at construction; a recycled
/// hot team overwrites them at each fork ([`Team::recycle`]), which is
/// why they live behind one `RwLock` instead of being plain fields.
#[derive(Debug, Clone)]
pub(crate) struct ForkSnap {
    /// `run-sched-var` snapshot from the master's data environment at
    /// fork time: `schedule(runtime)` loops must resolve identically on
    /// every team thread, so the resolution source is bound to the team
    /// (per OpenMP ICV inheritance), not read per-thread mid-loop.
    pub run_sched: crate::sched::Schedule,
    /// Effective thread affinity request for this region: the
    /// `proc_bind` clause if present, else the per-level `bind-var`
    /// ICV. Reported (`omp_get_proc_bind`) and enforced through
    /// [`ForkSnap::places`] where the platform supports it.
    pub proc_bind: ProcBind,
    /// Place partition for this region (None = unbound): per-thread
    /// place assignment plus the sub-partition each thread hands to its
    /// own nested teams. Recomputed at every fork — including hot-team
    /// recycles — so a binding change re-pins a reused team.
    pub places: Option<Arc<TeamPlaces>>,
    /// Is this team a **league** of teams (a `teams` construct lowered
    /// onto an outer parallel region)? Reported through
    /// `omp_get_num_teams`/`omp_get_team_num`.
    pub league: bool,
    /// `cancel-var` snapshot: is cancellation armed for this region?
    /// Fork-time so a recycled hot team observes ICV changes, and so
    /// the non-cancelled hot path can skip every flag check with one
    /// boolean read per construct.
    pub cancellable: bool,
}

/// Shared state of one parallel region's team.
///
/// The field order is a cache-line layout (hence `repr(C)`, and the
/// 64-byte alignment that also keeps the `Arc` reference counts off the
/// first line): first what every thread reads when it enters a region
/// and the master rewrites at each recycle (`snap` and the region
/// flags), then the read-only geometry, then the join counter beside
/// the barrier, then the worksharing and task state, and last the
/// region-end arrival count on a line of its own (beside the join
/// counter, which the master polls while workers arrive, it cost
/// +25 % `runtime.fork_join_us`). An empty recycled region costs a
/// handful of line transfers, so the compiler's own field order moved
/// `runtime.fork_join_us` by up to 20 % whenever a field was added or
/// removed; re-measure it after changing this list.
#[repr(C, align(64))]
pub struct Team {
    /// Per-fork ICV snapshot (see [`ForkSnap`]); rewritten on recycle.
    pub(crate) snap: RwLock<ForkSnap>,
    /// Raised when any team thread panics; all barrier/slot waits watch it.
    pub(crate) abort: AtomicBool,
    /// Raised by `cancel parallel`: team threads skip remaining
    /// barriers/constructs and proceed (cooperatively) to the region
    /// end; not-yet-started tasks are discarded. Unlike `abort` it does
    /// not unwind — a cancelled region completes normally, with an
    /// unspecified partial result, exactly as the spec allows.
    pub(crate) cancel_parallel: AtomicBool,
    /// Was this region forked from inside a `final` task? Then every
    /// team thread's implicit task is final too (descendants of a final
    /// task are included tasks), which each worker re-establishes in
    /// its own TLS when it runs the region.
    pub(crate) parent_final: bool,
    /// `cancel for`/`cancel sections` request, scoped to one
    /// worksharing construct: `0` = none, `g + 1` = the construct with
    /// cancellable-construct generation `g` is cancelled (every team
    /// thread encounters the same construct sequence, so the per-thread
    /// generation counters agree). A stale value simply never matches a
    /// later construct's generation — no end-of-construct reset races.
    pub(crate) cancel_ws: AtomicU64,
    /// Number of threads in the team (including the master).
    pub(crate) size: usize,
    /// Nesting level of the region this team executes (1 = outermost
    /// parallel region; the sequential part is level 0).
    pub(crate) level: usize,
    /// Number of enclosing *active* (size > 1) regions, including this one
    /// if active.
    pub(crate) active_level: usize,
    /// `(thread_num, team_size)` per enclosing level, index 0 = initial
    /// implicit task. Used by `omp_get_ancestor_thread_num`.
    pub(crate) ancestors: Vec<(usize, usize)>,
    /// The forking master's thread handle: the last worker to finish the
    /// region `unpark`s it (see `pool::hot_join`).
    pub(crate) master: std::thread::Thread,
    /// First panic payload, rethrown by the master after the join.
    pub(crate) panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Workers (not the master) that have not yet finished the region.
    pub(crate) remaining: AtomicUsize,
    pub(crate) barrier: TeamBarrier,
    pub(crate) slots: [WsSlot; WS_SLOTS],
    pub(crate) tasks: TaskSystem,
    /// `copyprivate` broadcast cell for `single` constructs.
    pub(crate) copy_cell: Mutex<Option<Box<dyn Any + Send>>>,
    /// Double-buffered type-erased accumulators for in-region reductions
    /// (`ThreadCtx::reduce_value`, one barrier each); indexed by
    /// reduction generation parity, tagged with the generation so the
    /// first arrival of generation `g + 2` discards `g`'s value.
    /// Combined constructs never touch them: they fold into a
    /// `RedVar` that the join publishes.
    pub(crate) reduce_cells: [Mutex<RedCell>; 2],
    /// Members (the master included) that have not reached the region
    /// end yet: a worker leaves the region-end drain only once this is
    /// zero (see `ThreadCtx::end_of_region_barrier`).
    pub(crate) unarrived: OwnLine<AtomicUsize>,
}

/// A value alone on its cache line.
#[repr(align(64))]
pub(crate) struct OwnLine<T>(pub(crate) T);

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("size", &self.size)
            .field("level", &self.level)
            .field("active_level", &self.active_level)
            .finish_non_exhaustive()
    }
}

impl Team {
    /// Build a team of `size` threads at nesting `level`.
    pub(crate) fn new(
        size: usize,
        level: usize,
        active_level: usize,
        wait_policy: WaitPolicy,
        ancestors: Vec<(usize, usize)>,
        snap: ForkSnap,
        parent_final: bool,
    ) -> Self {
        Team {
            size,
            level,
            active_level,
            barrier: TeamBarrier::new(size, wait_policy),
            abort: AtomicBool::new(false),
            cancel_parallel: AtomicBool::new(false),
            cancel_ws: AtomicU64::new(0),
            panic_payload: Mutex::new(None),
            remaining: AtomicUsize::new(size.saturating_sub(1)),
            slots: std::array::from_fn(|i| WsSlot::new(i as u64)),
            tasks: TaskSystem::new(size),
            copy_cell: Mutex::new(None),
            reduce_cells: [Mutex::new(RedCell::new()), Mutex::new(RedCell::new())],
            unarrived: OwnLine(AtomicUsize::new(size)),
            ancestors,
            snap: RwLock::new(snap),
            parent_final,
            master: std::thread::current(),
        }
    }

    /// Team size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The team's `schedule(runtime)` resolution source (fork-time
    /// snapshot of `run-sched-var`).
    pub(crate) fn run_sched(&self) -> crate::sched::Schedule {
        self.snap.read().run_sched
    }

    /// The region's effective `proc_bind` (clause, else `bind-var`).
    pub(crate) fn proc_bind(&self) -> ProcBind {
        self.snap.read().proc_bind
    }

    /// The region's place partition (`None` = threads run unbound).
    pub(crate) fn places(&self) -> Option<Arc<TeamPlaces>> {
        self.snap.read().places.clone()
    }

    /// Is this team a league of teams (`teams` construct)?
    pub(crate) fn is_league(&self) -> bool {
        self.snap.read().league
    }

    /// Is cancellation armed for this region (`cancel-var` snapshot)?
    pub(crate) fn cancellable(&self) -> bool {
        self.snap.read().cancellable
    }

    /// Recycle this hot team's shared state for the next region, in
    /// place of a fresh allocation.
    ///
    /// Contract: the caller (the master, between its join and the next
    /// doorbell ring) has verified that every worker finished the
    /// previous region (`remaining == 0`) and that no task is pending,
    /// so no other thread touches the team until the ring publishes
    /// these writes.
    pub(crate) fn recycle(&self, snap: ForkSnap) {
        debug_assert_eq!(self.remaining.load(Ordering::Acquire), 0);
        self.abort.store(false, Ordering::Relaxed);
        self.cancel_parallel.store(false, Ordering::Relaxed);
        self.cancel_ws.store(0, Ordering::Relaxed);
        *self.panic_payload.lock() = None;
        self.remaining
            .store(self.size.saturating_sub(1), Ordering::Relaxed);
        self.unarrived.0.store(self.size, Ordering::Relaxed);
        self.barrier.reset();
        for (i, s) in self.slots.iter().enumerate() {
            s.reset(i as u64);
        }
        self.tasks.recycle();
        *self.copy_cell.lock() = None;
        for cell in &self.reduce_cells {
            let mut c = cell.lock();
            c.gen = u64::MAX;
            c.value = None;
        }
        *self.snap.write() = snap;
    }

    /// Slot for a construct generation.
    pub(crate) fn slot(&self, gen: u64) -> &WsSlot {
        &self.slots[(gen as usize) % WS_SLOTS]
    }

    /// Record a panic from a team thread and raise the abort flag.
    pub(crate) fn record_panic(&self, payload: Box<dyn Any + Send>) {
        // Sibling-abort echoes are not interesting; keep the first real one.
        let mut slot = self.panic_payload.lock();
        if slot.is_none() && !payload.is::<crate::ctx::SiblingPanic>() {
            *slot = Some(payload);
        }
        self.abort.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn test_team(size: usize) -> Team {
        Team::new(
            size,
            1,
            1,
            WaitPolicy::Hybrid,
            vec![(0, 1)],
            ForkSnap {
                run_sched: crate::sched::Schedule::default(),
                proc_bind: ProcBind::False,
                places: None,
                league: false,
                cancellable: false,
            },
            false,
        )
    }

    #[test]
    fn slot_install_then_join() {
        let team = test_team(2);
        let abort = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let slot = team.slot(0);
        // First thread installs.
        assert!(slot.enter(0, 2, &abort, &cancel, |s| {
            s.next.store(100, Ordering::Relaxed);
        }));
        // Second thread joins without re-initializing.
        assert!(slot.enter(0, 2, &abort, &cancel, |_| panic!("double install")));
        assert_eq!(slot.next.load(Ordering::Relaxed), 100);
        slot.leave();
        slot.leave();
    }

    #[test]
    fn slot_recycles_after_all_leave() {
        let team = test_team(1);
        let abort = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        // Generations 0 and WS_SLOTS map to the same slot.
        let g2 = WS_SLOTS as u64;
        let slot = team.slot(0);
        assert!(slot.enter(0, 1, &abort, &cancel, |s| s
            .next
            .store(7, Ordering::Relaxed)));
        slot.leave();
        assert!(slot.enter(g2, 1, &abort, &cancel, |s| s
            .next
            .store(9, Ordering::Relaxed)));
        assert_eq!(slot.next.load(Ordering::Relaxed), 9);
        slot.leave();
    }

    #[test]
    fn slot_enter_aborts() {
        let team = test_team(2);
        let abort = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let slot = team.slot(0);
        assert!(slot.enter(0, 2, &abort, &cancel, |_| {}));
        // Generation WS_SLOTS can't recycle (done != size), but the abort
        // flag must still release the waiter.
        abort.store(true, Ordering::SeqCst);
        assert!(!slot.enter(WS_SLOTS as u64, 2, &abort, &cancel, |_| {}));
    }

    #[test]
    fn slot_enter_released_by_cancellation() {
        // After `cancel parallel` threads skip constructs unevenly: an
        // older generation may never drain, and a waiter must still get
        // out (returning `false`, not unwinding).
        let team = test_team(2);
        let abort = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let slot = team.slot(0);
        assert!(slot.enter(0, 2, &abort, &cancel, |_| {}));
        cancel.store(true, Ordering::SeqCst);
        assert!(!slot.enter(WS_SLOTS as u64, 2, &abort, &cancel, |_| {}));
    }

    #[test]
    fn concurrent_install_race_single_winner() {
        let team = Arc::new(test_team(8));
        let abort = Arc::new(AtomicBool::new(false));
        let cancel = Arc::new(AtomicBool::new(false));
        let installs = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let team = team.clone();
            let abort = abort.clone();
            let cancel = cancel.clone();
            let installs = installs.clone();
            handles.push(std::thread::spawn(move || {
                let slot = team.slot(3);
                assert!(slot.enter(3, 8, &abort, &cancel, |_| {
                    installs.fetch_add(1, Ordering::SeqCst);
                }));
                slot.leave();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(installs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn recycle_resets_slots_panic_state_and_snapshot() {
        let team = test_team(2);
        let abort = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        // Dirty the team: advance a slot generation, record a panic,
        // poison a reduce cell, consume the join counter.
        let slot = team.slot(0);
        assert!(slot.enter(0, 2, &abort, &cancel, |s| s
            .next
            .store(11, Ordering::Relaxed)));
        slot.leave();
        slot.leave();
        team.record_panic(Box::new("boom"));
        team.cancel_parallel.store(true, Ordering::SeqCst);
        team.cancel_ws.store(7, Ordering::SeqCst);
        team.reduce_cells[0].lock().gen = 0;
        team.remaining.store(0, Ordering::SeqCst);

        team.recycle(ForkSnap {
            run_sched: crate::sched::Schedule::dynamic_chunk(5),
            proc_bind: ProcBind::Spread,
            places: None,
            league: true,
            cancellable: true,
        });

        assert!(!team.abort.load(Ordering::SeqCst));
        assert!(!team.cancel_parallel.load(Ordering::SeqCst));
        assert_eq!(team.cancel_ws.load(Ordering::SeqCst), 0);
        assert!(team.cancellable());
        assert!(team.panic_payload.lock().is_none());
        assert_eq!(team.remaining.load(Ordering::SeqCst), 1);
        assert_eq!(team.run_sched(), crate::sched::Schedule::dynamic_chunk(5));
        assert_eq!(team.proc_bind(), ProcBind::Spread);
        assert!(team.is_league());
        assert_eq!(team.reduce_cells[0].lock().gen, u64::MAX);
        // Slot generation is back at its initial value: a fresh thread
        // (generation counter 0) can install again.
        let slot = team.slot(0);
        assert!(slot.enter(0, 2, &abort, &cancel, |s| s
            .next
            .store(99, Ordering::Relaxed)));
        assert_eq!(slot.next.load(Ordering::Relaxed), 99);
        slot.leave();
        slot.leave();
    }

    #[test]
    fn record_panic_keeps_first_real_payload() {
        let team = test_team(2);
        team.record_panic(Box::new(crate::ctx::SiblingPanic));
        assert!(team.panic_payload.lock().is_none());
        assert!(team.abort.load(Ordering::Relaxed));
        team.record_panic(Box::new("real"));
        team.record_panic(Box::new("second"));
        let p = team.panic_payload.lock().take().unwrap();
        assert_eq!(*p.downcast::<&str>().unwrap(), "real");
    }
}
