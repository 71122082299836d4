//! The team barrier: a centralized sense-reversing counter barrier.
//!
//! Each thread decrements a shared counter; the last arrival resets it
//! and flips the global sense. One hot cache line, but minimal memory
//! and cheap at the team sizes a fork-per-loop runtime runs.
//!
//! Waiters spin for the wait policy's budget, then park; the release
//! takes the park lock and wakes the parked only when there are any, so
//! an episode whose waiters are all still spinning costs no system call.
//! Every wait loop watches an abort flag so that a panicking sibling
//! unwinds the whole team instead of deadlocking it (see
//! [`crate::pool`]).

use crate::icv::WaitPolicy;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Per-thread barrier bookkeeping, owned by the thread's context.
#[derive(Debug, Clone)]
pub struct BarrierLocal {
    sense: bool,
}

impl Default for BarrierLocal {
    fn default() -> Self {
        BarrierLocal { sense: true }
    }
}

/// A reusable barrier for a fixed-size team.
#[derive(Debug)]
pub struct TeamBarrier {
    size: usize,
    spin_budget: u32,
    count: AtomicUsize,
    sense: AtomicBool,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Waiters in the park phase. A waiter counts itself in (holding the
    /// park lock) before its last look at `sense`, and the releaser
    /// looks at this count after flipping `sense` — both `SeqCst` — so
    /// either the waiter sees the flip or the releaser sees the waiter.
    parked: AtomicUsize,
}

impl TeamBarrier {
    /// Build a barrier for `size` threads.
    pub fn new(size: usize, policy: WaitPolicy) -> Self {
        TeamBarrier {
            size,
            spin_budget: policy.spin_budget(),
            count: AtomicUsize::new(size),
            sense: AtomicBool::new(true),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }

    /// Team size this barrier synchronizes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Return the barrier to its just-constructed state so a recycled
    /// hot team can reuse it with fresh per-thread [`BarrierLocal`]s
    /// (every region hands its threads default locals, `sense = true`,
    /// so the shared side must match).
    ///
    /// Contract: no thread is inside [`wait`](Self::wait). The hot-team
    /// master calls this between its join (all workers signalled region
    /// completion, which happens only after they left their last
    /// episode) and the next doorbell ring (which publishes the stores).
    pub(crate) fn reset(&self) {
        self.count.store(self.size, Ordering::Relaxed);
        self.sense.store(true, Ordering::Relaxed);
    }

    /// Wait at the barrier. Returns `true` when the episode completed
    /// and `false` when the wait was released early — either `abort`
    /// (a sibling panicked; callers unwind) or `cancel` (the binding
    /// region was cancelled; barriers are cancellation points, so a
    /// blocked thread must be released to proceed to the region end).
    /// Once either flag is up the barrier state may be left mid-episode;
    /// that is fine because no further episode runs before the team is
    /// discarded or `reset` (hot recycle).
    #[must_use]
    pub fn wait(&self, local: &mut BarrierLocal, abort: &AtomicBool, cancel: &AtomicBool) -> bool {
        crate::stats::bump(|s| &s.barriers);
        // Chaos: delay-only site (a panic here could fire outside a
        // region body's catch scope) — staggered arrival is the
        // schedule that exposes release/reset races between episodes.
        let _ = crate::chaos::chaos_point!(crate::chaos::Site::BarrierEntry);
        if self.size <= 1 {
            return !abort.load(Ordering::Relaxed);
        }
        // Entry check: a cancelled region's threads must not keep
        // mutating episode state they will never complete.
        if abort.load(Ordering::Relaxed) || cancel.load(Ordering::Relaxed) {
            return false;
        }
        let my_sense = local.sense;
        local.sense = !local.sense;
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset and release the episode.
            self.count.store(self.size, Ordering::Relaxed);
            self.sense.store(!my_sense, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                // A parked waiter either already saw the flip or is
                // inside `wait_for` once we get the lock.
                drop(self.park_lock.lock());
                self.park_cv.notify_all();
            }
            return !abort.load(Ordering::Relaxed) && !cancel.load(Ordering::Relaxed);
        }
        // Spin phase.
        let mut spins = 0u32;
        while self.sense.load(Ordering::Acquire) == my_sense {
            if abort.load(Ordering::Relaxed) || cancel.load(Ordering::Relaxed) {
                return false;
            }
            spins += 1;
            if spins >= self.spin_budget {
                break;
            }
            std::hint::spin_loop();
        }
        // Park phase.
        let mut guard = self.park_lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut released = true;
        while self.sense.load(Ordering::SeqCst) == my_sense {
            if abort.load(Ordering::Relaxed) || cancel.load(Ordering::Relaxed) {
                released = false;
                break;
            }
            // Timed wait so we re-check the abort flag even if the wakeup
            // notification raced ahead of our park.
            self.park_cv.wait_for(&mut guard, Duration::from_millis(1));
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
        released && !abort.load(Ordering::Relaxed) && !cancel.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn exercise(n: usize, episodes: u32) {
        let barrier = Arc::new(TeamBarrier::new(n, WaitPolicy::Hybrid));
        let abort = Arc::new(AtomicBool::new(false));
        let phase = Arc::new(AtomicU32::new(0));
        let mut handles = vec![];
        for t in 0..n {
            let barrier = barrier.clone();
            let abort = abort.clone();
            let phase = phase.clone();
            handles.push(std::thread::spawn(move || {
                let cancel = AtomicBool::new(false);
                let mut local = BarrierLocal::default();
                for e in 0..episodes {
                    // Everybody must observe the phase of the current
                    // episode before anyone moves past the barrier.
                    assert_eq!(phase.load(Ordering::SeqCst), e);
                    assert!(barrier.wait(&mut local, &abort, &cancel));
                    if t == 0 {
                        phase.store(e + 1, Ordering::SeqCst);
                    }
                    assert!(barrier.wait(&mut local, &abort, &cancel));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn central_synchronizes_repeatedly() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            exercise(n, 20);
        }
    }

    #[test]
    fn abort_unblocks_waiters() {
        let barrier = Arc::new(TeamBarrier::new(2, WaitPolicy::Passive));
        let abort = Arc::new(AtomicBool::new(false));
        let b = barrier.clone();
        let a = abort.clone();
        let waiter = std::thread::spawn(move || {
            let cancel = AtomicBool::new(false);
            let mut local = BarrierLocal::default();
            // Partner never arrives; abort must release us with `false`.
            b.wait(&mut local, &a, &cancel)
        });
        std::thread::sleep(Duration::from_millis(20));
        abort.store(true, Ordering::SeqCst);
        assert!(!waiter.join().unwrap());
    }

    #[test]
    fn single_thread_barrier_is_noop() {
        let barrier = TeamBarrier::new(1, WaitPolicy::Active);
        let abort = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let mut local = BarrierLocal::default();
        for _ in 0..100 {
            assert!(barrier.wait(&mut local, &abort, &cancel));
        }
    }

    /// Both kinds of wait: `active` stays in the spin loop, `passive`
    /// goes straight to the park loop; each must watch the cancel flag.
    #[test]
    fn cancel_unblocks_waiters_on_both_kinds() {
        for policy in [WaitPolicy::Active, WaitPolicy::Passive] {
            let barrier = Arc::new(TeamBarrier::new(2, policy));
            let cancel = Arc::new(AtomicBool::new(false));
            let b = barrier.clone();
            let c = cancel.clone();
            let waiter = std::thread::spawn(move || {
                let abort = AtomicBool::new(false);
                let mut local = BarrierLocal::default();
                // Partner never arrives; cancellation must release us.
                b.wait(&mut local, &abort, &c)
            });
            std::thread::sleep(Duration::from_millis(20));
            cancel.store(true, Ordering::SeqCst);
            assert!(!waiter.join().unwrap(), "{policy:?}");
            // With the flag already up, a fresh wait returns early
            // without touching episode state.
            let abort = AtomicBool::new(false);
            let mut local = BarrierLocal::default();
            assert!(!barrier.wait(&mut local, &abort, &cancel));
        }
    }

    #[test]
    fn reset_restores_fresh_local_compatibility() {
        let barrier = Arc::new(TeamBarrier::new(3, WaitPolicy::Hybrid));
        // Run an odd number of episodes so the sense is flipped.
        exercise_shared(&barrier, 3);
        barrier.reset();
        // Fresh locals (the per-region state) must work again.
        exercise_shared(&barrier, 2);
    }

    fn exercise_shared(barrier: &Arc<TeamBarrier>, episodes: u32) {
        let abort = Arc::new(AtomicBool::new(false));
        let mut handles = vec![];
        for _ in 0..barrier.size() {
            let barrier = barrier.clone();
            let abort = abort.clone();
            handles.push(std::thread::spawn(move || {
                let cancel = AtomicBool::new(false);
                let mut local = BarrierLocal::default();
                for _ in 0..episodes {
                    assert!(barrier.wait(&mut local, &abort, &cancel));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
