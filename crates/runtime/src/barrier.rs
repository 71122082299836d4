//! The team barrier: a centralized sense-reversing counter barrier.
//!
//! Each thread decrements a shared counter; the last arrival resets it
//! and flips the global sense. One hot cache line, but minimal memory
//! and cheap at the team sizes a fork-per-loop runtime runs.
//!
//! Waiters wait on the team's member ladder ([`crate::wait`]); the
//! release flips the sense with a `SeqCst` store and then wakes the
//! team's sleepers, which costs one load while every waiter is still
//! spinning.
//! Every wait watches an abort flag so that a panicking sibling unwinds
//! the whole team instead of deadlocking it (see [`crate::pool`]).

use crate::wait::{self, Ladder, Sleepers};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
    ladder: Ladder,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl TeamBarrier {
    /// Build a barrier for `size` threads that wait on `ladder`.
    pub(crate) fn new(size: usize, ladder: Ladder) -> Self {
        TeamBarrier {
            size,
            ladder,
            count: AtomicUsize::new(size),
            sense: AtomicBool::new(true),
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

    /// Wait at the barrier, parking in `sleepers`. Returns `true` when
    /// the episode completed and `false` when the wait was released
    /// early — either `abort` (a sibling panicked; callers unwind) or
    /// `cancel` (the binding region was cancelled; barriers are
    /// cancellation points, so a blocked thread must be released to
    /// proceed to the region end). Whoever raises either flag wakes
    /// `sleepers`. Once either flag is up the barrier state may be left
    /// mid-episode; that is fine because no further episode runs before
    /// the team is discarded or `reset` (hot recycle).
    #[must_use]
    pub(crate) fn wait(
        &self,
        local: &mut BarrierLocal,
        abort: &AtomicBool,
        cancel: &AtomicBool,
        sleepers: &Sleepers,
    ) -> bool {
        crate::stats::bump(|s| &s.barriers);
        // Chaos: delay-only site (a panic here could fire outside a
        // region body's catch scope) — staggered arrival is the
        // schedule that exposes release/reset races between episodes.
        let _ = crate::chaos::chaos_point!(crate::chaos::Site::BarrierEntry);
        if self.size <= 1 {
            return !abort.load(Ordering::Relaxed);
        }
        let released_early = || abort.load(Ordering::Relaxed) || cancel.load(Ordering::Relaxed);
        // Entry check: a cancelled region's threads must not keep
        // mutating episode state they will never complete.
        if released_early() {
            return false;
        }
        let my_sense = local.sense;
        local.sense = !local.sense;
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset and release the episode.
            self.count.store(self.size, Ordering::Relaxed);
            self.sense.store(!my_sense, Ordering::SeqCst);
            sleepers.wake_all();
        } else {
            wait::until(self.ladder, sleepers, || {
                self.sense.load(Ordering::Acquire) != my_sense || released_early()
            });
        }
        !released_early()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icv::WaitPolicy;
    use crate::wait::Role;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use std::time::Duration;

    /// A barrier with the team state its waits need.
    struct Rig {
        barrier: TeamBarrier,
        abort: AtomicBool,
        cancel: AtomicBool,
        sleepers: Sleepers,
    }

    impl Rig {
        fn new(size: usize, policy: WaitPolicy) -> Arc<Rig> {
            Arc::new(Rig {
                barrier: TeamBarrier::new(size, Ladder::new(policy, false, Role::Member)),
                abort: AtomicBool::new(false),
                cancel: AtomicBool::new(false),
                sleepers: Sleepers::new(),
            })
        }

        fn wait(&self, local: &mut BarrierLocal) -> bool {
            self.barrier
                .wait(local, &self.abort, &self.cancel, &self.sleepers)
        }

        /// Raise `flag` the way the runtime does: `SeqCst`, then wake.
        fn raise(&self, flag: &AtomicBool) {
            flag.store(true, Ordering::SeqCst);
            self.sleepers.wake_all();
        }
    }

    fn exercise(n: usize, episodes: u32) {
        let rig = Rig::new(n, WaitPolicy::Hybrid);
        let phase = Arc::new(AtomicU32::new(0));
        let mut handles = vec![];
        for t in 0..n {
            let rig = rig.clone();
            let phase = phase.clone();
            handles.push(std::thread::spawn(move || {
                let mut local = BarrierLocal::default();
                for e in 0..episodes {
                    // Everybody must observe the phase of the current
                    // episode before anyone moves past the barrier.
                    assert_eq!(phase.load(Ordering::SeqCst), e);
                    assert!(rig.wait(&mut local));
                    if t == 0 {
                        phase.store(e + 1, Ordering::SeqCst);
                    }
                    assert!(rig.wait(&mut local));
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
        let rig = Rig::new(2, WaitPolicy::Passive);
        let r = rig.clone();
        // Partner never arrives; abort must release us with `false`.
        let waiter = std::thread::spawn(move || r.wait(&mut BarrierLocal::default()));
        std::thread::sleep(Duration::from_millis(20));
        rig.raise(&rig.abort);
        assert!(!waiter.join().unwrap());
    }

    #[test]
    fn single_thread_barrier_is_noop() {
        let rig = Rig::new(1, WaitPolicy::Active);
        let mut local = BarrierLocal::default();
        for _ in 0..100 {
            assert!(rig.wait(&mut local));
        }
    }

    /// Both kinds of wait: `active` stays on the spin rung, `passive`
    /// parks at once; each must watch the cancel flag.
    #[test]
    fn cancel_unblocks_waiters_on_both_kinds() {
        for policy in [WaitPolicy::Active, WaitPolicy::Passive] {
            let rig = Rig::new(2, policy);
            let r = rig.clone();
            // Partner never arrives; cancellation must release us.
            let waiter = std::thread::spawn(move || r.wait(&mut BarrierLocal::default()));
            std::thread::sleep(Duration::from_millis(20));
            rig.raise(&rig.cancel);
            assert!(!waiter.join().unwrap(), "{policy:?}");
            // With the flag already up, a fresh wait returns early
            // without touching episode state.
            assert!(!rig.wait(&mut BarrierLocal::default()));
        }
    }

    #[test]
    fn reset_restores_fresh_local_compatibility() {
        let rig = Rig::new(3, WaitPolicy::Hybrid);
        // Run an odd number of episodes so the sense is flipped.
        exercise_shared(&rig, 3);
        rig.barrier.reset();
        // Fresh locals (the per-region state) must work again.
        exercise_shared(&rig, 2);
    }

    fn exercise_shared(rig: &Arc<Rig>, episodes: u32) {
        let mut handles = vec![];
        for _ in 0..rig.barrier.size() {
            let rig = rig.clone();
            handles.push(std::thread::spawn(move || {
                let mut local = BarrierLocal::default();
                for _ in 0..episodes {
                    assert!(rig.wait(&mut local));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
