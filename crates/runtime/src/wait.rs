//! The runtime's one wait primitive: every blocking site (barrier,
//! worksharing slot, `ordered` turn and section lock, `copyprivate`
//! publish, the task waits, the hot join, the doorbell, `OmpLock::set`)
//! waits through `until` or `until_running`, as libomp waits on
//! every flag kind through one template (`__kmp_wait_template`).
//!
//! A wait climbs one ladder — poll with a `spin_loop` hint, then with
//! `yield_now`, then park — whose rungs come from one table
//! (`Ladder::new`), keyed on the wait policy, the team's
//! oversubscription and the waiter's `Role`. The task-running form
//! runs a task whenever it finds one and climbs again from the bottom.
//!
//! A waiter on the park rung registers in the `Sleepers` set of what
//! it waits on, re-checks its condition after a `SeqCst` fence and only
//! then parks, with no timeout. A releaser makes its change with a
//! `SeqCst` store or read-modify-write and then loads the set's count
//! (`SeqCst`): either the re-check sees the change or the releaser sees
//! the sleeper. While nobody sleeps, a release costs that one load.
//! There is one set per team (in its task system, beside the counters
//! whose changes wake it), one per doorbell channel and one per
//! `OmpLock`.

use crate::icv::WaitPolicy;
use parking_lot::Mutex;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::thread::Thread;

/// A rung count meaning "never leave this rung".
const FOREVER: u32 = u32::MAX;

/// The most `spin_loop` hints a spaced ladder puts between two polls.
const MAX_SPACING: u32 = 1 << 10;

/// Who waits: the third key of the ladder table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// A team member at a barrier, a worksharing construct or a lock.
    Member,
    /// A team member running tasks while it waits (`taskwait`,
    /// `taskgroup`, a barrier's task help, the region-end drain).
    Tasks,
    /// A bound worker at its doorbell between regions.
    Idle,
    /// The master at a region's join.
    Join,
}

/// How many `spin_loop` hints a waiter spins, then how many times it
/// yields, before it parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ladder {
    spins: u32,
    yields: u32,
    /// Poll only after a doubling number of hints (see [`Ladder::spaced`]).
    spaced: bool,
}

impl Ladder {
    /// The wait-policy table. `active` never parks, and yields instead
    /// of spinning on an oversubscribed team (more threads than cores);
    /// `passive` parks after a few polls. `hybrid` spins a member ~0.4 ms
    /// (20 000 hints), as long as fine-grained barriers take, and parks
    /// it at once oversubscribed; a task waiter, an idle worker and the
    /// joining master spin briefly, then yield their timeslice to the
    /// siblings they wait for (a task waiter that spins polls every
    /// deque and slows the thread still working). Oversubscribed, an
    /// idle worker that yields keeps the CPU from the master (~20 µs a
    /// region instead of ~3), so it parks after a few yields.
    pub(crate) const fn new(policy: WaitPolicy, oversubscribed: bool, role: Role) -> Self {
        use Role::{Idle, Join, Member, Tasks};
        use WaitPolicy::{Active, Hybrid, Passive};
        let (spins, yields) = match (policy, oversubscribed, role) {
            (Active, false, _) => (FOREVER, 0),
            (Active, true, _) => (64, FOREVER),
            (Passive, _, _) => (8, 0),
            (Hybrid, _, Tasks) => (64, 960),
            (Hybrid, false, Member) => (20_000, 0),
            (Hybrid, false, Idle) => (512, 256),
            (Hybrid, false, Join) => (512, 4_096),
            (Hybrid, true, Member) => (8, 0),
            (Hybrid, true, Idle) => (8, 32),
            (Hybrid, true, Join) => (0, 4_096),
        };
        Ladder {
            spins,
            yields,
            spaced: false,
        }
    }

    /// This ladder with its spin-rung polls spaced by a doubling number
    /// of hints (at most [`MAX_SPACING`]), for a lock word: a waiter
    /// polling on every hint takes the lock the instant its holder drops
    /// it, so a holder that re-takes it at once hands it over every time.
    pub(crate) const fn spaced(self) -> Self {
        Ladder {
            spaced: true,
            ..self
        }
    }

    /// The innermost team's ladder, else the calling task's wait
    /// policy's (a contended lock outside any region).
    pub(crate) fn current() -> Self {
        let outside = || Ladder::new(crate::icv::wait_policy(), false, Role::Member);
        crate::ctx::with_current(|r| r.team.ladder(Role::Member), outside)
    }
}

/// The threads parked on one wait condition.
#[derive(Debug, Default)]
pub(crate) struct Sleepers {
    /// `threads.len()`, read without the lock by releasers.
    count: AtomicUsize,
    threads: Mutex<Vec<Thread>>,
}

impl Sleepers {
    pub(crate) const fn new() -> Self {
        Sleepers {
            count: AtomicUsize::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Unpark every sleeper; call after the `SeqCst` release.
    pub(crate) fn wake_all(&self) {
        if self.count.load(Ordering::SeqCst) > 0 {
            let mut threads = self.threads.lock();
            self.count.store(0, Ordering::Relaxed);
            threads.drain(..).for_each(|t| t.unpark());
        }
    }

    /// Unpark one sleeper; only where every sleeper waits for the same
    /// thing (a lock), or the wake can land on one that parks again.
    pub(crate) fn wake_one(&self) {
        if self.count.load(Ordering::SeqCst) > 0 {
            let mut threads = self.threads.lock();
            if let Some(t) = threads.pop() {
                self.count.store(threads.len(), Ordering::Relaxed);
                t.unpark();
            }
        }
    }

    /// Threads registered now.
    #[cfg(test)]
    pub(crate) fn registered(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    fn register(&self) -> Registered<'_> {
        let mut threads = self.threads.lock();
        threads.push(std::thread::current());
        self.count.store(threads.len(), Ordering::SeqCst);
        drop(threads);
        fence(Ordering::SeqCst);
        Registered(self)
    }
}

/// A registration; dropping it (also in an unwind) takes the thread out
/// of the set unless a releaser already did.
struct Registered<'a>(&'a Sleepers);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        let me = std::thread::current().id();
        let mut threads = self.0.threads.lock();
        if let Some(i) = threads.iter().position(|t| t.id() == me) {
            threads.swap_remove(i);
            self.0.count.store(threads.len(), Ordering::Relaxed);
        }
    }
}

/// Wait until `cond()` holds, climbing `ladder` and parking in
/// `sleepers`.
#[inline]
pub(crate) fn until(ladder: Ladder, sleepers: &Sleepers, cond: impl FnMut() -> bool) {
    until_running(ladder, sleepers, cond, || None::<()>, |()| {});
}

/// `until`, running with `run` whatever `take` returns between polls.
/// A waiter takes once more after it registered, so work pushed (with a
/// wake) after its last poll is not slept through.
pub(crate) fn until_running<T>(
    ladder: Ladder,
    sleepers: &Sleepers,
    mut cond: impl FnMut() -> bool,
    mut take: impl FnMut() -> Option<T>,
    mut run: impl FnMut(T),
) {
    // `polls` counts hints on the spin rung and polls after it; a
    // spaced ladder spins as many hints as it spun before, so the
    // spacing doubles.
    let mut polls = 0u32;
    loop {
        if cond() {
            return;
        }
        let mut work = take();
        let mut step = 1;
        if work.is_none() {
            if ladder.spins == FOREVER || polls < ladder.spins {
                if ladder.spaced {
                    step = polls
                        .saturating_add(1)
                        .min(MAX_SPACING)
                        .min(ladder.spins - polls);
                }
                for _ in 0..step {
                    std::hint::spin_loop();
                }
            } else if ladder.yields == FOREVER || polls - ladder.spins < ladder.yields {
                std::thread::yield_now();
            } else {
                if polls - ladder.spins == ladder.yields {
                    crate::stats::bump(|s| &s.wait_parks);
                }
                let _registered = sleepers.register();
                if cond() {
                    return;
                }
                work = take();
                if work.is_none() {
                    // Chaos: stretch the window between the last check
                    // and the park, where a missing wake strands a
                    // waiter.
                    let _ = crate::chaos::chaos_point!(crate::chaos::Site::Park);
                    std::thread::park();
                }
            }
        }
        match work {
            Some(w) => {
                run(w);
                polls = 0;
            }
            None => polls = polls.saturating_add(step),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn ladder_rows_order_the_policies() {
        let parks_after = |l: Ladder| u64::from(l.spins) + u64::from(l.yields);
        let row = |p, o, r| Ladder::new(p, o, r);
        for role in [Role::Member, Role::Tasks, Role::Idle, Role::Join] {
            let (active, hybrid, passive) = (
                row(WaitPolicy::Active, false, role),
                row(WaitPolicy::Hybrid, false, role),
                row(WaitPolicy::Passive, false, role),
            );
            assert!(parks_after(active) > parks_after(hybrid));
            assert!(parks_after(hybrid) > parks_after(passive));
            // Oversubscribed: active yields forever, passive parks at once.
            assert_eq!(row(WaitPolicy::Active, true, role).yields, FOREVER);
            assert_eq!(row(WaitPolicy::Passive, true, role), passive);
        }
        // The hybrid rows keep the budgets of the hand-written waits
        // they replace: a barrier spun 20 000 times before parking, and
        // 8 times oversubscribed; a task wait spun 64 times and yielded
        // 960 times before it slept; the doorbell spun 512 times and
        // yielded 256 times, the join spun 512 times and yielded 4 096
        // times, and oversubscribed the doorbell took 8 and 32 and the
        // join 0 and 4 096.
        let hybrid = |o, r| {
            let l = row(WaitPolicy::Hybrid, o, r);
            (l.spins, l.yields)
        };
        assert_eq!(hybrid(false, Role::Member), (20_000, 0));
        assert_eq!(hybrid(false, Role::Tasks), (64, 960));
        assert_eq!(hybrid(false, Role::Idle), (512, 256));
        assert_eq!(hybrid(false, Role::Join), (512, 4_096));
        assert_eq!(hybrid(true, Role::Member), (8, 0));
        assert_eq!(hybrid(true, Role::Tasks), (64, 960));
        assert_eq!(hybrid(true, Role::Idle), (8, 32));
        assert_eq!(hybrid(true, Role::Join), (0, 4_096));
    }

    #[test]
    fn a_spaced_ladder_polls_less_but_parks_after_as_many_hints() {
        let polls_before_park = |ladder: Ladder| {
            let sleepers = Arc::new(Sleepers::new());
            let (polls, done) = (
                Arc::new(AtomicUsize::new(0)),
                Arc::new(AtomicBool::new(false)),
            );
            let (s, p, d) = (sleepers.clone(), polls.clone(), done.clone());
            let waiter = std::thread::spawn(move || {
                until(ladder, &s, || {
                    p.fetch_add(1, Ordering::SeqCst);
                    d.load(Ordering::SeqCst)
                });
            });
            while sleepers.registered() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let n = polls.load(Ordering::SeqCst);
            done.store(true, Ordering::SeqCst);
            sleepers.wake_all();
            waiter.join().unwrap();
            n
        };
        let dense = Ladder {
            spins: 4_096,
            yields: 0,
            spaced: false,
        };
        // One poll per hint, and the re-check after registering.
        assert_eq!(polls_before_park(dense), 4_098);
        // Spacings 1, 2, ..., 1 024, 1 024, 1 024 and 1 take the 4 096
        // hints in 14 polls; then the poll that ends the rung and the
        // re-check.
        assert_eq!(polls_before_park(dense.spaced()), 16);
    }

    #[test]
    fn a_parked_waiter_is_woken_by_its_release() {
        let sleepers = Arc::new(Sleepers::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (s, f) = (sleepers.clone(), flag.clone());
        let waiter = std::thread::spawn(move || {
            until(
                Ladder::new(WaitPolicy::Passive, false, Role::Member),
                &s,
                || f.load(Ordering::Acquire),
            );
        });
        // Let the waiter reach the park rung and register.
        while sleepers.count.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::SeqCst);
        sleepers.wake_all();
        waiter.join().unwrap();
        assert_eq!(sleepers.count.load(Ordering::SeqCst), 0);
        assert!(sleepers.threads.lock().is_empty());
    }

    #[test]
    fn each_wake_one_releases_one_sleeper() {
        let sleepers = Arc::new(Sleepers::new());
        let go = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (s, g) = (sleepers.clone(), go.clone());
                std::thread::spawn(move || {
                    until(
                        Ladder::new(WaitPolicy::Passive, false, Role::Member),
                        &s,
                        || {
                            // Each waiter consumes one token.
                            let n = g.load(Ordering::SeqCst);
                            n > 0
                                && g.compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
                                    .is_ok()
                        },
                    );
                })
            })
            .collect();
        while sleepers.count.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..2 {
            go.fetch_add(1, Ordering::SeqCst);
            sleepers.wake_one();
        }
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(sleepers.count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn the_running_form_runs_work_pushed_to_a_sleeper() {
        let sleepers = Arc::new(Sleepers::new());
        let work = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let (s, w, d) = (sleepers.clone(), work.clone(), done.clone());
        let waiter = std::thread::spawn(move || {
            until_running(
                Ladder::new(WaitPolicy::Passive, false, Role::Member),
                &s,
                || d.load(Ordering::SeqCst) == 3,
                || {
                    let n = w.load(Ordering::SeqCst);
                    (n > 0
                        && w.compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok())
                    .then_some(())
                },
                |()| {
                    d.fetch_add(1, Ordering::SeqCst);
                },
            );
        });
        for _ in 0..3 {
            while sleepers.count.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            work.fetch_add(1, Ordering::SeqCst);
            sleepers.wake_one();
        }
        waiter.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_release_with_no_sleepers_takes_no_lock() {
        let sleepers = Sleepers::new();
        let held = sleepers.threads.lock();
        // Both return on the zero count without touching the held lock.
        sleepers.wake_all();
        sleepers.wake_one();
        drop(held);
    }
}
