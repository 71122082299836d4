//! Runtime statistics counters.
//!
//! Event counters recording how often the runtime's major code paths
//! fire. The repo benchmark (`benchmark/`) and several tests use these
//! to assert that the intended machinery actually ran (e.g. that a
//! `schedule(dynamic)` loop really went through the shared dispatcher,
//! or that task stealing occurred under imbalance). The tasking
//! counters — spawned / executed / inline / stolen / dependence-stalled
//! — make the dependence-graph scheduler observable: [`display_stats`]
//! renders them in the style of the `OMP_DISPLAY_ENV` banner
//! ([`crate::env::display_env`] appends it).
//!
//! Counting stays off every shared cache line. Each thread owns one
//! cache-line-aligned [`Stats`] block, registered on its first bump;
//! only the owner writes to it, with a plain relaxed load and store,
//! never a locked read-modify-write (libomp's statistics build keeps
//! one record per thread the same way). The one static block that
//! [`stats`] returns is the total of retired threads: a thread's
//! exiting folds its block into it and unregisters the block, both
//! under the registry lock, and a bump made after the thread's block
//! was destroyed (from another thread-local destructor) goes straight
//! to that total with a `fetch_add`. [`Stats::snapshot`] takes the same
//! lock and sums the retired total and every live block, so no block is
//! counted twice or dropped.
//!
//! Counts are exact at a point where the threads that made them are
//! synchronized with the reader: a worker's stores happen before its
//! region's join and the join happens before the master's snapshot, so
//! the master sees every bump its team made. A snapshot taken while
//! other threads are still counting may miss their latest bumps.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Defines [`Stats`] and [`Snapshot`] from one list of counters.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// One block of event counters. Each thread counts into a block
        /// of its own; the static block [`stats`] returns holds the
        /// totals of retired threads. Read the counters through
        /// [`Stats::snapshot`], which sums every block.
        #[derive(Debug)]
        #[repr(align(64))]
        pub struct Stats {
            $($(#[$doc])* pub(crate) $name: AtomicU64,)*
        }

        impl Stats {
            const fn new() -> Self {
                Stats { $($name: AtomicU64::new(0),)* }
            }

            /// Add every counter of `self` into `total`.
            fn fold_into(&self, total: &Stats) {
                $(total.$name.fetch_add(self.$name.load(Relaxed), Relaxed);)*
            }

            /// Add every counter of `self` into `sum`.
            fn sum_into(&self, sum: &mut Snapshot) {
                $(sum.$name += self.$name.load(Relaxed);)*
            }
        }

        /// A point-in-time copy of all counters, summed over every
        /// thread; convenient for before/after diffs.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Snapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Always 0: the pool has one idle list, so no acquire is
            /// stolen from another. Kept only because the benchmark's
            /// trace (`benchmark/src/trace.rs`) reads it; the benchmark
            /// re-baseline (ROADMAP item 1) removes it.
            pub pool_acquires_stolen: u64,
        }

        impl Snapshot {
            /// Counter deltas between two snapshots (`later - self`).
            pub fn delta(&self, later: &Snapshot) -> Snapshot {
                Snapshot {
                    $($name: later.$name - self.$name,)*
                    pool_acquires_stolen: 0,
                }
            }
        }
    };
}

counters! {
    /// Parallel regions started (including serialized ones).
    forks,
    /// Parallel regions that were serialized (team of one).
    serialized_forks,
    /// Barrier arrivals, explicit and implicit: one per thread per
    /// barrier episode, teams of one included (a team of two completing
    /// one episode counts 2).
    barriers,
    /// Chunks handed out by dynamic/guided dispatchers.
    dispatched_chunks,
    /// Explicit tasks created (deferred or undeferred).
    tasks_spawned,
    /// Explicit tasks executed.
    tasks_executed,
    /// Explicit tasks executed undeferred on the encountering thread
    /// (`if(false)`, `final`, included tasks).
    tasks_inline,
    /// Tasks executed by a thread other than the one that created them.
    tasks_stolen,
    /// Tasks held back by the dependence graph (unmet `depend`
    /// predecessors at creation time).
    tasks_dep_stalled,
    /// Worker threads ever spawned by the pool.
    workers_spawned,
    /// Worker spawn attempts that failed (OS refused the thread, or a
    /// test injected a failure); each one rolled back its thread-limit
    /// reservation and degraded the requesting fork to a short team.
    worker_spawn_failures,
    /// Idle workers handed out from the pool's idle list (the rest of a
    /// lease's workers are fresh spawns).
    pool_acquires_local,
    /// Idle-list `try_lock` misses — two masters acquired or released
    /// workers at the same instant. (The name is kept for the
    /// benchmark's trace.)
    pool_shard_contention,
    /// Lock acquisitions that had to wait (contended).
    contended_locks,
    /// Waits that reached the park rung of their ladder
    /// ([`crate::wait`]), counted once per wait.
    wait_parks,
    /// Forks served by a cached hot team (doorbell fast path).
    hot_team_hits,
    /// Forks that looked for a cached hot team, found none and built one
    /// from the pool. (A fork whose lease may not be kept — hot teams
    /// off, or forked from a `final` task — counts as neither hit nor
    /// miss.)
    hot_team_misses,
    /// Forks that rebuilt a cached hot team because `num_threads` or a
    /// team-shape ICV (wait policy, `dyn-var`) changed.
    hot_team_resizes,
    /// Hot-team hits at nesting level ≥ 1 (a worker's own cached
    /// sub-team answered a nested fork; also counted in
    /// `hot_team_hits`).
    hot_team_nested_hits,
    /// Hot-team builds at nesting level ≥ 1 (also counted in
    /// `hot_team_misses`/`hot_team_resizes`).
    hot_team_nested_misses,
    /// Threads successfully bound to an `OMP_PLACES` place
    /// (`sched_setaffinity` accepted the mask).
    affinity_binds,
    /// Bind attempts the kernel (or an unsupported platform) rejected;
    /// each degrades gracefully to an unbound thread.
    affinity_bind_failures,
    /// `cancel` requests that activated cancellation (cancel-var was
    /// true and the flag was raised).
    cancels_activated,
    /// Explicit tasks discarded without running their body (their
    /// taskgroup or parallel region was cancelled before they started).
    tasks_discarded,
    /// Explicit tasks dropped by `TaskSystem::purge`
    /// after an aborted (panicked) region, without running their body.
    /// Together with executed + discarded this closes the task ledger:
    /// every spawned task is accounted by exactly one of the three.
    tasks_purged,
    /// Kernel-variant registry calls measured while their entry was
    /// still probing ([`crate::variants`]).
    tune_probes,
    /// Kernel-variant registry entries that locked to a winner.
    tune_converged,
}

/// The totals of retired threads, plus every bump made after its
/// thread's block was destroyed.
static RETIRED: Stats = Stats::new();

/// Every live thread's block.
static LIVE: Mutex<Vec<Arc<Stats>>> = Mutex::new(Vec::new());

/// The registry lock. Every update under it leaves the list valid (one
/// push, or one fold followed by one removal), so a poisoned lock is
/// recovered rather than propagated — the exit path runs in `Drop`.
fn lock_live() -> MutexGuard<'static, Vec<Arc<Stats>>> {
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's own counter block, registered in [`LIVE`] on the
/// thread's first bump and folded into [`RETIRED`] when it exits. The
/// registry shares the block through an `Arc`, so a snapshot never
/// reads freed memory: a thread whose destructors do not run leaves
/// its block live, and still counted.
struct Local(Arc<Stats>);

impl Local {
    #[cold]
    fn register() -> Local {
        let block = Arc::new(Stats::new());
        lock_live().push(Arc::clone(&block));
        Local(block)
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut live = lock_live();
        self.0.fold_into(&RETIRED);
        if let Some(i) = live.iter().position(|b| Arc::ptr_eq(b, &self.0)) {
            live.swap_remove(i);
        }
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// The statistics handle: the retired-thread totals, read (together
/// with every live thread's block) through [`Stats::snapshot`].
pub fn stats() -> &'static Stats {
    &RETIRED
}

impl Stats {
    /// Copy every counter at once, summed over every thread: `self`
    /// (the retired total that [`stats`] returns) plus each live
    /// thread's block, all read under the registry lock.
    pub fn snapshot(&self) -> Snapshot {
        let live = lock_live();
        let mut sum = Snapshot::default();
        self.sum_into(&mut sum);
        for block in live.iter() {
            block.sum_into(&mut sum);
        }
        sum
    }
}

/// Render a snapshot's task-scheduler counters as a banner in the
/// `OMP_DISPLAY_ENV` style. The benchmark harness prints this after a
/// run so scheduler behavior (stealing, dependence stalls, inlining) is
/// visible next to the timings.
pub fn display_stats_snapshot(s: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "ROMP TASK STATISTICS BEGIN");
    let _ = writeln!(out, "  tasks_spawned = '{}'", s.tasks_spawned);
    let _ = writeln!(out, "  tasks_executed = '{}'", s.tasks_executed);
    let _ = writeln!(out, "  tasks_inline = '{}'", s.tasks_inline);
    let _ = writeln!(out, "  tasks_stolen = '{}'", s.tasks_stolen);
    let _ = writeln!(out, "  tasks_dep_stalled = '{}'", s.tasks_dep_stalled);
    let _ = writeln!(out, "  hot_team_hits = '{}'", s.hot_team_hits);
    let _ = writeln!(out, "  hot_team_misses = '{}'", s.hot_team_misses);
    let _ = writeln!(out, "  hot_team_resizes = '{}'", s.hot_team_resizes);
    let _ = writeln!(out, "  hot_team_nested_hits = '{}'", s.hot_team_nested_hits);
    let _ = writeln!(
        out,
        "  hot_team_nested_misses = '{}'",
        s.hot_team_nested_misses
    );
    let _ = writeln!(out, "  affinity_binds = '{}'", s.affinity_binds);
    let _ = writeln!(
        out,
        "  affinity_bind_failures = '{}'",
        s.affinity_bind_failures
    );
    let _ = writeln!(out, "  cancels_activated = '{}'", s.cancels_activated);
    let _ = writeln!(out, "  tasks_discarded = '{}'", s.tasks_discarded);
    let _ = writeln!(out, "  tasks_purged = '{}'", s.tasks_purged);
    let _ = writeln!(out, "  workers_spawned = '{}'", s.workers_spawned);
    let _ = writeln!(
        out,
        "  worker_spawn_failures = '{}'",
        s.worker_spawn_failures
    );
    let _ = writeln!(out, "  pool_acquires_local = '{}'", s.pool_acquires_local);
    let _ = writeln!(
        out,
        "  pool_shard_contention = '{}'",
        s.pool_shard_contention
    );
    let _ = writeln!(out, "  tune_probes = '{}'", s.tune_probes);
    let _ = writeln!(out, "  tune_converged = '{}'", s.tune_converged);
    let _ = writeln!(out, "ROMP TASK STATISTICS END");
    out
}

/// [`display_stats_snapshot`] over a snapshot of every thread's
/// counters, followed by the kernel-variant registry
/// ([`crate::variants::display_variants_table`]).
pub fn display_stats() -> String {
    let mut out = display_stats_snapshot(&stats().snapshot());
    out.push_str(&crate::variants::display_variants_table());
    out
}

/// Add `n` to the counter `field` picks (`add(|s| &s.tasks_purged, n)`)
/// in this thread's block. Only the owning thread writes its block, so
/// a relaxed load and store suffice. Once the thread's block is
/// destroyed (a bump from another thread-local destructor at thread
/// exit), the count goes straight to the retired total.
///
/// Never inlined: every counting site stays one call, so the
/// thread-local access and its first-use and after-exit branches do not
/// grow the generic fork and loop bodies that call it. Inlined, they
/// changed how those bodies compiled: `sync-fine`'s traced static loops
/// ran about 25 % slower on a 2-vCPU x86-64 machine.
#[inline(never)]
pub(crate) fn add(field: impl Fn(&Stats) -> &AtomicU64, n: u64) {
    let counted = LOCAL.try_with(|local| {
        let counter = field(&local.0);
        counter.store(counter.load(Relaxed) + n, Relaxed);
    });
    if counted.is_err() {
        field(&RETIRED).fetch_add(n, Relaxed);
    }
}

/// [`add`] one.
#[inline]
pub(crate) fn bump(field: impl Fn(&Stats) -> &AtomicU64) {
    add(field, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{fork, ForkSpec};
    use std::sync::atomic::AtomicBool;

    const _: () = assert!(std::mem::align_of::<Stats>() >= 64);

    /// Other tests in this binary bump the same counters concurrently,
    /// but never 2^32 times: the tests below add this weight per event
    /// and read their exact count from the high bits of a delta.
    const W: u64 = 1 << 32;

    /// This thread's block (registering it if needed).
    fn own_block() -> Arc<Stats> {
        LOCAL.with(|local| Arc::clone(&local.0))
    }

    /// Whether `block` is gone from the registry and from its thread:
    /// the caller's clone is the only reference left.
    fn retired(block: &Arc<Stats>) -> bool {
        Arc::strong_count(block) == 1
    }

    #[test]
    fn scoped_threads_count_exactly() {
        let before = stats().snapshot();
        // The scope returns once the closures are done, not once each
        // thread's block is folded, so a block may be live or retired
        // when the snapshot is taken; either way it counts once. This
        // thread's own block is live.
        add(|s| &s.tune_probes, W);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        add(|s| &s.tune_probes, W);
                    }
                });
            }
        });
        let d = before.delta(&stats().snapshot());
        assert_eq!(d.tune_probes / W, 80_001);
    }

    #[test]
    fn short_lived_threads_fold_and_unregister() {
        let before = stats().snapshot();
        let live_before = lock_live().len();
        for _ in 0..1_000 {
            let block = std::thread::spawn(|| {
                add(|s| &s.tune_converged, W);
                own_block()
            })
            .join()
            .expect("counting thread panicked");
            assert!(retired(&block), "an exited thread's block is still live");
        }
        let d = before.delta(&stats().snapshot());
        assert_eq!(d.tune_converged / W, 1_000);
        // Concurrent tests start and stop threads of their own, so the
        // registry only has to end far below one block per thread.
        assert!(lock_live().len() < live_before + 100);
    }

    #[test]
    fn thread_exiting_with_a_hot_lease_counts_exactly() {
        const REGIONS: u64 = 20;
        let before = stats().snapshot();
        let block = std::thread::spawn(|| {
            for _ in 0..REGIONS {
                fork(ForkSpec::with_num_threads(2), |_| {
                    add(|s| &s.affinity_bind_failures, W);
                });
            }
            own_block()
        })
        .join()
        .expect("a thread exiting with a hot lease panicked");
        // The lease was released by the exiting thread's thread-local
        // destructors, which may bump after its own block is gone.
        assert!(retired(&block));
        let d = before.delta(&stats().snapshot());
        assert_eq!(d.affinity_bind_failures / W, 2 * REGIONS);
    }

    #[test]
    fn bump_from_a_late_destructor_is_counted_once() {
        static AFTER_BLOCK: AtomicBool = AtomicBool::new(false);
        struct Late;
        impl Drop for Late {
            fn drop(&mut self) {
                AFTER_BLOCK.store(LOCAL.try_with(|_| ()).is_err(), Relaxed);
                add(|s| &s.tasks_purged, W);
            }
        }
        thread_local! {
            static LATE: Late = const { Late };
        }
        let before = stats().snapshot();
        std::thread::spawn(|| {
            // Registered before the block, so destroyed after it.
            LATE.with(|_| ());
            add(|s| &s.tasks_purged, W);
        })
        .join()
        .expect("a late destructor's bump panicked");
        let d = before.delta(&stats().snapshot());
        assert_eq!(d.tasks_purged / W, 2);
        assert!(
            AFTER_BLOCK.load(Relaxed),
            "the late bump ran while the block was alive; the retired path went untested"
        );
    }

    #[test]
    fn snapshot_delta_is_monotone() {
        let before = stats().snapshot();
        bump(|s| &s.forks);
        bump(|s| &s.forks);
        bump(|s| &s.barriers);
        let after = stats().snapshot();
        let d = before.delta(&after);
        assert!(d.forks >= 2);
        assert!(d.barriers >= 1);
    }

    #[test]
    fn display_stats_lists_all_task_counters() {
        let banner = display_stats();
        for key in [
            "tasks_spawned",
            "tasks_executed",
            "tasks_inline",
            "tasks_stolen",
            "tasks_dep_stalled",
            "hot_team_hits",
            "hot_team_misses",
            "hot_team_resizes",
            "hot_team_nested_hits",
            "hot_team_nested_misses",
            "affinity_binds",
            "affinity_bind_failures",
            "cancels_activated",
            "tasks_discarded",
            "tasks_purged",
            "workers_spawned",
            "worker_spawn_failures",
            "pool_acquires_local",
            "pool_shard_contention",
            "tune_probes",
            "tune_converged",
            "ROMP VARIANT REGISTRY BEGIN",
        ] {
            assert!(banner.contains(key), "missing {key} in:\n{banner}");
        }
    }
}
