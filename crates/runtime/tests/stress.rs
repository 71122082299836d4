//! Runtime stress: fork-join churn, barriers, nesting, tasking under
//! stealing, reductions, and lock fairness.
//!
//! The conformance matrix (`tests/conformance_schedules.rs` at the
//! workspace root) pins the worksharing contract; this suite pins the
//! synchronization constructs the paper assumes of libomp under
//! repetition and contention.

use romp_runtime::{
    fork, icv, ForkSpec, MaxOp, NestLock, OmpLock, ProdOp, Schedule, SumOp, WaitPolicy,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Repeated fork-join: hundreds of regions of varying size through the
/// persistent pool, each doing real work, must neither lose updates nor
/// wedge (pool reuse, mailbox handoff, join signalling).
#[test]
fn repeated_fork_join_churn() {
    let counter = AtomicU64::new(0);
    let mut expected = 0u64;
    for round in 0..300u64 {
        let threads = 1 + (round % 5) as usize;
        let granted = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            granted.store(ctx.num_threads(), Ordering::Relaxed);
            counter.fetch_add(1 + ctx.thread_num() as u64, Ordering::Relaxed);
        });
        // Every team thread adds 1 + its id: sum = n + n(n-1)/2.
        let n = granted.load(Ordering::Relaxed).max(1) as u64;
        expected += n + n * (n - 1) / 2;
    }
    assert_eq!(counter.load(Ordering::Relaxed), expected);
}

/// Back-to-back barriers under both kinds of wait (spinning `active`,
/// parking `passive`): no thread may pass barrier `k+1` before every
/// thread passed `k` (tracked by a strictly monotonic phase counter per
/// thread).
#[test]
fn barrier_phase_lockstep_both_kinds() {
    for policy in [WaitPolicy::Active, WaitPolicy::Passive] {
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.wait_policy, policy));
        let threads = 4;
        let phases: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            for round in 0..200u64 {
                // Everyone must still be on `round` when we arrive.
                for p in &phases {
                    let seen = p.load(Ordering::Acquire);
                    assert!(
                        seen == round || seen == round + 1,
                        "{policy:?}: phase skew (saw {seen} in round {round})"
                    );
                }
                phases[ctx.thread_num()].store(round + 1, Ordering::Release);
                ctx.barrier();
                // After the barrier, nobody can still be behind.
                for p in &phases {
                    assert!(p.load(Ordering::Acquire) > round, "{policy:?}: lost thread");
                }
                ctx.barrier();
            }
        });
        icv::with_global_mut(|i| i.wait_policy = prev);
    }
}

/// Nested parallelism respects `max-active-levels`: at the default of
/// 1 the inner region is serialized to a 1-thread team; when CI pins
/// `OMP_MAX_ACTIVE_LEVELS=2` it may be genuinely parallel. Either way
/// the inner region runs, levels are reported correctly, and inner
/// worksharing covers its whole space exactly once per region.
#[test]
fn nested_fork_serializes_by_default() {
    let max_active = romp_runtime::icv::current().max_active_levels;
    let inner_total = AtomicU64::new(0);
    let outer_granted = AtomicUsize::new(0);
    fork(ForkSpec::with_num_threads(4), |ctx| {
        outer_granted.store(ctx.num_threads(), Ordering::Relaxed);
        assert_eq!(ctx.level(), 1);
        let outer_id = ctx.thread_num();
        fork(ForkSpec::with_num_threads(8), |inner| {
            if max_active <= 1 {
                assert_eq!(inner.num_threads(), 1, "inner region was not serialized");
            }
            assert_eq!(inner.level(), 2);
            assert_eq!(
                romp_runtime::omp_get_ancestor_thread_num(1),
                Some(outer_id),
                "ancestor bookkeeping lost across nested fork"
            );
            // A worksharing loop inside the serialized region still
            // covers its whole space.
            inner.ws_for(0..50, Schedule::dynamic_chunk(3), false, |_| {
                inner_total.fetch_add(1, Ordering::Relaxed);
            });
        });
    });
    let team = outer_granted.load(Ordering::Relaxed).max(1) as u64;
    assert_eq!(inner_total.load(Ordering::Relaxed), 50 * team);
}

/// Taskgroup under work stealing: every team thread floods the deques
/// with tasks spawning subtasks; `taskgroup` must not return while any
/// transitively-created task is live, even when other threads steal
/// and run them.
#[test]
fn taskgroup_waits_for_stolen_subtasks() {
    let threads = 4;
    for _ in 0..20 {
        let done = Arc::new(AtomicUsize::new(0));
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            let done = done.clone();
            ctx.taskgroup(|| {
                for _ in 0..25 {
                    let done = done.clone();
                    ctx.task(move || {
                        // Subtask created *inside* a group task: the
                        // group must wait for it transitively.
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            // The group is closed: every task this thread spawned (and
            // any it stole) is finished. Since all threads' groups close
            // before the region's end barrier, the total is exact after
            // the implicit join below.
        });
        assert_eq!(
            done.load(Ordering::Relaxed),
            25 * fork_team_size(threads),
            "taskgroup returned before its tasks finished"
        );
    }
}

/// Deep task trees: tasks recursively spawning tasks, drained by
/// `taskwait` at each level — a stealing-heavy workload shaped like
/// divide-and-conquer codes.
#[test]
fn recursive_task_tree_under_stealing() {
    fn spawn_tree(ctx: &romp_runtime::ThreadCtx<'_>, depth: usize, hits: &AtomicU64) {
        hits.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        for _ in 0..2 {
            ctx.task(move || {
                // Leaf work is accounted via the closure below; the
                // recursion happens in the spawning thread.
            });
        }
        ctx.taskwait();
        spawn_tree(ctx, depth - 1, hits);
    }

    let hits = AtomicU64::new(0);
    let threads = 4;
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        spawn_tree(ctx, 6, &hits);
    });
    assert_eq!(
        hits.load(Ordering::Relaxed),
        7 * fork_team_size(threads) as u64
    );
}

/// `taskloop` covers its range exactly once regardless of grainsize,
/// with the whole team stealing chunks.
#[test]
fn taskloop_partitions_exactly_under_stealing() {
    for grain in [0usize, 1, 7, 1000] {
        let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        fork(ForkSpec::with_num_threads(4), |ctx| {
            // Only one thread carves the loop into tasks; the team
            // executes them.
            if ctx.single(true, || ()).is_some() {
                ctx.taskloop(0..512, grain, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "taskloop(grain={grain}) lost or duplicated iterations"
        );
    }
}

/// Team-wide value reductions agree with the serial fold across
/// repeated constructs (double-buffered reduce cells must not leak
/// state between generations).
#[test]
fn repeated_reductions_are_exact() {
    let threads = 4;
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        let n = ctx.num_threads() as u64;
        for round in 1..100u64 {
            let sum = ctx.reduce_value(SumOp, ctx.thread_num() as u64 + round);
            assert_eq!(sum, n * round + n * (n - 1) / 2);
            let max = ctx.reduce_value(MaxOp, ctx.thread_num() as u64);
            assert_eq!(max, n - 1);
            let prod = ctx.reduce_value(ProdOp, 2u64);
            assert_eq!(prod, 1u64 << n);
        }
    });
}

/// Lock fairness smoke: under sustained contention on one `OmpLock`,
/// every thread makes progress and the protected counter is exact (no
/// lost wakeups, no permanent starvation).
#[test]
fn omp_lock_contention_and_progress() {
    let lock = OmpLock::new();
    let shared = AtomicU64::new(0);
    let threads = 4;
    let per_thread = 2_000u64;
    let progress: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        for _ in 0..per_thread {
            lock.with(|| {
                // Non-atomic-looking read-modify-write under the lock:
                // exactness proves mutual exclusion.
                let v = shared.load(Ordering::Relaxed);
                shared.store(v + 1, Ordering::Relaxed);
            });
            progress[ctx.thread_num()].fetch_add(1, Ordering::Relaxed);
        }
    });
    let team = fork_team_size(threads) as u64;
    assert_eq!(shared.load(Ordering::Relaxed), per_thread * team);
    for (t, p) in progress.iter().enumerate().take(team as usize) {
        assert_eq!(
            p.load(Ordering::Relaxed),
            per_thread,
            "thread {t} starved on the contended lock"
        );
    }
}

/// Nestable lock: re-acquisition by the owner is permitted and counted;
/// full release hands the lock over cleanly under contention.
#[test]
fn nest_lock_reentrancy_under_contention() {
    let lock = NestLock::new();
    let shared = AtomicU64::new(0);
    let threads = 4;
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        let _ = ctx;
        for _ in 0..500 {
            let d1 = lock.set();
            let d2 = lock.set(); // re-entrant
            assert_eq!(d2, d1 + 1, "nest depth did not grow on re-acquire");
            let v = shared.load(Ordering::Relaxed);
            shared.store(v + 1, Ordering::Relaxed);
            lock.unset();
            lock.unset();
        }
    });
    assert_eq!(
        shared.load(Ordering::Relaxed),
        500 * fork_team_size(threads) as u64
    );
}

/// Oversubscribed teams (more threads than cores) with barrier-heavy
/// work: the passive wait-policy path must still be exact and must not
/// deadlock.
#[test]
fn oversubscribed_barrier_heavy_region() {
    let threads = icv::hardware_threads() * 2 + 1;
    let counter = AtomicU64::new(0);
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        for _ in 0..25 {
            counter.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
        }
    });
    assert_eq!(
        counter.load(Ordering::Relaxed),
        25 * fork_team_size(threads) as u64
    );
}

/// The team size `fork` actually grants for a request of `n` (the pool
/// may clamp at `thread-limit`); mirrors the clamping in `pool::fork`.
fn fork_team_size(requested: usize) -> usize {
    let got = AtomicUsize::new(0);
    fork(ForkSpec::with_num_threads(requested), |ctx| {
        got.store(ctx.num_threads(), Ordering::Relaxed);
    });
    got.load(Ordering::Relaxed).max(1)
}

/// Dependence chains under work stealing: several independent
/// `depend(inout)` chains spawned interleaved from one thread; every
/// link must observe its predecessor's update, while the other threads
/// steal across chains and the taskgroup waits for the whole graph.
#[test]
fn dependent_chains_under_stealing() {
    use romp_runtime::TaskDeps;
    const CHAINS: usize = 8;
    const LINKS: u64 = 25;
    for _ in 0..10 {
        let progress: Vec<AtomicU64> = (0..CHAINS).map(|_| AtomicU64::new(0)).collect();
        let tokens: Vec<u8> = vec![0; CHAINS];
        let (progress, tokens) = (&progress, &tokens);
        fork(ForkSpec::with_num_threads(4), |ctx| {
            if ctx.thread_num() == 0 {
                ctx.taskgroup(|| {
                    for k in 0..LINKS {
                        for c in 0..CHAINS {
                            ctx.task_depend(TaskDeps::new().inout(&tokens[c]), move || {
                                let prev = progress[c].swap(k + 1, Ordering::SeqCst);
                                assert_eq!(prev, k, "chain {c} link {k} ran out of order");
                            });
                        }
                    }
                });
                for (c, p) in progress.iter().enumerate() {
                    assert_eq!(p.load(Ordering::SeqCst), LINKS, "chain {c} incomplete");
                }
            }
        });
    }
}

/// The barrier's task-draining path must also retire *stalled* tasks:
/// a dependence chain spawned right before the implicit region-end
/// barrier, with no taskwait/taskgroup, completes before `fork` returns.
#[test]
fn region_end_barrier_drains_stalled_dependents() {
    for _ in 0..20 {
        let hits = AtomicU64::new(0);
        let token = 0u8;
        let (hits, token) = (&hits, &token);
        fork(ForkSpec::with_num_threads(4), |ctx| {
            if ctx.thread_num() == 0 {
                for _ in 0..50 {
                    ctx.task_depend(romp_runtime::TaskDeps::new().inout(token), move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            // No explicit wait: the implicit barrier owns the drain.
        });
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }
}

/// Run `f` on its own thread and fail — instead of hanging the suite —
/// if it has not finished within two minutes (a wedged team never
/// returns; its thread is abandoned).
fn within_two_minutes(f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => worker.join().expect("worker finished"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("team wedged"),
    }
}

/// Slot-ring regression: one region laps the `WS_SLOTS` ring thousands
/// of times with `nowait` constructs, so threads constantly race to
/// recycle slots their siblings are about to join. A slot installed
/// twice re-runs its loop (the iteration total overshoots) and wipes a
/// `leave`, after which the ring never drains and the team hangs.
#[test]
fn slot_ring_survives_thousands_of_nowait_constructs() {
    const CONSTRUCTS: u64 = 10_000;
    const TRIP: u64 = 6;
    for threads in [2, 4] {
        within_two_minutes(move || {
            let singles = AtomicU64::new(0);
            let iterations = AtomicU64::new(0);
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                for _ in 0..CONSTRUCTS {
                    ctx.single(true, || singles.fetch_add(1, Ordering::Relaxed));
                    ctx.ws_for(0..TRIP as usize, Schedule::dynamic_chunk(1), true, |_| {
                        iterations.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(singles.load(Ordering::Relaxed), CONSTRUCTS);
            assert_eq!(iterations.load(Ordering::Relaxed), CONSTRUCTS * TRIP);
        });
    }
}

/// A barrier must be exactly one episode per thread, whatever its
/// siblings do next. Every thread spawns a task right after each
/// barrier: a thread that is slow out of the episode sees those
/// next-phase tasks as pending, and if it took them for work the
/// barrier still owed, it would wait in a second episode that no
/// sibling ever joins (oversubscribed here so threads do get
/// descheduled between the release and their next step).
#[test]
fn barrier_is_one_episode_even_when_siblings_spawn_right_after() {
    const ROUNDS: u64 = 20_000;
    within_two_minutes(|| {
        let threads = icv::hardware_threads() * 2;
        let ran = AtomicU64::new(0);
        let granted = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            granted.store(ctx.num_threads(), Ordering::Relaxed);
            for _ in 0..ROUNDS {
                ctx.barrier();
                ctx.task(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let team = granted.load(Ordering::Relaxed) as u64;
        assert_eq!(ran.load(Ordering::Relaxed), ROUNDS * team);
    });
}
