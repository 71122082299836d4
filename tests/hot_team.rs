//! Hot-team cache conformance.
//!
//! The fork/join fast path caches the master's last team (workers stay
//! bound to doorbells between regions — see `romp_runtime::pool`). That
//! cache must be *observationally invisible*: `omp_get_num_threads`
//! geometry stays exact when `omp_set_num_threads`, `OMP_DYNAMIC` or the
//! wait policy change between back-to-back regions (the team resizes or
//! rebuilds), per-fork ICV snapshots
//! (`schedule(runtime)` resolution, `proc_bind`) are re-taken on every
//! recycle, and a panic inside a region must never poison the cached
//! team — the next fork from the same master rebuilds cleanly.
//!
//! The second half of the file covers the *hierarchical* cache: nested
//! forks lease one sub-team per (master thread, nesting level), so a
//! warmed 2×2 nest must spawn zero OS threads, survive `proc_bind`
//! changes (placement is re-snapshotted, not part of the cache key),
//! keep the level/ancestor APIs exact at every depth, and confine
//! cancellation to the inner team it was requested in.
//!
//! Each scenario runs on its own freshly-spawned thread: the hot-team
//! cache is per master OS thread, so a dedicated thread starts with an
//! empty cache and exercises the lease-release-on-exit
//! (TLS drop) path as a bonus. Every scenario holds `ICV_LOCK` for its
//! whole duration — several mutate process-global ICVs (wait policy,
//! `dyn-var`, `hot_teams`) and several assert global stats-counter
//! deltas, so scenarios must not interleave.

use romp::runtime::stats::stats;
use romp::runtime::{
    fork, icv, omp_get_active_level, omp_get_ancestor_thread_num, omp_get_level,
    omp_get_num_threads, omp_get_proc_bind, omp_get_schedule, omp_get_team_size,
    omp_set_num_threads, omp_set_schedule, pool, ForkSpec, ProcBind, Schedule, TaskSpec,
    WaitPolicy,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static ICV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` on a dedicated OS thread (its own hot-team cache), holding
/// the suite lock for the whole scenario. The suite is *about* the hot
/// path, so it force-enables it even when the surrounding environment
/// set `ROMP_HOT_TEAMS=0`.
fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
    let _g = ICV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    icv::with_global_mut(|i| i.hot_teams = true);
    std::thread::Builder::new()
        .name("hot-team-test-master".into())
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

/// Fork a team of `n` and assert exact geometry (every thread sees the
/// requested size, all thread numbers distinct).
fn assert_geometry(n: usize) {
    let hits = AtomicUsize::new(0);
    let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    fork(ForkSpec::with_num_threads(n), |ctx| {
        assert_eq!(ctx.num_threads(), n, "team size must be exact");
        assert_eq!(omp_get_num_threads(), n);
        hits.fetch_add(1, Ordering::SeqCst);
        seen.lock().unwrap().push(ctx.thread_num());
    });
    assert_eq!(hits.load(Ordering::SeqCst), n, "one body run per thread");
    let mut tn = seen.into_inner().unwrap();
    tn.sort_unstable();
    assert_eq!(tn, (0..n).collect::<Vec<_>>(), "thread numbers 0..n once");
}

#[test]
fn consecutive_same_shape_regions_hit_the_cache() {
    on_fresh_thread(|| {
        assert_geometry(3); // build
        let before = stats().snapshot();
        for _ in 0..25 {
            assert_geometry(3);
        }
        let d = before.delta(&stats().snapshot());
        // Other test threads can only add hits, never subtract.
        assert!(
            d.hot_team_hits >= 25,
            "same-shape regions must reuse the team (hits: {})",
            d.hot_team_hits
        );
    });
}

#[test]
fn omp_set_num_threads_between_regions_resizes_exactly() {
    on_fresh_thread(|| {
        // Warm a 2-thread team, then steer sizes through the nthreads-var
        // (TLS override — no clause), checking exact geometry each time.
        assert_geometry(2);
        let before = stats().snapshot();
        for &n in &[3usize, 2, 4, 2, 3] {
            omp_set_num_threads(n);
            let sizes = Mutex::new(Vec::new());
            fork(ForkSpec::new(), |ctx| {
                sizes.lock().unwrap().push(ctx.num_threads());
            });
            let sizes = sizes.into_inner().unwrap();
            assert_eq!(sizes.len(), n, "nthreads-var {n} must produce {n} bodies");
            assert!(sizes.iter().all(|&s| s == n));
        }
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_resizes >= 5,
            "five size changes must resize the hot team (resizes: {})",
            d.hot_team_resizes
        );
        // Serialized regions run inline and must NOT evict the lease:
        // n=1 geometry is exact, and the 3-thread team still hits.
        let before = stats().snapshot();
        omp_set_num_threads(1);
        assert_geometry(1);
        omp_set_num_threads(3);
        assert_geometry(3);
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_resizes == 0 || d.hot_team_hits >= 1,
            "a serial region must not thrash the multi-thread lease"
        );
    });
}

#[test]
fn resize_reuses_released_workers_synchronously() {
    on_fresh_thread(|| {
        // Warm both shapes, then alternate. A resize drops the lease and
        // immediately re-acquires: the released workers must be back on
        // the idle list by then (synchronous handback), or every resize
        // would spawn fresh OS threads and creep toward thread-limit-var.
        assert_geometry(4);
        assert_geometry(2);
        let before = stats().snapshot();
        for _ in 0..20 {
            assert_geometry(4);
            assert_geometry(2);
        }
        let d = before.delta(&stats().snapshot());
        assert_eq!(
            d.workers_spawned, 0,
            "alternating shapes must reuse released workers"
        );
    });
}

#[test]
fn geometry_stays_exact_across_alternating_shapes() {
    on_fresh_thread(|| {
        for &n in &[1usize, 4, 2, 4, 1, 3, 4, 2] {
            assert_geometry(n);
        }
    });
}

#[test]
fn wait_policy_change_rebuilds_the_team() {
    on_fresh_thread(|| {
        assert_geometry(2);
        assert_geometry(2); // warmed, hitting
        let before = stats().snapshot();
        // Flip to whichever policy differs from the current one (the
        // suite may run under OMP_WAIT_POLICY=passive already).
        let flipped = if icv::current().wait_policy == WaitPolicy::Passive {
            WaitPolicy::Hybrid
        } else {
            WaitPolicy::Passive
        };
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.wait_policy, flipped));
        assert_geometry(2);
        icv::with_global_mut(|i| i.wait_policy = prev);
        assert_geometry(2);
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_resizes >= 2,
            "wait-policy flips must rebuild (resizes: {})",
            d.hot_team_resizes
        );
    });
}

#[test]
fn omp_dynamic_change_rebuilds_the_team() {
    on_fresh_thread(|| {
        assert_geometry(2);
        let before = stats().snapshot();
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.dynamic, true));
        assert_geometry(2);
        icv::with_global_mut(|i| i.dynamic = prev);
        assert_geometry(2);
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_resizes >= 2,
            "dyn-var flips must rebuild (resizes: {})",
            d.hot_team_resizes
        );
    });
}

#[test]
fn hot_teams_disabled_still_runs_and_releases_the_lease() {
    on_fresh_thread(|| {
        assert_geometry(2); // lease a hot team first
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
        // The next fork drops the lease; every fork then runs on a
        // one-region lease.
        for _ in 0..5 {
            assert_geometry(2);
        }
        icv::with_global_mut(|i| i.hot_teams = prev);
        assert_geometry(2); // re-leases
    });
}

#[test]
fn leases_that_are_not_kept_spawn_nothing_and_leave_the_cache_alone() {
    // A lease that is not kept — hot teams off, or a fork from a final
    // task — runs the same doorbell protocol as a cached one and hands
    // its workers back when the region ends: after warmup neither kind
    // spawns an OS thread, strands a worker or touches the hot-team
    // counters.
    on_fresh_thread(|| {
        let forks_from_final_task = |rounds: usize| {
            // A team of one runs inline, so the final task is the only
            // thing between this thread and the 2-thread forks.
            fork(ForkSpec::with_num_threads(1), |ctx| {
                ctx.task_spec(TaskSpec::new().final_clause(true), || {
                    for _ in 0..rounds {
                        assert_geometry(2);
                    }
                });
            });
        };
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
        assert_geometry(2);
        icv::with_global_mut(|i| i.hot_teams = prev);
        forks_from_final_task(1);
        // Workers released by earlier scenarios' nested leases return
        // asynchronously; start from a quiet pool.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool::idle_workers() != pool::pool_size() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }

        let before = stats().snapshot();
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
        for _ in 0..50 {
            assert_geometry(2);
        }
        icv::with_global_mut(|i| i.hot_teams = prev);
        forks_from_final_task(50);
        let d = before.delta(&stats().snapshot());
        assert!(d.forks >= 100, "{d:?}");
        assert_eq!(d.workers_spawned, 0, "{d:?}");
        assert_eq!(pool::idle_workers(), pool::pool_size());
        assert_eq!(
            (d.hot_team_hits, d.hot_team_misses, d.hot_team_resizes),
            (0, 0, 0),
            "{d:?}"
        );
    });
}

#[test]
fn panic_does_not_poison_the_cached_team() {
    on_fresh_thread(|| {
        // Warm the cache so the panic tears through a *recycled* team.
        assert_geometry(4);
        assert_geometry(4);
        let before = stats().snapshot();
        let r = std::panic::catch_unwind(|| {
            fork(ForkSpec::with_num_threads(4), |ctx| {
                if ctx.thread_num() == 1 {
                    panic!("hot worker exploded");
                }
                // Siblings park at a barrier; the abort must free them.
                ctx.barrier();
            });
        });
        let payload = r.expect_err("panic must propagate to the master");
        assert_eq!(
            payload.downcast_ref::<&str>().copied().unwrap_or(""),
            "hot worker exploded"
        );
        // The next forks from the same master rebuild cleanly and run
        // green with exact geometry — repeatedly.
        for _ in 0..10 {
            assert_geometry(4);
        }
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_misses >= 1,
            "the panic must invalidate the cache (misses: {})",
            d.hot_team_misses
        );
    });
}

#[test]
fn panic_drops_leftover_tasks_before_fork_returns() {
    use std::sync::atomic::AtomicBool;
    // A panicking region can strand never-run tasks (queued or
    // dependence-stalled). Their closures may borrow the caller's stack
    // frame, so the runtime must drop them on the master before `fork`
    // returns — deferring the drop to whichever worker releases the
    // last team reference would run drop glue against a dead frame.
    on_fresh_thread(|| {
        assert_geometry(3); // warm the hot team
        let dropped = AtomicBool::new(false);
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let token = 0u8;
        let r = std::panic::catch_unwind(|| {
            fork(ForkSpec::with_num_threads(3), |ctx| {
                if ctx.thread_num() == 0 {
                    let guard = SetOnDrop(&dropped);
                    ctx.task_spec(romp::runtime::TaskSpec::new().output(&token), || {
                        panic!("producer exploded");
                    });
                    // Stalled behind the panicking producer; captures a
                    // borrow of the enclosing frame through the guard.
                    ctx.task_spec(romp::runtime::TaskSpec::new().input(&token), move || {
                        drop(guard);
                    });
                }
            });
        });
        assert!(r.is_err(), "producer panic must propagate");
        assert!(
            dropped.load(Ordering::SeqCst),
            "stranded task closures must be dropped before fork returns"
        );
        // The runtime stays usable.
        assert_geometry(3);
    });
}

#[test]
fn panic_storm_never_wedges_the_runtime() {
    on_fresh_thread(|| {
        for round in 0..8 {
            let r = std::panic::catch_unwind(|| {
                fork(ForkSpec::with_num_threads(3), |ctx| {
                    if ctx.thread_num() == round % 3 {
                        panic!("boom");
                    }
                });
            });
            assert!(r.is_err());
            assert_geometry(3);
        }
    });
}

/// One per spawned task closure; `Drop` bumps the shared counter
/// whether the closure ran to completion, unwound, or was purged
/// without ever running.
struct DropToken(Arc<AtomicUsize>);
impl Drop for DropToken {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn panicked_hot_join_drops_every_env_borrowing_task_closure() {
    // A worker-side panic aborts the hot join while deferred tasks that
    // borrow the master's stack (`'env`) are still queued. The fork
    // must not return (unwind) to the master until every one of those
    // closures has been destroyed — executed, unwound, or purged — or
    // the borrow it holds would dangle the moment `data` drops below.
    on_fresh_thread(|| {
        for round in 0..6 {
            let dropped = Arc::new(AtomicUsize::new(0));
            let created = AtomicUsize::new(0);
            let data = vec![round; 64]; // the 'env borrow target
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fork(ForkSpec::with_num_threads(4), |ctx| {
                    for _ in 0..8 {
                        let token = DropToken(dropped.clone());
                        created.fetch_add(1, Ordering::SeqCst);
                        let d = &data;
                        ctx.task(move || {
                            assert_eq!(d[0], round);
                            let _keep = &token;
                        });
                    }
                    // A *worker* (never thread 0) panics: the master is
                    // parked in the hot join when the abort lands.
                    if ctx.thread_num() == 1 + (round % 3) {
                        panic!("injected worker-side abort");
                    }
                });
            }));
            assert!(r.is_err(), "round {round}: the panic must propagate");
            assert_eq!(
                dropped.load(Ordering::SeqCst),
                created.load(Ordering::SeqCst),
                "round {round}: every task closure must be dropped before \
                 fork returns (leaked closures still borrow the dead frame)"
            );
            drop(data); // the borrow has provably ended
                        // The same master's next fork delivers a clean team.
            assert_geometry(4);
        }
    });
}

#[test]
fn cancelled_hot_region_is_recycled_not_evicted() {
    // A cancelled region completes normally (cancellation is
    // cooperative, not a panic), so the hot team must survive:
    // `Team::recycle` clears the cancel flags and the next same-shape
    // fork is a hit, reusing the bound workers.
    on_fresh_thread(|| {
        romp::runtime::icv::set_cancellation_override(Some(true));
        assert_geometry(3); // build + verify the lease
        let before = stats().snapshot();
        for round in 0..10 {
            let reached = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(3), |ctx| {
                if ctx.thread_num() == round % 3 {
                    // Leave some never-started tasks behind too: they
                    // must be discarded, not leak into the next region.
                    let r = &reached;
                    ctx.task(move || {
                        let _ = r;
                    });
                    assert!(ctx.cancel(romp::runtime::CancelKind::Parallel));
                } else {
                    // A sibling blocked at a barrier must be released.
                    ctx.barrier();
                }
                reached.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(
                reached.load(Ordering::SeqCst),
                3,
                "round {round}: a thread never reached the region end"
            );
            // The very next fork must deliver a clean, exact team.
            assert_geometry(3);
        }
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_hits >= 20,
            "cancelled regions must recycle the hot team, not tear it down \
             (hits: {}, misses: {}, resizes: {})",
            d.hot_team_hits,
            d.hot_team_misses,
            d.hot_team_resizes
        );
        assert_eq!(
            d.workers_spawned, 0,
            "cancellation must not strand or respawn workers"
        );
        romp::runtime::icv::set_cancellation_override(None);
    });
}

#[test]
fn cancelled_uncached_region_leaves_the_pool_sane() {
    // Same stress with hot teams off (the CI matrix also runs this
    // whole file under OMP_WAIT_POLICY=passive and ROMP_HOT_TEAMS=0):
    // a cancelled region on a one-region lease must return every
    // worker to the pool.
    on_fresh_thread(|| {
        romp::runtime::icv::set_cancellation_override(Some(true));
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
        for round in 0..6 {
            let reached = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(3), |ctx| {
                if ctx.thread_num() == round % 3 {
                    assert!(ctx.cancel(romp::runtime::CancelKind::Parallel));
                } else {
                    ctx.barrier();
                }
                reached.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(reached.load(Ordering::SeqCst), 3, "round {round}");
            assert_geometry(3);
        }
        icv::with_global_mut(|i| i.hot_teams = prev);
        romp::runtime::icv::set_cancellation_override(None);
    });
}

#[test]
fn recycled_team_retakes_the_run_sched_snapshot() {
    on_fresh_thread(|| {
        omp_set_schedule(Schedule::dynamic_chunk(3));
        fork(ForkSpec::with_num_threads(2), |_| {
            assert_eq!(omp_get_schedule(), Schedule::Dynamic { chunk: 3 });
        });
        // Same shape → recycled team; the snapshot must still move.
        omp_set_schedule(Schedule::guided_chunk(2));
        fork(ForkSpec::with_num_threads(2), |_| {
            assert_eq!(omp_get_schedule(), Schedule::Guided { chunk: 2 });
        });
    });
}

// ---------------------------------------------------------------------------
// Hierarchical cache: nested forks, placement, level APIs, cancellation.
// ---------------------------------------------------------------------------

/// A synthetic four-place list (`{0},{1},{2},{3}`). Partition geometry
/// is computed from the list alone, so these tests stay exact even on a
/// one-CPU container where binding to CPUs 1–3 degrades gracefully.
fn four_places() -> Arc<Vec<Vec<usize>>> {
    Arc::new((0..4).map(|c| vec![c]).collect())
}

#[test]
fn hot_reuse_survives_proc_bind_change() {
    // Placement is deliberately NOT part of the hot-team cache key: the
    // fork snapshot (and with it the place partition) is rewritten on
    // every recycle. A bind change between same-shape regions must
    // therefore still hit, while the *reported* bind and the partition
    // each thread inherits move to the new policy.
    on_fresh_thread(|| {
        let prev_p = icv::set_places_override(Some(four_places()));
        let prev_b = icv::set_proc_bind_override(Some(vec![ProcBind::Spread]));
        fork(ForkSpec::with_num_threads(2), |ctx| {
            assert_eq!(omp_get_proc_bind(), ProcBind::Spread);
            // Spread splits the four places into disjoint halves.
            let want = if ctx.thread_num() == 0 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            assert_eq!(ctx.place_partition(), want);
        });
        let before = stats().snapshot();
        icv::set_proc_bind_override(Some(vec![ProcBind::Close]));
        fork(ForkSpec::with_num_threads(2), |ctx| {
            assert_eq!(omp_get_proc_bind(), ProcBind::Close);
            // Close keeps the master's whole partition for everyone and
            // packs threads onto consecutive places.
            assert_eq!(ctx.place_partition(), vec![0, 1, 2, 3]);
            assert_eq!(ctx.place_num(), Some(ctx.thread_num()));
        });
        let d = before.delta(&stats().snapshot());
        assert!(
            d.hot_team_hits >= 1,
            "a bind change must not evict the lease (hits: {}, misses: {})",
            d.hot_team_hits,
            d.hot_team_misses
        );
        assert_eq!(
            d.workers_spawned, 0,
            "re-pinning must reuse the bound workers"
        );
        icv::set_proc_bind_override(prev_b);
        icv::set_places_override(prev_p);
    });
}

#[test]
fn spread_team_workers_inherit_disjoint_place_partitions() {
    on_fresh_thread(|| {
        let prev_p = icv::set_places_override(Some(four_places()));
        let prev_b = icv::set_proc_bind_override(Some(vec![ProcBind::Spread]));
        let parts: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        fork(ForkSpec::with_num_threads(2), |ctx| {
            parts.lock().unwrap().push(ctx.place_partition());
        });
        let parts = parts.into_inner().unwrap();
        assert_eq!(parts.len(), 2);
        assert!(
            parts.iter().all(|p| p.len() == 2),
            "balanced halves: {parts:?}"
        );
        // Covering every place exactly once == disjoint + complete.
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            vec![0, 1, 2, 3],
            "partitions must tile the place list: {parts:?}"
        );
        icv::set_proc_bind_override(prev_b);
        icv::set_places_override(prev_p);
    });
}

/// Run a 2×2 nest `rounds` times, asserting exact inner geometry.
fn run_2x2_nest(rounds: usize) {
    for _ in 0..rounds {
        let inner_bodies = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(2), |_| {
            fork(ForkSpec::with_num_threads(2), |ctx| {
                assert_eq!(ctx.num_threads(), 2);
                assert_eq!(omp_get_level(), 2);
                assert_eq!(omp_get_active_level(), 2);
                inner_bodies.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(
            inner_bodies.load(Ordering::SeqCst),
            4,
            "2 teams x 2 threads"
        );
    }
}

#[test]
fn warmed_nested_forks_spawn_no_new_threads() {
    // The headline property of the hierarchical cache: once the team
    // *tree* is warm (outer team + one sub-team per outer thread), a
    // 2×2 nested fork touches no OS thread creation at all — every
    // inner fork is answered from the forking thread's own lease.
    on_fresh_thread(|| {
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.max_active_levels, 2));
        run_2x2_nest(3); // warm the whole tree
        let before = stats().snapshot();
        run_2x2_nest(20);
        let d = before.delta(&stats().snapshot());
        icv::with_global_mut(|i| i.max_active_levels = prev);
        assert_eq!(
            d.workers_spawned, 0,
            "warmed nested forks must spawn zero OS threads"
        );
        assert!(
            d.hot_team_nested_hits >= 40,
            "every inner fork (2 per round) must be served from the lease tree \
             (nested hits: {}, nested misses: {})",
            d.hot_team_nested_hits,
            d.hot_team_nested_misses
        );
    });
}

/// Walk a 2×2 nest (plus one serialized level-3 fork) asserting the
/// level/ancestor/team-size APIs return exact values at every depth.
/// Requires `max-active-levels >= 2`.
fn assert_level_apis_through_a_2x2_nest() {
    assert_eq!(omp_get_level(), 0);
    assert_eq!(omp_get_active_level(), 0);
    assert_eq!(omp_get_ancestor_thread_num(0), Some(0));
    assert_eq!(omp_get_team_size(0), Some(1));
    assert_eq!(omp_get_ancestor_thread_num(1), None);
    fork(ForkSpec::with_num_threads(2), |octx| {
        let outer_tn = octx.thread_num();
        assert_eq!(omp_get_level(), 1);
        assert_eq!(omp_get_active_level(), 1);
        assert_eq!(omp_get_ancestor_thread_num(0), Some(0));
        assert_eq!(omp_get_ancestor_thread_num(1), Some(outer_tn));
        assert_eq!(omp_get_ancestor_thread_num(2), None);
        assert_eq!(omp_get_team_size(0), Some(1));
        assert_eq!(omp_get_team_size(1), Some(2));
        assert_eq!(omp_get_team_size(2), None);
        fork(ForkSpec::with_num_threads(2), |ictx| {
            let inner_tn = ictx.thread_num();
            assert_eq!(omp_get_level(), 2);
            assert_eq!(omp_get_active_level(), 2);
            assert_eq!(omp_get_ancestor_thread_num(0), Some(0));
            assert_eq!(omp_get_ancestor_thread_num(1), Some(outer_tn));
            assert_eq!(omp_get_ancestor_thread_num(2), Some(inner_tn));
            assert_eq!(omp_get_ancestor_thread_num(3), None);
            assert_eq!(omp_get_team_size(1), Some(2));
            assert_eq!(omp_get_team_size(2), Some(2));
            // One level past max-active-levels: the fork serializes
            // (team of one) but still nests — the level counter moves,
            // the active-level counter does not.
            fork(ForkSpec::with_num_threads(2), |sctx| {
                assert_eq!(sctx.num_threads(), 1);
                assert_eq!(omp_get_level(), 3);
                assert_eq!(omp_get_active_level(), 2);
                assert_eq!(omp_get_ancestor_thread_num(1), Some(outer_tn));
                assert_eq!(omp_get_ancestor_thread_num(2), Some(inner_tn));
                assert_eq!(omp_get_ancestor_thread_num(3), Some(0));
                assert_eq!(omp_get_team_size(3), Some(1));
            });
        });
    });
}

#[test]
fn level_apis_are_exact_on_the_nested_hot_path() {
    on_fresh_thread(|| {
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.max_active_levels, 2));
        // Twice: the first walk builds the team tree, the second
        // runs entirely on recycled leases — the hit path re-derives
        // nothing, so its geometry must be just as exact.
        assert_level_apis_through_a_2x2_nest();
        assert_level_apis_through_a_2x2_nest();
        icv::with_global_mut(|i| i.max_active_levels = prev);
    });
}

#[test]
fn level_apis_are_exact_with_hot_teams_disabled() {
    on_fresh_thread(|| {
        let (prev_hot, prev_mal) = icv::with_global_mut(|i| {
            (
                std::mem::replace(&mut i.hot_teams, false),
                std::mem::replace(&mut i.max_active_levels, 2),
            )
        });
        assert_level_apis_through_a_2x2_nest();
        assert_level_apis_through_a_2x2_nest();
        icv::with_global_mut(|i| {
            i.hot_teams = prev_hot;
            i.max_active_levels = prev_mal;
        });
    });
}

#[test]
fn inner_cancel_does_not_poison_the_outer_team() {
    // `cancel parallel` is scoped to the innermost region: the inner
    // team winds down early, but the *outer* region's barrier and the
    // whole lease tree must come through unscathed — cancellation is
    // cooperative completion, not a panic.
    on_fresh_thread(|| {
        let (prev_mal, prev_cancel) = icv::with_global_mut(|i| {
            (
                std::mem::replace(&mut i.max_active_levels, 2),
                std::mem::replace(&mut i.cancellation, true),
            )
        });
        run_2x2_nest(2); // warm the tree
        let before = stats().snapshot();
        for round in 0..8 {
            let inner_done = AtomicUsize::new(0);
            let outer_done = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(2), |octx| {
                fork(ForkSpec::with_num_threads(2), |ictx| {
                    if ictx.thread_num() == round % 2 {
                        assert!(ictx.cancel(romp::runtime::CancelKind::Parallel));
                    } else {
                        // Blocked at the inner barrier; the cancel must
                        // release it without touching the outer team.
                        ictx.barrier();
                    }
                    inner_done.fetch_add(1, Ordering::SeqCst);
                });
                octx.barrier();
                outer_done.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(inner_done.load(Ordering::SeqCst), 4, "round {round}");
            assert_eq!(outer_done.load(Ordering::SeqCst), 2, "round {round}");
        }
        let d = before.delta(&stats().snapshot());
        icv::with_global_mut(|i| {
            i.max_active_levels = prev_mal;
            i.cancellation = prev_cancel;
        });
        assert_eq!(
            d.workers_spawned, 0,
            "cancelled inner regions must recycle their sub-teams"
        );
    });
}

#[test]
fn nested_dependence_tasks_drain_before_inner_join() {
    // Dependence-ordered tasks spawned at level 2 must run in order and
    // be fully drained by the *inner* join — the outer region observes
    // the completed chain immediately after the inner fork returns.
    on_fresh_thread(|| {
        let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.max_active_levels, 2));
        for _ in 0..4 {
            let chains = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(2), |_| {
                let stamp = AtomicUsize::new(0);
                let token = 0u8;
                fork(ForkSpec::with_num_threads(2), |ictx| {
                    if ictx.thread_num() == 0 {
                        let s = &stamp;
                        ictx.task_spec(romp::runtime::TaskSpec::new().output(&token), move || {
                            s.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                                .expect("producer must run first");
                        });
                        ictx.task_spec(romp::runtime::TaskSpec::new().input(&token), move || {
                            s.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                                .expect("consumer must run after the producer");
                        });
                    }
                });
                assert_eq!(
                    stamp.load(Ordering::SeqCst),
                    2,
                    "the inner join must have drained the dependence chain"
                );
                chains.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(chains.load(Ordering::SeqCst), 2);
        }
        icv::with_global_mut(|i| i.max_active_levels = prev);
    });
}

#[test]
fn worksharing_state_is_clean_after_recycle() {
    on_fresh_thread(|| {
        // Drive constructs that dirty every recycled subsystem — slots
        // (dynamic loop + single), reduction cells, task deques — then
        // run the exact same region again on the recycled team and
        // check the results are identical.
        for round in 0..6 {
            let sum = AtomicUsize::new(0);
            let singles = AtomicUsize::new(0);
            let tasks = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(4), |ctx| {
                ctx.ws_for(0..100, Schedule::dynamic_chunk(7), false, |i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
                if ctx.single(false, || ()).is_some() {
                    singles.fetch_add(1, Ordering::Relaxed);
                }
                let r = ctx.reduce_value(romp::runtime::SumOp, 1usize);
                assert_eq!(r, 4);
                ctx.task(|| {
                    tasks.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950, "round {round}");
            assert_eq!(singles.load(Ordering::Relaxed), 1, "round {round}");
            assert_eq!(tasks.load(Ordering::Relaxed), 4, "round {round}");
        }
    });
}
