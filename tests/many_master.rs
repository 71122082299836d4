//! Many-master stress suite: M OS threads forking concurrently.
//!
//! The sharded worker pool (`romp_runtime::pool`) exists for exactly
//! this shape of load — many concurrent masters, each forking small
//! parallel regions — so this suite drives it from M independent OS
//! threads doing one-region leases, hot-team forks and resize churn at the
//! same time, and pins the invariants that are easy to break under
//! concurrency:
//!
//! * **Sane geometry** — every delivered team reports one consistent
//!   `num_threads` in `1..=requested`, and each member runs exactly
//!   once with a distinct `thread_num`.
//! * **Thread-limit accounting** — `pool_size()` (the atomic
//!   reservation counter) never exceeds `thread-limit-var − 1`, even
//!   while many masters race reservations.
//! * **No stranded workers** — once every master has exited (leases
//!   dropped), every worker the pool ever
//!   created is findable on some shard's idle list: `idle_workers()`
//!   converges to `pool_size()`. A worker lost to a mis-homed release
//!   or a consumed-but-never-honored wake would hang this forever.
//!
//! Discipline: every fork happens on a freshly-spawned master thread,
//! never on a test-harness thread — harness threads outlive the test,
//! so a hot-team lease parked on one would hold workers out of the
//! idle list and fail the convergence check spuriously. Tests that
//! flip process-global ICVs serialize on `ICV_LOCK` and restore the
//! previous value. CI runs this suite under `ROMP_HOT_TEAMS=0/1` and
//! `OMP_WAIT_POLICY=passive`; the assertions hold in every regime.

use romp::runtime::stats::stats;
use romp::runtime::{fork, icv, pool, ForkSpec};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

static ICV_LOCK: Mutex<()> = Mutex::new(());

/// One master's region: fork `want` threads, assert geometry.
fn checked_fork(want: usize) {
    let seen = Mutex::new(HashSet::new());
    let team_size = AtomicUsize::new(0);
    fork(ForkSpec::with_num_threads(want), |ctx| {
        let n = ctx.num_threads();
        assert!(
            (1..=want).contains(&n),
            "delivered size {n} vs requested {want}"
        );
        assert!(ctx.thread_num() < n, "thread_num out of range");
        let prev = team_size.swap(n, Ordering::SeqCst);
        assert!(
            prev == 0 || prev == n,
            "members disagree on team size: {prev} vs {n}"
        );
        assert!(
            seen.lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(ctx.thread_num()),
            "duplicate thread_num {}",
            ctx.thread_num()
        );
    });
    let n = team_size.load(Ordering::SeqCst);
    let members = seen.into_inner().unwrap_or_else(|e| e.into_inner()).len();
    assert_eq!(members, n, "every member must run exactly once");
}

/// Wait until every pool worker is back on an idle list. Generous
/// deadline: concurrently-running tests in this binary may still hold
/// workers mid-fork, but all of them terminate well within it.
fn assert_no_stranded_workers() {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let total = pool::pool_size();
        let idle = pool::idle_workers();
        if idle == total {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "stranded workers: {idle} idle of {total} alive (shards: {:?})",
            pool::shard_counters()
        );
        std::thread::yield_now();
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn many_masters_mixed_churn_geometry_and_no_strand() {
    const MASTERS: usize = 6;
    const ROUNDS: usize = 30;
    let gate = Arc::new(Barrier::new(MASTERS));
    let handles: Vec<_> = (0..MASTERS)
        .map(|m| {
            let gate = gate.clone();
            std::thread::Builder::new()
                .name(format!("mm-churn-{m}"))
                .spawn(move || {
                    gate.wait();
                    for r in 0..ROUNDS {
                        // Cycle the requested shape so the hot path sees
                        // resize churn (re-acquire from the pool every
                        // round) and one-region leases see plain churn.
                        let want = 2 + (r + m) % 3;
                        checked_fork(want);
                        if r % 10 == 9 {
                            // A nested fork mid-churn must respect
                            // max-active-levels without disturbing the
                            // pool accounting: serialized at the
                            // default of 1; genuinely parallel when CI
                            // pins OMP_MAX_ACTIVE_LEVELS=2 (delivery
                            // may still be short under pool pressure).
                            let mal = icv::current().max_active_levels;
                            fork(ForkSpec::with_num_threads(2), |_| {
                                fork(ForkSpec::with_num_threads(2), |inner| {
                                    if mal <= 1 {
                                        assert_eq!(inner.num_threads(), 1);
                                    } else {
                                        assert!(inner.num_threads() <= 2);
                                    }
                                });
                            });
                        }
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_no_stranded_workers();
}

#[test]
fn many_masters_lease_storm_respects_thread_limit() {
    let _g = ICV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
    let limit = icv::current().thread_limit;

    const MASTERS: usize = 8;
    const ROUNDS: usize = 40;
    let stop = Arc::new(AtomicBool::new(false));
    // A sampler races the storm, asserting the reservation counter
    // never exceeds the worker cap even transiently (a rollback bug or
    // a double-count would show up here).
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut max_seen = 0;
            while !stop.load(Ordering::Acquire) {
                max_seen = max_seen.max(pool::pool_size());
                std::thread::yield_now();
            }
            max_seen
        })
    };
    let before = stats().snapshot();
    let gate = Arc::new(Barrier::new(MASTERS));
    let handles: Vec<_> = (0..MASTERS)
        .map(|m| {
            let gate = gate.clone();
            std::thread::Builder::new()
                .name(format!("mm-lease-{m}"))
                .spawn(move || {
                    gate.wait();
                    for r in 0..ROUNDS {
                        checked_fork(2 + (r + m) % 3);
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let max_alive = sampler.join().unwrap();
    assert!(
        max_alive <= limit.saturating_sub(1),
        "pool grew past the thread limit: {max_alive} workers vs limit {limit}"
    );
    let d = before.delta(&stats().snapshot());
    // 320 one-region leases must overwhelmingly reuse pooled workers, not
    // spawn fresh ones; local + stolen acquires prove the sharded free
    // lists circulated them.
    assert!(
        d.pool_acquires_local + d.pool_acquires_stolen >= (MASTERS * ROUNDS) as u64 / 4,
        "lease storm barely reused the pool: {d:?}"
    );
    icv::with_global_mut(|i| i.hot_teams = prev);
    assert_no_stranded_workers();
}

#[test]
fn many_masters_hot_teams_stay_independent() {
    let _g = ICV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, true));

    const MASTERS: usize = 4;
    const ROUNDS: usize = 25;
    let before = stats().snapshot();
    let gate = Arc::new(Barrier::new(MASTERS));
    let handles: Vec<_> = (0..MASTERS)
        .map(|m| {
            let gate = gate.clone();
            std::thread::Builder::new()
                .name(format!("mm-hot-{m}"))
                .spawn(move || {
                    gate.wait();
                    // Same shape every round: after the first build,
                    // every fork from this master must hit its own
                    // cached team — per-master caches never interfere,
                    // whichever shard their workers came from.
                    for _ in 0..ROUNDS {
                        checked_fork(2);
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let d = before.delta(&stats().snapshot());
    assert!(
        d.hot_team_hits >= (MASTERS * (ROUNDS - 1)) as u64,
        "concurrent masters should each hit their own hot team: {d:?}"
    );
    icv::with_global_mut(|i| i.hot_teams = prev);
    assert_no_stranded_workers();
}

#[test]
fn many_masters_oversized_requests_are_clamped_not_leaked() {
    // Masters ask for far more threads than the box has; deliveries may
    // be short (spec-legal) but accounting must stay exact and workers
    // must all come home.
    const MASTERS: usize = 4;
    let limit = icv::current().thread_limit;
    let gate = Arc::new(Barrier::new(MASTERS));
    let handles: Vec<_> = (0..MASTERS)
        .map(|m| {
            let gate = gate.clone();
            std::thread::Builder::new()
                .name(format!("mm-big-{m}"))
                .spawn(move || {
                    gate.wait();
                    for _ in 0..5 {
                        checked_fork(16);
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(pool::pool_size() <= limit.saturating_sub(1));
    assert_no_stranded_workers();
}
