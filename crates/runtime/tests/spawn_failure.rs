//! Regression tests for worker-spawn failure on the fork path.
//!
//! `Pool::acquire` takes an atomic thread-limit reservation *before*
//! spawning each worker. Historically a failed
//! `std::thread::Builder::spawn` panicked the whole process through an
//! `expect` — with the reservation still held, so even a caught panic
//! would have permanently shrunk the effective thread limit. The fixed
//! path rolls the reservation back and degrades the fork to a **short
//! team**, which the spec explicitly permits (a team may be delivered
//! with fewer threads than requested).
//!
//! The failure injection (`pool::inject_spawn_failures`) is scoped to
//! the *arming thread*: spawns happen on the forking master's thread
//! inside `Pool::acquire`, so a counter armed here can never be
//! consumed by an unrelated test running concurrently on another
//! thread (that leak was a real bug — see
//! `injection_is_scoped_to_the_arming_thread`). The tests still
//! serialize on `INJECT_LOCK` because they mutate global ICVs
//! (`hot_teams`, `thread_limit`) and compare process-wide stats
//! deltas. Every fork runs on a freshly-spawned master thread so no
//! hot-team lease outlives a test on a harness thread.

use romp_runtime::stats::stats;
use romp_runtime::{fork, icv, pool, ForkSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static INJECT_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` on a dedicated master thread under the injection lock.
fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
    let _g = INJECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::Builder::new()
        .name("spawn-failure-test-master".into())
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn spawn_failure_degrades_to_short_team_instead_of_panicking() {
    on_fresh_thread(|| {
        // Leases that are not kept: every fork goes through Pool::acquire.
        icv::with_global_mut(|i| i.hot_teams = false);
        // Warm nothing: inject enough failures to cover every spawn the
        // fork below could attempt. The fork must still complete — on
        // the pre-fix code the first failed spawn aborts the process.
        let before = stats().snapshot();
        pool::inject_spawn_failures(64);
        let ran = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(4), |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        // Reset this thread's unconsumed injections (idle workers from
        // earlier tests' pools may have satisfied part of the fork).
        pool::inject_spawn_failures(0);
        let d = before.delta(&stats().snapshot());
        let delivered = ran.load(Ordering::SeqCst);
        assert!(
            (1..=4).contains(&delivered),
            "short team must still run the region: {delivered}"
        );
        // If any spawn was actually attempted, the failure counter must
        // have moved (the injection fires before the real spawn).
        if delivered < 4 {
            assert!(
                d.worker_spawn_failures >= 1,
                "a short delivery implies a recorded spawn failure: {d:?}"
            );
        }
        icv::with_global_mut(|i| i.hot_teams = true);
    });
}

#[test]
fn spawn_failure_rolls_back_the_thread_limit_reservation() {
    on_fresh_thread(|| {
        icv::with_global_mut(|i| i.hot_teams = false);
        // Tight limit: master + 3 workers. With the pool warm at 0-3
        // workers this forces real accounting traffic on every fork.
        let prev_limit = icv::with_global_mut(|i| std::mem::replace(&mut i.thread_limit, 4));

        // Phase 1: every spawn fails. Whatever the fork delivers, each
        // failed spawn must roll its reservation back: `pool_size()`
        // (the reservation counter) must not exceed the number of
        // workers that actually exist, i.e. it must not creep toward
        // the cap on repeated attempts.
        pool::inject_spawn_failures(1000);
        let fails_before = stats().snapshot().worker_spawn_failures;
        let size_before = pool::pool_size();
        for _ in 0..10 {
            fork(ForkSpec::with_num_threads(4), |_| {});
        }
        pool::inject_spawn_failures(0);
        let fails_after = stats().snapshot().worker_spawn_failures;
        assert_eq!(
            pool::pool_size(),
            size_before,
            "failed spawns must not leak thread-limit reservations"
        );

        // Phase 2: with injection off, the limit headroom rolled back
        // in phase 1 must be usable — a fork can now grow the pool to
        // the full cap and deliver a full team. A leaked reservation
        // would permanently cap delivery below 4.
        let geometry = std::sync::Arc::new(AtomicUsize::new(0));
        let g = geometry.clone();
        fork(ForkSpec::with_num_threads(4), move |ctx| {
            g.fetch_max(ctx.num_threads(), Ordering::SeqCst);
        });
        assert_eq!(
            geometry.load(Ordering::SeqCst),
            4,
            "post-failure forks must reach the full thread limit again \
             (injected failures recorded: {})",
            fails_after - fails_before
        );

        icv::with_global_mut(|i| {
            i.thread_limit = prev_limit;
            i.hot_teams = true;
        });
    });
}

#[test]
fn injection_is_scoped_to_the_arming_thread() {
    let _g = INJECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Thread A arms a huge failure budget and exits without forking.
    // With the old process-global counter those 1000 pending failures
    // would poison every later fork in the process; with the
    // thread-local counter they die with A.
    std::thread::Builder::new()
        .name("spawn-failure-armer".into())
        .spawn(|| pool::inject_spawn_failures(1000))
        .unwrap()
        .join()
        .unwrap();
    // Thread B, a different master, must be unaffected: a fork wide
    // enough to need fresh spawns records zero spawn failures and
    // delivers its full team.
    std::thread::Builder::new()
        .name("spawn-failure-bystander".into())
        .spawn(|| {
            icv::with_global_mut(|i| i.hot_teams = false);
            let before = stats().snapshot();
            let geometry = std::sync::Arc::new(AtomicUsize::new(0));
            let g = geometry.clone();
            fork(ForkSpec::with_num_threads(16), move |ctx| {
                g.fetch_max(ctx.num_threads(), Ordering::SeqCst);
            });
            let d = before.delta(&stats().snapshot());
            assert_eq!(
                d.worker_spawn_failures, 0,
                "another thread's armed injections must not fire here"
            );
            assert_eq!(
                geometry.load(Ordering::SeqCst),
                16,
                "the bystander's fork must deliver its full team"
            );
            icv::with_global_mut(|i| i.hot_teams = true);
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn spawn_failure_midway_keeps_the_workers_already_acquired() {
    on_fresh_thread(|| {
        icv::with_global_mut(|i| i.hot_teams = false);
        // Warm the pool with at least one idle worker, then make all
        // *new* spawns fail: the next bigger fork must deliver the
        // pooled workers it did get (size ≥ 2), not collapse to one.
        fork(ForkSpec::with_num_threads(2), |_| {});
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool::idle_workers() < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool::inject_spawn_failures(1000);
        let geometry = std::sync::Arc::new(AtomicUsize::new(0));
        let g = geometry.clone();
        fork(ForkSpec::with_num_threads(8), move |ctx| {
            g.fetch_max(ctx.num_threads(), Ordering::SeqCst);
        });
        pool::inject_spawn_failures(0);
        let n = geometry.load(Ordering::SeqCst);
        assert!(
            n >= 2,
            "the workers acquired before the failed spawn must be kept: {n}"
        );
        icv::with_global_mut(|i| i.hot_teams = true);
    });
}
