//! Chaos soak: seeded fault injection across the runtime's decision
//! edges (see `romp_runtime::chaos` for the injection layer itself).
//!
//! The soak arms a randomized [`ChaosPlan`] per iteration and drives a
//! mixed workload — fork/join churn, dependence-graph task storms,
//! `sections`, ordered and guided loops with `cancel-var` armed,
//! in-region KACZ sweeps over CSR and SELL-C-σ on `dynamic,1`, CARP-CG
//! with the convergence-cancel path armed — then asserts the runtime
//! came back whole:
//!
//! * **No stranded workers**: the pool quiesces to
//!   `idle_workers() == pool_size()` once the iteration's master thread
//!   is gone.
//! * **No leaked tasks**: the task ledger closes —
//!   `spawned == executed + discarded + purged` over the iteration.
//! * **Hot-team leases recycle/evict cleanly** and every post-fault
//!   fork delivers a spec-legal team (exact geometry, distinct thread
//!   numbers).
//!
//! A failing or wedged iteration prints a replayable
//! `ROMP_CHAOS_SEED=<n>` line; exporting that variable re-runs exactly
//! that plan first. `ROMP_CHAOS_ITERS` bounds the iteration count
//! (default 200) so CI stays within budget.
//!
//! The deterministic tests at the bottom pin one regression per fault
//! class with probability-1.0 single-rule plans: panic-in-chunk,
//! cancel-at-barrier, delayed-doorbell, spawn-failure-mid-acquire.

#![cfg(feature = "chaos")]

use romp::runtime::chaos::{self, ChaosPlan, Fault, Site};
use romp::runtime::stats::stats;
use romp::runtime::{fork, icv, pool, ForkSpec, Schedule, TaskDeps};
use romp_core::slice::SharedSlice;
use romp_sparse::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Arming chaos is process-global, and every scenario below reads
/// stats deltas and/or mutates global ICVs — scenarios must not
/// interleave within this binary.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Wait for every pool worker to return to the idle set. Returns
/// `false` on timeout — a stranded worker (or leaked reservation).
fn quiesce(timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while pool::idle_workers() != pool::pool_size() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// [`assert_geometry`] on a throwaway master thread: with hot teams on,
/// a fork leases workers to the forking thread until it exits, so a
/// geometry probe from a long-lived thread would itself strand workers
/// from [`quiesce`]'s point of view.
fn assert_geometry_fresh(n: usize) {
    std::thread::Builder::new()
        .name("chaos-geometry-probe".into())
        .spawn(move || assert_geometry(n))
        .unwrap()
        .join()
        .unwrap();
}

/// Fork a team of `n` with chaos disarmed and assert exact, spec-legal
/// geometry: the post-fault "runtime still delivers real teams" check.
fn assert_geometry(n: usize) {
    let hits = AtomicUsize::new(0);
    let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    fork(ForkSpec::with_num_threads(n), |ctx| {
        assert_eq!(ctx.num_threads(), n, "team size must be exact");
        hits.fetch_add(1, Ordering::SeqCst);
        seen.lock().unwrap().push(ctx.thread_num());
    });
    assert_eq!(hits.load(Ordering::SeqCst), n, "one body run per thread");
    let mut tn = seen.into_inner().unwrap();
    tn.sort_unstable();
    assert_eq!(tn, (0..n).collect::<Vec<_>>(), "thread numbers 0..n once");
}

// ---------------------------------------------------------------------
// The seeded soak
// ---------------------------------------------------------------------

/// Immutable sparse fixture shared by every soak iteration.
struct Fixture {
    mat: Csr,
    coloring: Coloring,
    sell: ColoredSell,
    norms: Vec<f64>,
    b: Vec<f64>,
}

impl Fixture {
    fn build() -> Self {
        let mat = matgen::random_sparse(96, 4, 20_240_808);
        let coloring = greedy_multicolor(&mat);
        let sell = ColoredSell::build(&mat, &coloring, 4, 8);
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        Fixture {
            mat,
            coloring,
            sell,
            norms,
            b,
        }
    }
}

/// Team width for the chaos workloads: honors the CI matrix's
/// `OMP_NUM_THREADS` (1 and 4 legs) when set, capped so
/// oversubscription noise does not blow the per-iteration deadline.
/// Unset, it pins 4 regardless of core count — an oversubscribed team
/// interleaves *more* adversarially, which is the point here.
fn soak_threads() -> usize {
    if std::env::var_os("OMP_NUM_THREADS").is_some() {
        romp::runtime::omp_get_max_threads().clamp(1, 4)
    } else {
        4
    }
}

/// Fork/join churn: short regions of varying shape with a mid-region
/// barrier. Injected panics unwind out of `fork` and are swallowed
/// here; the post-iteration invariants judge the wreckage.
fn churn_workload(salt: u64, threads: usize) {
    for round in 0..6u64 {
        let n = 1 + ((salt + round) as usize % threads.max(2));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            fork(ForkSpec::with_num_threads(n), |ctx| {
                std::hint::black_box(ctx.thread_num());
                ctx.barrier();
            });
        }));
    }
}

/// Dependence-graph storm: serial `inout` chains plus untracked tasks,
/// left for the implicit region-end barrier (or an abort purge) to
/// retire. Counts are *not* asserted here — under injected panics the
/// runtime may legally purge the tail; the ledger invariant checks
/// that every spawned closure is accounted for.
fn task_graph_workload(threads: usize) {
    let hits = AtomicU64::new(0);
    let token = 0u8;
    let (hits, token) = (&hits, &token);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            if ctx.thread_num() == 0 {
                for _ in 0..24 {
                    ctx.task_depend(TaskDeps::new().inout(token), move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            for _ in 0..8 {
                ctx.task(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }));
}

/// Every construct the runtime's one chunk-claim loop serves, with
/// `cancel-var` armed so injected `ChunkGrab` panics and cancels reach
/// each of them: a `sections`, an ordered `dynamic,3` loop and a guided
/// loop in one region. Results are unchecked: an injected cancel
/// legally truncates any of them.
fn worksharing_workload(threads: usize) {
    let armed = icv::set_local(|i| i.cancellation = true);
    let hits = AtomicU64::new(0);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            ctx.sections(5, false, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            ctx.ws_for_ordered(0..48, Schedule::dynamic_chunk(3), false, |i, ord| {
                if i % 2 == 0 {
                    ord.section(|| hits.fetch_add(1, Ordering::Relaxed));
                }
            });
            ctx.ws_for(0..256, Schedule::guided(), false, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
    }));
    drop(armed);
}

/// One in-region KACZ sweep per format — CSR row groups and the
/// lockstep SELL tiles, the path CARP-CG runs — on `dynamic,1`
/// (maximum chunk-grab traffic). Results are unchecked: an injected
/// cancel legally truncates a sweep.
fn kacz_workload(fx: &Fixture, threads: usize) {
    let csr = SweepMat::Csr {
        mat: &fx.mat,
        coloring: &fx.coloring,
    };
    for op in [csr, SweepMat::Sell(&fx.sell)] {
        let mut x = vec![0.0; fx.mat.n];
        let view = SharedSlice::new(&mut x);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                op.sweep_ctx(
                    ctx,
                    &fx.norms,
                    &view,
                    &fx.b,
                    1.0,
                    Direction::Forward,
                    Schedule::dynamic_chunk(1),
                );
            });
        }));
    }
}

/// A few CARP-CG iterations with `cancel-var` armed, so injected
/// `CancelCheck` faults exercise the real cancellation machinery the
/// solver's convergence exit uses.
fn carp_workload(fx: &Fixture, threads: usize) {
    let armed = icv::set_local(|i| i.cancellation = true);
    let op = SweepMat::Csr {
        mat: &fx.mat,
        coloring: &fx.coloring,
    };
    let opts = CarpOptions {
        threads,
        max_iters: 30,
        ..Default::default()
    };
    let _ = catch_unwind(AssertUnwindSafe(|| {
        std::hint::black_box(carp_cg(&op, &fx.norms, &fx.b, &opts));
    }));
    drop(armed);
}

/// Run one seeded iteration: arm, drive the mixed workload on a fresh
/// master thread (its exit also exercises lease release), then check
/// the convergence invariants. Any failure names the seed.
fn soak_iteration(fx: &Arc<Fixture>, seed: u64, deadline: Duration) {
    let before = stats().snapshot();
    let guard = chaos::arm(ChaosPlan::from_seed(seed));

    let fx2 = fx.clone();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("chaos-soak-{seed:#x}"))
        .spawn(move || {
            let threads = soak_threads();
            churn_workload(seed, threads);
            task_graph_workload(threads);
            worksharing_workload(threads);
            kacz_workload(&fx2, threads);
            carp_workload(&fx2, threads);
            churn_workload(seed ^ 0xFF, threads);
            tx.send(()).ok();
        })
        .unwrap();
    match rx.recv_timeout(deadline) {
        Ok(()) => worker.join().expect("soak master signalled then died"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The master thread itself panicked (the workloads swallow
            // expected chaos panics, so this is a real bug).
            let err = worker.join().unwrap_err();
            eprintln!("ROMP_CHAOS_SEED={seed} # iteration master died; replay with this env var");
            std::panic::resume_unwind(err);
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // A wedged runtime (lost wakeup / stranded join) cannot be
            // unwound past — print the replay line and abort so the
            // harness reports the failure instead of hanging forever.
            eprintln!(
                "ROMP_CHAOS_SEED={seed} # iteration wedged for {deadline:?}; \
                 replay: ROMP_CHAOS_SEED={seed} cargo test --features chaos --test chaos"
            );
            std::process::abort();
        }
    }

    let injected = guard.injected();
    drop(guard); // disarm before judging the wreckage

    // The runtime must come back whole: a clean, exactly-shaped team
    // (run before the quiesce check so its own lease is gone by then).
    assert_geometry_fresh(soak_threads().max(2));

    assert!(
        quiesce(Duration::from_secs(30)),
        "ROMP_CHAOS_SEED={seed} stranded workers: idle {} != pool {} \
         (injected: {injected:?})",
        pool::idle_workers(),
        pool::pool_size(),
    );
    let d = before.delta(&stats().snapshot());
    assert_eq!(
        d.tasks_spawned,
        d.tasks_executed + d.tasks_discarded + d.tasks_purged,
        "ROMP_CHAOS_SEED={seed} task ledger leak: {d:?} (injected: {injected:?})"
    );
}

#[test]
fn seeded_soak_mixed_workloads() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let iters: u64 = std::env::var("ROMP_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let base: u64 = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    let replay: Option<u64> = std::env::var("ROMP_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok());
    eprintln!("chaos soak: {iters} iterations, base seed {base} (replay: {replay:?})");

    let fx = Arc::new(Fixture::build());
    let per_iter = Duration::from_secs(60);
    if let Some(seed) = replay {
        soak_iteration(&fx, seed, per_iter);
    }
    for i in 0..iters {
        soak_iteration(&fx, base.wrapping_add(i), per_iter);
    }
}

// ---------------------------------------------------------------------
// Deterministic per-fault-class regressions (probability-1.0 plans)
// ---------------------------------------------------------------------

/// Run `f` on a dedicated master thread under the suite lock.
fn on_fresh_master(f: impl FnOnce() + Send + 'static) {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::Builder::new()
        .name("chaos-regression-master".into())
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

/// Fault class 1: a panic injected at the chunk-grab edge of a
/// worksharing construct unwinds out of `fork` with the
/// [`chaos::ChaosPanic`] payload, and the very next fork delivers a
/// clean team — for a dynamic loop and for the `sections`, ordered and
/// guided constructs that share its claim loop.
#[test]
fn panic_in_chunk_grab_unwinds_cleanly() {
    type Construct = fn(&romp::runtime::ThreadCtx<'_>);
    let constructs: [(&str, Construct); 4] = [
        ("dynamic loop", |ctx| {
            ctx.ws_for(0..256, Schedule::dynamic(), false, |i| {
                std::hint::black_box(i);
            })
        }),
        ("sections", |ctx| {
            ctx.sections(5, false, |i| {
                std::hint::black_box(i);
            })
        }),
        ("ordered dynamic,3 loop", |ctx| {
            ctx.ws_for_ordered(0..48, Schedule::dynamic_chunk(3), false, |i, ord| {
                ord.section(|| std::hint::black_box(i));
            })
        }),
        ("guided loop", |ctx| {
            ctx.ws_for(0..256, Schedule::guided(), false, |i| {
                std::hint::black_box(i);
            })
        }),
    ];
    on_fresh_master(move || {
        for (name, construct) in constructs {
            let guard = chaos::arm(
                ChaosPlan::bare(0xC0)
                    .with_rule(Site::ChunkGrab, Fault::Panic, 1.0)
                    .with_budget(1),
            );
            let err = catch_unwind(AssertUnwindSafe(|| {
                fork(ForkSpec::with_num_threads(4), |ctx| construct(ctx));
            }))
            .expect_err("the injected chunk-grab panic must propagate to the master");
            assert!(
                err.is::<chaos::ChaosPanic>(),
                "{name}: the rethrown payload must be the chaos marker, not a real bug's"
            );
            assert_eq!(guard.injected().panics, 1, "{name}");
            drop(guard);
            assert_geometry(4);
        }
    });
}

/// Fault class 2: a spurious (armed, self-gating) cancel request at
/// barrier entry cancels the region cooperatively — every thread still
/// reaches the region end, nobody deadlocks in the barrier.
#[test]
fn cancel_at_barrier_releases_the_team() {
    on_fresh_master(|| {
        let armed = icv::set_local(|i| i.cancellation = true);
        let before = stats().snapshot();
        let guard = chaos::arm(
            ChaosPlan::bare(0xC1)
                .with_rule(Site::CancelCheck, Fault::Cancel, 1.0)
                .with_budget(1),
        );
        let reached = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(4), |ctx| {
            ctx.barrier();
            reached.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(
            reached.load(Ordering::SeqCst),
            4,
            "a cancelled barrier must release every sibling to the region end"
        );
        assert_eq!(guard.injected().cancels, 1);
        drop(guard);
        let d = before.delta(&stats().snapshot());
        assert!(
            d.cancels_activated >= 1,
            "the injected request must activate real cancellation: {d:?}"
        );
        drop(armed);
        assert_geometry(4);
    });
}

/// Fault class 3: delays injected between doorbell prime and ring — the
/// exact schedule that exposes a lost hot-team wakeup — must never
/// wedge a hot fork. (A lost wakeup hangs this test; the CI timeout is
/// the detector, and the seed is right here in the source.)
#[test]
fn delayed_doorbell_does_not_lose_wakeups() {
    on_fresh_master(|| {
        icv::with_global_mut(|i| i.hot_teams = true);
        assert_geometry(4); // build the lease before arming
        let guard = chaos::arm(
            ChaosPlan::bare(0xC2)
                .with_rule(Site::DoorbellPrime, Fault::Delay, 1.0)
                .with_rule(Site::DoorbellRing, Fault::Delay, 1.0)
                .with_rule(Site::Park, Fault::Delay, 1.0)
                .with_budget(64)
                .with_delay(Duration::from_millis(2)),
        );
        for _ in 0..5 {
            assert_geometry(4); // hot forks under stretched wake windows
        }
        assert!(
            guard.injected().delays >= 1,
            "the hot path must actually cross the doorbell sites: {:?}",
            guard.injected()
        );
        drop(guard);
    });
}

/// Fault class 4: a spawn failure injected mid-`Pool::acquire` degrades
/// the fork to a short team (never a panic, never a leaked thread-limit
/// reservation), and the next unchaosed fork is whole again.
#[test]
fn spawn_failure_mid_acquire_degrades_gracefully() {
    on_fresh_master(|| {
        let prev_hot = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
        let before = stats().snapshot();
        let guard = chaos::arm(
            ChaosPlan::bare(0xC3)
                .with_rule(Site::WorkerSpawn, Fault::SpawnFail, 1.0)
                .with_budget(2),
        );
        let ran = AtomicUsize::new(0);
        // 32 is far above anything this binary pools, so real spawn
        // attempts are guaranteed and the first two of them fail.
        fork(ForkSpec::with_num_threads(32), |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        let injected = guard.injected();
        drop(guard);
        let delivered = ran.load(Ordering::SeqCst);
        assert!(
            (1..32).contains(&delivered),
            "the fork must deliver a short but live team: {delivered}"
        );
        assert!(injected.spawn_fails >= 1, "{injected:?}");
        let d = before.delta(&stats().snapshot());
        assert!(
            d.worker_spawn_failures >= 1,
            "the degradation path must be the recorded one: {d:?}"
        );
        // Reservation rollback: the pool can still reach full shape.
        assert_geometry(4);
        icv::with_global_mut(|i| i.hot_teams = prev_hot);
    });
}
