//! Runtime conformance: the schedule matrix.
//!
//! OpenMP's contract for a worksharing loop is schedule-independent:
//! whatever `schedule` clause is in force, every iteration of the loop
//! runs **exactly once** — no loss, no duplication — for any trip
//! count and any team size. The paper relies on libomp honouring this
//! for its `schedule` clause; this suite pins romp's runtime to the
//! same contract across every `Schedule` variant (`static`,
//! `static,chunk`, `dynamic`, `guided`, `runtime`, `auto`) × chunk
//! size × thread count (1, 2, 4, oversubscribed) × iteration space
//! (empty, single, prime-sized, huge-stride).

use romp::core::space::{ws_space, StridedRange};
use romp::runtime::{fork, icv, omp_set_schedule, ForkSpec, Schedule};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread counts exercised for every (schedule, trip) cell: serial,
/// small teams, and an oversubscribed team (more threads than cores).
fn team_sizes() -> Vec<usize> {
    let mut sizes = vec![1usize, 2, 4, icv::hardware_threads() + 3];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Trip counts: empty, single-iteration, prime-sized (indivisible by
/// any team size or chunk), and a larger prime.
const TRIPS: &[usize] = &[0, 1, 101, 1009];

/// The full set of schedule variants under test. `Runtime` is covered
/// separately (it resolves through the `run-sched-var` ICV). The
/// chunks past every trip count include `2^63`, which
/// `OMP_SCHEDULE=static,9223372036854775808` reaches: `t * c` and the
/// round-robin stride must not wrap onto another thread's chunk (nor
/// the dynamic cursor wrap back to 0).
fn schedule_matrix() -> Vec<Schedule> {
    let mut m = vec![Schedule::static_block(), Schedule::Auto];
    for chunk in [1u64, 3, 16, 1000, 1 << 63, u64::MAX] {
        m.push(Schedule::static_chunk(chunk));
        m.push(Schedule::dynamic_chunk(chunk));
        m.push(Schedule::guided_chunk(chunk));
    }
    m
}

/// Run `0..trip` under `sched` on a team of `threads` and assert the
/// exact-partition contract, plus that all work happened inside the
/// requested team.
fn assert_exact_partition(trip: usize, threads: usize, sched: Schedule) {
    let hits: Vec<AtomicU32> = (0..trip).map(|_| AtomicU32::new(0)).collect();
    let total = AtomicUsize::new(0);
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        assert!(ctx.num_threads() >= 1);
        assert!(ctx.thread_num() < ctx.num_threads());
        ctx.ws_for(0..trip, sched, false, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            total.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(
        total.load(Ordering::Relaxed),
        trip,
        "{sched} on {threads} threads: ran {} of {trip} iterations",
        total.load(Ordering::Relaxed)
    );
    for (i, h) in hits.iter().enumerate() {
        let n = h.load(Ordering::Relaxed);
        assert_eq!(
            n, 1,
            "{sched} on {threads} threads: iteration {i} ran {n} times"
        );
    }
}

#[test]
fn schedule_matrix_partitions_exactly() {
    for sched in schedule_matrix() {
        for &threads in &team_sizes() {
            for &trip in TRIPS {
                assert_exact_partition(trip, threads, sched);
            }
        }
    }
}

/// `schedule(runtime)` defers to the `run-sched-var` ICV: whatever that
/// ICV resolves to, the contract must hold. One test covers all
/// resolutions so the global ICV is mutated from a single place.
#[test]
fn runtime_schedule_follows_run_sched_var() {
    let prior = romp::runtime::omp_get_schedule();
    for resolved in [
        Schedule::static_block(),
        Schedule::static_chunk(5),
        Schedule::dynamic_chunk(2),
        Schedule::guided_chunk(3),
        Schedule::Auto,
    ] {
        omp_set_schedule(resolved);
        for &threads in &team_sizes() {
            for &trip in TRIPS {
                assert_exact_partition(trip, threads, Schedule::Runtime);
            }
        }
    }
    omp_set_schedule(prior);
}

/// The points of the canonical loop `for (i = start; i < end (or > end
/// for a negative step); i += step)`, in `i128` so the oracle itself
/// cannot overflow.
fn progression(start: i64, end: i64, step: i64) -> Vec<i64> {
    let (end, step) = (end as i128, step as i128);
    let mut out = Vec::new();
    let mut i = start as i128;
    while (step > 0 && i < end) || (step < 0 && i > end) {
        out.push(i as i64);
        i += step;
    }
    out
}

/// Huge-stride spaces: a `StridedRange` must hit exactly the arithmetic
/// progression, including steps in the billions (where any chunk
/// arithmetic done in the user's iteration domain would overflow),
/// negative strides, and a span past `i64::MAX` (where `end - start`
/// itself overflows `i64`).
#[test]
fn huge_stride_spaces_hit_exact_progression() {
    let step = 1_000_000_007i64; // prime, > 2^29
    let mut cases: Vec<(i64, i64, i64)> = [
        // (start, step, len): end computed as start + len*step.
        (-3_000_000_000, step, 23),
        (0, step, 1),
        (0, step, 0),
        (i64::MIN / 4, step, 17),
        // Negative stride, walking down.
        (3_000_000_000, -step, 23),
        (42, -1, 101),
    ]
    .iter()
    .map(|&(start, step, len)| (start, start + len * step, step))
    .collect();
    // Four points spread over a span of 2^64 - 2.
    cases.push((i64::MIN + 1, i64::MAX, 1 << 62));
    for sched in [
        Schedule::static_block(),
        Schedule::static_chunk(3),
        Schedule::dynamic_chunk(2),
        Schedule::guided(),
        Schedule::Auto,
    ] {
        for &(start, end, step) in &cases {
            let mut want = progression(start, end, step);
            want.sort_unstable();
            let space = StridedRange::new(start, end, step);
            for &threads in &team_sizes() {
                let hits = Mutex::new(Vec::new());
                fork(ForkSpec::with_num_threads(threads), |ctx| {
                    ws_space(ctx, &space, sched, false, |i| {
                        hits.lock().unwrap().push(i);
                    });
                });
                let mut got = hits.into_inner().unwrap();
                got.sort_unstable();
                assert_eq!(
                    got, want,
                    "{sched} on {threads} threads: stride {step} from {start} to {end}"
                );
            }
        }
    }
}

/// `nowait` must not change the partition (only the end-of-loop
/// synchronization): back-to-back nowait loops still cover each space
/// exactly once.
#[test]
fn nowait_loops_still_partition_exactly() {
    for sched in [
        Schedule::static_block(),
        Schedule::static_chunk(7),
        Schedule::dynamic_chunk(3),
        Schedule::guided(),
    ] {
        for &threads in &team_sizes() {
            let a: Vec<AtomicU32> = (0..101).map(|_| AtomicU32::new(0)).collect();
            let b: Vec<AtomicU32> = (0..101).map(|_| AtomicU32::new(0)).collect();
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                ctx.ws_for(0..101, sched, true, |i| {
                    a[i].fetch_add(1, Ordering::Relaxed);
                });
                ctx.ws_for(0..101, sched, true, |i| {
                    b[i].fetch_add(1, Ordering::Relaxed);
                });
                // Rejoin before leaving the region so the asserts below
                // observe completed loops.
                ctx.barrier();
            });
            for hits in [&a, &b] {
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{sched} on {threads} threads: nowait loop lost/duplicated iterations"
                );
            }
        }
    }
}

/// Chunked schedules must hand bodies chunk-shaped pieces: under
/// `static,c` every thread's chunks (except possibly the last of the
/// whole space) are exactly `c` long, and chunks rotate round-robin.
#[test]
fn static_chunk_geometry() {
    let trip = 101usize;
    for &chunk in &[1u64, 3, 16] {
        for &threads in &team_sizes() {
            let owner: Vec<AtomicU32> = (0..trip).map(|_| AtomicU32::new(u32::MAX)).collect();
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                let t = ctx.thread_num() as u32;
                ctx.ws_for(0..trip, Schedule::static_chunk(chunk), false, |i| {
                    owner[i].store(t, Ordering::Relaxed);
                });
            });
            // Reconstruct ownership and check the round-robin pattern:
            // iteration i belongs to chunk i/c, owned by (i/c) % team.
            let team = owner
                .iter()
                .map(|o| o.load(Ordering::Relaxed))
                .max()
                .unwrap()
                + 1;
            for (i, o) in owner.iter().enumerate() {
                let expect = (i as u64 / chunk) % team as u64;
                assert_eq!(
                    o.load(Ordering::Relaxed) as u64,
                    expect,
                    "static,{chunk} with {team}-thread team: iteration {i} owner"
                );
            }
        }
    }
}

/// Guided schedules must never hand out a chunk smaller than the
/// requested minimum except the final remainder chunk.
#[test]
fn guided_min_chunk_respected() {
    for &min in &[4u64, 10] {
        for &threads in &team_sizes() {
            let sizes = Mutex::new(Vec::new());
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                ctx.ws_for_chunks(0..1009, Schedule::guided_chunk(min), false, |r| {
                    sizes.lock().unwrap().push((r.start, r.len() as u64));
                });
            });
            let mut sizes = sizes.into_inner().unwrap();
            // The chunk covering the end of the space is the only one
            // allowed to undercut the minimum.
            sizes.sort_unstable();
            let covered: u64 = sizes.iter().map(|&(_, n)| n).sum();
            assert_eq!(covered, 1009);
            for (idx, &(_, n)) in sizes.iter().enumerate() {
                if idx + 1 < sizes.len() {
                    assert!(
                        n >= min,
                        "guided,{min} on {threads} threads: interior chunk of {n}"
                    );
                }
            }
        }
    }
}

/// ICV coherence: inside a region, every team thread's
/// `omp_get_schedule` must report the `run-sched-var` the team actually
/// uses for `schedule(runtime)` loops — the master's fork-time value —
/// even though `omp_set_schedule` is an override on the master thread
/// only. Nested regions inherit the same snapshot.
#[test]
fn run_sched_var_coherent_across_team_and_nesting() {
    use romp::runtime::omp_get_schedule;
    let prior = omp_get_schedule();
    let set = Schedule::dynamic_chunk(2);
    omp_set_schedule(set);
    assert_eq!(omp_get_schedule(), set);
    fork(ForkSpec::with_num_threads(4), |ctx| {
        assert_eq!(
            omp_get_schedule(),
            set,
            "thread {} disagrees with the team's run-sched-var",
            ctx.thread_num()
        );
        // A nested (serialized) region forked by any team thread
        // inherits the enclosing team's snapshot, not the worker's own
        // view of the global ICV.
        fork(ForkSpec::new(), |_inner| {
            assert_eq!(omp_get_schedule(), set, "nested region lost run-sched-var");
        });
    });
    omp_set_schedule(prior);
}

/// A worker's own `omp_set_schedule` inside one region must not leak
/// into teams it serves later: each implicit task starts from a fresh
/// data environment.
#[test]
fn worker_tls_overrides_do_not_leak_across_regions() {
    use romp::runtime::omp_get_schedule;
    let leak = Schedule::guided_chunk(9);
    fork(ForkSpec::with_num_threads(4), |ctx| {
        if ctx.thread_num() != 0 {
            // Workers override their own run-sched-var mid-region.
            omp_set_schedule(leak);
            assert_eq!(omp_get_schedule(), leak);
        }
    });
    // New region on the same (pooled) workers: the master did not set
    // anything, so no thread may still see the workers' old override.
    let default = romp::runtime::icv::current().run_sched;
    for _ in 0..5 {
        fork(ForkSpec::with_num_threads(4), |ctx| {
            assert_eq!(
                omp_get_schedule(),
                default,
                "stale omp_set_schedule leaked into thread {} of a later team",
                ctx.thread_num()
            );
        });
    }
}

/// Which thread ran each iteration of `0..trip`, recorded by `run`'s
/// body through `record(i)`.
fn thread_map(trip: usize, run: impl FnOnce(&(dyn Fn(usize) + Sync))) -> Vec<usize> {
    let owner: Vec<AtomicUsize> = (0..trip).map(|_| AtomicUsize::new(usize::MAX)).collect();
    run(&|i| owner[i].store(romp::runtime::omp_get_thread_num(), Ordering::Relaxed));
    owner.into_iter().map(AtomicUsize::into_inner).collect()
}

/// `schedule(auto)` is block `static`, every time: the same call site
/// run 16 times hands every iteration to the thread block-static gives
/// it, in each front-end spelling and through `schedule(runtime)` with
/// `run-sched-var = auto`. The repeated passes catch a schedule that
/// depends on what earlier passes of the site measured.
#[test]
fn auto_is_block_static_on_every_pass() {
    use romp::prelude::{omp_parallel_for, par_for};
    const TRIP: usize = 1009;
    let prior = romp::runtime::omp_get_schedule();
    for threads in team_sizes().into_iter().filter(|&t| t >= 2) {
        let want = thread_map(TRIP, |record| {
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                ctx.ws_for(0..TRIP, Schedule::static_block(), false, record);
            });
        });
        for pass in 0..16 {
            let raw = thread_map(TRIP, |record| {
                fork(ForkSpec::with_num_threads(threads), |ctx| {
                    ctx.ws_for(0..TRIP, Schedule::Auto, false, record);
                });
            });
            assert_eq!(raw, want, "ws_for, {threads} threads, pass {pass}");
            let mac = thread_map(TRIP, |record| {
                omp_parallel_for!(
                    num_threads(threads),
                    schedule(auto),
                    for i in 0..TRIP {
                        record(i);
                    }
                );
            });
            assert_eq!(
                mac, want,
                "omp_parallel_for!, {threads} threads, pass {pass}"
            );
            let builder = thread_map(TRIP, |record| {
                par_for(0..TRIP)
                    .num_threads(threads)
                    .schedule(Schedule::Auto)
                    .run(record);
            });
            assert_eq!(builder, want, "par_for, {threads} threads, pass {pass}");
            omp_set_schedule(Schedule::Auto);
            let runtime = thread_map(TRIP, |record| {
                fork(ForkSpec::with_num_threads(threads), |ctx| {
                    ctx.ws_for(0..TRIP, Schedule::Runtime, false, record);
                });
            });
            omp_set_schedule(prior);
            assert_eq!(
                runtime, want,
                "schedule(runtime) = auto, {threads} threads, pass {pass}"
            );
        }
    }
}
