//! End-to-end tests of the directive macros over the real runtime.

use romp_core::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn parallel_runs_on_every_thread() {
    let seen = Mutex::new(Vec::new());
    omp_parallel!(num_threads(4), |ctx| {
        seen.lock().unwrap().push(ctx.thread_num());
    });
    let mut v = seen.into_inner().unwrap();
    v.sort_unstable();
    assert_eq!(v, vec![0, 1, 2, 3]);
}

#[test]
fn parallel_no_clauses() {
    let hits = AtomicUsize::new(0);
    omp_parallel!(|ctx| {
        assert!(ctx.num_threads() >= 1);
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.load(Ordering::Relaxed) >= 1);
}

#[test]
fn parallel_if_clause_false_serializes() {
    omp_parallel!(num_threads(8), if(false), |ctx| {
        assert_eq!(ctx.num_threads(), 1);
    });
}

#[test]
fn firstprivate_clones_per_thread() {
    let v = vec![1, 2, 3];
    let sum = AtomicUsize::new(0);
    omp_parallel!(num_threads(3), firstprivate(v), |_ctx| {
        // Each thread owns a private clone it may mutate freely.
        let mut v = v; // (already a clone; reassert ownership for push)
        v.push(4);
        sum.fetch_add(v.iter().sum::<usize>(), Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 3 * 10);
}

#[test]
fn private_declares_uninitialized_copy() {
    let x = 42i32; // outer `x` must remain untouched
    let witness = AtomicI64::new(0);
    omp_parallel!(num_threads(2), private(x), |_ctx| {
        x = 7; // deferred initialization of the private copy
        witness.fetch_add(x as i64, Ordering::Relaxed);
    });
    assert_eq!(witness.load(Ordering::Relaxed), 14);
    assert_eq!(x, 42);
}

#[test]
fn shared_and_default_clauses_are_accepted() {
    let data = vec![1u64; 100];
    let total = AtomicUsize::new(0);
    omp_parallel!(
        num_threads(2),
        default(shared),
        shared(data, total),
        |ctx| {
            omp_for!(
                ctx,
                for i in 0..100 {
                    total.fetch_add(data[i] as usize, Ordering::Relaxed);
                }
            );
        }
    );
    assert_eq!(total.load(Ordering::Relaxed), 100);
}

#[test]
fn omp_for_all_schedules_cover_exactly() {
    for n in [0usize, 1, 17, 1000] {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        omp_parallel!(num_threads(4), |ctx| {
            omp_for!(ctx, schedule(static), for i in 0..(n) { hits[i].fetch_add(1, Ordering::Relaxed); });
            omp_for!(ctx, schedule(static, 7), for i in 0..(n) { hits[i].fetch_add(1, Ordering::Relaxed); });
            omp_for!(
                ctx,
                schedule(dynamic),
                for i in 0..(n) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
            omp_for!(
                ctx,
                schedule(dynamic, 16),
                for i in 0..(n) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
            omp_for!(
                ctx,
                schedule(guided),
                for i in 0..(n) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
            omp_for!(
                ctx,
                schedule(guided, 4),
                for i in 0..(n) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
            omp_for!(
                ctx,
                schedule(runtime),
                for i in 0..(n) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
            omp_for!(
                ctx,
                schedule(auto),
                for i in 0..(n) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 8),
            "n={n}: some index not hit once per schedule"
        );
    }
}

#[test]
fn omp_for_nowait_allows_overlap() {
    // Just exercises the nowait path for correctness (coverage, no hang).
    let a = AtomicUsize::new(0);
    let b = AtomicUsize::new(0);
    omp_parallel!(num_threads(4), |ctx| {
        omp_for!(
            ctx,
            schedule(dynamic, 1),
            nowait,
            for _i in 0..64 {
                a.fetch_add(1, Ordering::Relaxed);
            }
        );
        omp_for!(
            ctx,
            schedule(dynamic, 1),
            for _i in 0..64 {
                b.fetch_add(1, Ordering::Relaxed);
            }
        );
    });
    assert_eq!(a.load(Ordering::Relaxed), 64);
    assert_eq!(b.load(Ordering::Relaxed), 64);
}

#[test]
fn omp_for_range_expression_form() {
    let data: Vec<usize> = (0..50).collect();
    let total = AtomicUsize::new(0);
    omp_parallel!(num_threads(3), |ctx| {
        omp_for!(
            ctx,
            for i in (0..data.len()) {
                total.fetch_add(data[i], Ordering::Relaxed);
            }
        );
    });
    assert_eq!(total.load(Ordering::Relaxed), 49 * 50 / 2);
}

#[test]
fn omp_for_step_by_form() {
    let hit = Mutex::new(Vec::new());
    omp_parallel!(num_threads(2), |ctx| {
        omp_for!(
            ctx,
            schedule(dynamic),
            for i in (3..20).step_by(4) {
                hit.lock().unwrap().push(i);
            }
        );
    });
    let mut v = hit.into_inner().unwrap();
    v.sort_unstable();
    assert_eq!(v, vec![3, 7, 11, 15, 19]);
}

#[test]
fn omp_for_reduction_combines_across_threads() {
    let data: Vec<i64> = (0..10_000).map(|i| i % 101 - 50).collect();
    let expect: i64 = data.iter().sum();
    let results = Mutex::new(Vec::new());
    omp_parallel!(num_threads(4), |ctx| {
        let mut sum = 0i64;
        omp_for!(ctx, schedule(static), reduction(+ : sum), for i in 0..(data.len()) {
            sum += data[i];
        });
        // All threads observe the combined value.
        results.lock().unwrap().push(sum);
    });
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), 4);
    assert!(results.iter().all(|&s| s == expect));
}

#[test]
fn omp_for_reduction_multiple_vars() {
    let results = Mutex::new(Vec::new());
    omp_parallel!(num_threads(3), |ctx| {
        let mut sx = 0.0f64;
        let mut sy = 0.0f64;
        let mut s = 0u64;
        let mut x = 0.0f64;
        omp_for!(ctx, reduction(+ : sx, sy), for i in 0..1000 {
            sx += i as f64;
            sy += (i * 2) as f64;
        });
        // Mixed types in one clause: one combine over a `(u64, f64)`.
        omp_for!(ctx, schedule(dynamic, 7), reduction(+ : s, x), for i in 0..1000 {
            s += i as u64;
            x += 0.25;
        });
        results.lock().unwrap().push((sx, sy, s, x));
    });
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), 3);
    for (sx, sy, s, x) in results {
        assert_eq!(sx, 499_500.0);
        assert_eq!(sy, 999_000.0);
        assert_eq!(s, 499_500);
        assert_eq!(x, 250.0);
    }
}

#[test]
fn omp_for_reduction_min_max() {
    let data: Vec<i64> = (0..997).map(|i| (i * 7919) % 1009).collect();
    omp_parallel!(num_threads(4), |ctx| {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        omp_for!(ctx, schedule(dynamic, 13), reduction(min : lo), for i in 0..(data.len()) {
            lo = lo.min(data[i]);
        });
        omp_for!(ctx, schedule(guided), reduction(max : hi), for i in 0..(data.len()) {
            hi = hi.max(data[i]);
        });
        assert_eq!(lo, *data.iter().min().unwrap());
        assert_eq!(hi, *data.iter().max().unwrap());
    });
}

#[test]
fn parallel_for_returns_reduction_tuple() {
    let (sum, cnt) = {
        let (sum,) = omp_parallel_for!(
            num_threads(4), schedule(dynamic, 32), reduction(+ : sum = 0i64),
            for i in 0..10000 { sum += i as i64; }
        );
        let (cnt,) = omp_parallel_for!(
            reduction(+ : cnt = 0usize),
            for _i in 0..10000 { cnt += 1; }
        );
        (sum, cnt)
    };
    assert_eq!(sum, 49_995_000);
    assert_eq!(cnt, 10_000);
}

#[test]
fn parallel_for_reduction_init_folded_once() {
    // init is folded exactly once regardless of team size.
    for nt in [1usize, 2, 3, 8] {
        let (s,) = omp_parallel_for!(
            num_threads(nt), reduction(+ : s = 1000i64),
            for i in 0..10 { s += i as i64; }
        );
        assert_eq!(s, 1000 + 45, "team size {nt}");
    }
}

#[test]
fn parallel_for_multiple_reduction_vars() {
    let v: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.37).sin()).collect();
    let (sx, sy) = omp_parallel_for!(
        num_threads(4), schedule(static, 64), reduction(+ : sx = 0.0, sy = 0.0),
        for i in 0..(v.len()) { sx += v[i]; sy += v[i] * v[i]; }
    );
    let ex: f64 = v.iter().sum();
    let ey: f64 = v.iter().map(|x| x * x).sum();
    assert!((sx - ex).abs() < 1e-9);
    assert!((sy - ey).abs() < 1e-9);
    // Mixed types in one clause.
    let (s, x) = omp_parallel_for!(
        num_threads(4), schedule(guided), reduction(+ : s = 0u64, x = 0.0f64),
        for i in 0..(v.len()) { s += i as u64; x += v[i]; }
    );
    assert_eq!(s, 4999 * 5000 / 2);
    assert!((x - ex).abs() < 1e-9);
}

#[test]
fn parallel_for_moves_a_range_variable_header() {
    // The header is evaluated once, before the fork, so a non-`Copy`
    // range variable is moved in, whatever the clauses.
    let r = 0..1000usize;
    let (s,) = omp_parallel_for!(num_threads(3), reduction(+ : s = 0usize),
        for i in (r) { s += i; });
    assert_eq!(s, 499_500);

    let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
    let base = 7usize;
    let r = 10..90usize;
    omp_parallel_for!(
        num_threads(3),
        firstprivate(base),
        for i in (r) {
            hits[i].fetch_add(base, Ordering::Relaxed);
        }
    );
    for (i, h) in hits.iter().enumerate() {
        let want = if (10..90).contains(&i) { 7 } else { 0 };
        assert_eq!(h.load(Ordering::Relaxed), want, "index {i}");
    }
}

#[test]
fn parallel_for_without_reduction() {
    let flags: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
    omp_parallel_for!(
        num_threads(4),
        schedule(guided, 2),
        for i in 0..257 {
            flags[i].fetch_add(1, Ordering::Relaxed);
        }
    );
    assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
}

#[test]
fn single_executes_exactly_once() {
    let count = AtomicUsize::new(0);
    omp_parallel!(num_threads(4), |ctx| {
        for _ in 0..10 {
            omp_single!(ctx, {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 10);
}

#[test]
fn single_nowait_executes_exactly_once() {
    let count = AtomicUsize::new(0);
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, nowait, {
            count.fetch_add(1, Ordering::Relaxed);
        });
        ctx.barrier();
    });
    assert_eq!(count.load(Ordering::Relaxed), 1);
}

#[test]
fn master_runs_on_thread_zero_only() {
    let who = Mutex::new(Vec::new());
    omp_parallel!(num_threads(4), |ctx| {
        omp_master!(ctx, {
            who.lock().unwrap().push(ctx.thread_num());
        });
        ctx.barrier();
    });
    assert_eq!(*who.lock().unwrap(), vec![0]);
}

#[test]
fn critical_sections_serialize() {
    let mut counter = 0u64;
    let cref = &mut counter as *mut u64 as usize;
    omp_parallel!(num_threads(4), |_ctx| {
        for _ in 0..10_000 {
            omp_critical!(bump_counter, {
                // Deliberate unsynchronized access, protected by the
                // named critical section.
                unsafe { *(cref as *mut u64) += 1 };
            });
        }
    });
    assert_eq!(counter, 40_000);
}

#[test]
fn sections_each_run_once() {
    let a = AtomicUsize::new(0);
    let b = AtomicUsize::new(0);
    let c = AtomicUsize::new(0);
    omp_parallel!(num_threads(2), |ctx| {
        omp_sections!(ctx,
            { a.fetch_add(1, Ordering::Relaxed); }
            { b.fetch_add(2, Ordering::Relaxed); }
            { c.fetch_add(3, Ordering::Relaxed); }
        );
    });
    assert_eq!(a.load(Ordering::Relaxed), 1);
    assert_eq!(b.load(Ordering::Relaxed), 2);
    assert_eq!(c.load(Ordering::Relaxed), 3);
}

#[test]
fn sections_more_sections_than_threads() {
    let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
    omp_parallel!(num_threads(2), |ctx| {
        omp_sections!(ctx, nowait,
            { hits[0].fetch_add(1, Ordering::Relaxed); }
            { hits[1].fetch_add(1, Ordering::Relaxed); }
            { hits[2].fetch_add(1, Ordering::Relaxed); }
            { hits[3].fetch_add(1, Ordering::Relaxed); }
            { hits[4].fetch_add(1, Ordering::Relaxed); }
        );
        ctx.barrier();
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn tasks_execute_with_taskwait() {
    let done = AtomicUsize::new(0);
    let done = &done; // tasks capture by move; move the reference
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, {
            for _ in 0..100 {
                omp_task!(ctx, {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            omp_taskwait!(ctx);
            assert_eq!(done.load(Ordering::Relaxed), 100);
        });
    });
    assert_eq!(done.load(Ordering::Relaxed), 100);
}

#[test]
fn tasks_drain_at_region_end_without_taskwait() {
    let done = AtomicUsize::new(0);
    let done = &done; // tasks capture by move; move the reference
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, nowait, {
            for _ in 0..50 {
                omp_task!(ctx, {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(done.load(Ordering::Relaxed), 50);
}

#[test]
fn task_if_false_runs_inline() {
    // Task closures must outlive the region (`'env`), so the witness
    // lives outside; one slot per thread.
    let ran_on: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let ran_on = &ran_on;
    omp_parallel!(num_threads(2), |ctx| {
        let me = romp_core::omp_get_thread_num();
        omp_task!(ctx, if(false), {
            ran_on[me].store(romp_core::omp_get_thread_num(), Ordering::Relaxed);
        });
        assert_eq!(
            ran_on[me].load(Ordering::Relaxed),
            me,
            "undeferred task runs inline on the encountering thread"
        );
    });
}

#[test]
fn taskgroup_waits_for_nested_tasks() {
    let done = AtomicUsize::new(0);
    let done = &done; // tasks capture by move; move the reference
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, {
            omp_taskgroup!(ctx, {
                for _ in 0..10 {
                    omp_task!(ctx, {
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(done.load(Ordering::Relaxed), 10, "taskgroup drained");
        });
    });
}

#[test]
fn taskloop_covers_range_exactly() {
    let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
    let hits = &hits;
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, {
            omp_taskloop!(
                ctx,
                grainsize(13),
                for i in (0..500) {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            );
            // The implicit taskgroup means everything is done here.
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    });
}

#[test]
fn taskloop_default_grainsize() {
    let total = AtomicUsize::new(0);
    let total = &total;
    omp_parallel!(num_threads(3), |ctx| {
        omp_single!(ctx, {
            omp_taskloop!(
                ctx,
                for i in (10..110) {
                    total.fetch_add(i, Ordering::Relaxed);
                }
            );
        });
    });
    assert_eq!(total.load(Ordering::Relaxed), (10..110).sum::<usize>());
}

#[test]
fn barrier_macro_synchronizes_phases() {
    let phase: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
    omp_parallel!(num_threads(4), |ctx| {
        phase[0].fetch_add(1, Ordering::SeqCst);
        omp_barrier!(ctx);
        assert_eq!(phase[0].load(Ordering::SeqCst), 4);
        phase[1].fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(phase[1].load(Ordering::SeqCst), 4);
}

#[test]
fn nested_constructs_compose() {
    // parallel -> for -> critical inside, then single + sections.
    let acc = AtomicI64::new(0);
    omp_parallel!(num_threads(4), |ctx| {
        omp_for!(
            ctx,
            schedule(dynamic, 8),
            for i in 0..256 {
                if i % 64 == 0 {
                    omp_critical!({
                        acc.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
        );
        omp_single!(ctx, {
            acc.fetch_add(100, Ordering::Relaxed);
        });
    });
    assert_eq!(acc.load(Ordering::Relaxed), 4 + 100);
}

#[test]
fn ordered_loop_runs_in_iteration_order() {
    let order = Mutex::new(Vec::new());
    omp_parallel!(num_threads(4), |ctx| {
        ctx.ws_for_ordered(0..50, Schedule::dynamic_chunk(3), false, |i, ord| {
            omp_ordered!(ord, {
                order.lock().unwrap().push(i);
            });
        });
    });
    let v = order.into_inner().unwrap();
    assert_eq!(v, (0..50).collect::<Vec<_>>());
}

#[test]
fn reduction_all_operators() {
    let (s,) = omp_parallel_for!(num_threads(3), reduction(* : s = 1u64),
        for i in 1..10 { s *= i as u64; });
    assert_eq!(s, 362_880);

    let (band,) = omp_parallel_for!(num_threads(3), reduction(& : band = !0u32),
        for i in 0..8 { band &= !(1 << i) | 0xFF00; });
    assert_eq!(band, 0xFFFF_FF00);

    let (bor,) = omp_parallel_for!(num_threads(3), reduction(| : bor = 0u32),
        for i in 0..8 { bor |= 1 << i; });
    assert_eq!(bor, 0xFF);

    let (bxor,) = omp_parallel_for!(num_threads(3), reduction(^ : bxor = 0u32),
        for i in 0..8 { bxor ^= 1 << i; });
    assert_eq!(bxor, 0xFF);

    let (all,) = omp_parallel_for!(num_threads(3), reduction(&& : all = true),
        for i in 0..100 { all = all && (i < 100); });
    assert!(all);

    let (any,) = omp_parallel_for!(num_threads(3), reduction(|| : any = false),
        for i in 0..100 { any = any || (i == 73); });
    assert!(any);
}

#[test]
fn step_clause_strides_signed_spaces() {
    // Upward stride.
    let seen = Mutex::new(Vec::new());
    omp_parallel!(num_threads(3), |ctx| {
        omp_for!(
            ctx,
            schedule(dynamic),
            step(3),
            for i in 0..10 {
                seen.lock().unwrap().push(i);
            }
        );
    });
    let mut v = seen.into_inner().unwrap();
    v.sort_unstable();
    assert_eq!(v, vec![0i64, 3, 6, 9]);

    // Downward stride over negative ground.
    let seen = Mutex::new(Vec::new());
    omp_parallel!(num_threads(4), |ctx| {
        omp_for!(
            ctx,
            step(-4),
            for i in 5..(-7) {
                seen.lock().unwrap().push(i);
            }
        );
    });
    let mut v = seen.into_inner().unwrap();
    v.sort_unstable();
    assert_eq!(v, vec![-3i64, 1, 5]);
}

#[test]
fn parallel_for_step_clause() {
    let sum = AtomicI64::new(0);
    omp_parallel_for!(
        num_threads(4),
        schedule(guided),
        step(7),
        for i in 0..100 {
            sum.fetch_add(i, Ordering::Relaxed);
        }
    );
    assert_eq!(
        sum.load(Ordering::Relaxed),
        (0..100).step_by(7).sum::<usize>() as i64
    );
}

#[test]
fn collapse2_tuple_header_covers_rectangle() {
    let hits: Vec<AtomicUsize> = (0..12 * 9).map(|_| AtomicUsize::new(0)).collect();
    omp_parallel_for!(
        num_threads(4),
        schedule(dynamic, 5),
        collapse(2),
        for (i, j) in (0..12, 0..9) {
            hits[i * 9 + j].fetch_add(1, Ordering::Relaxed);
        }
    );
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn collapse3_tuple_header_inside_region() {
    let hits: Vec<AtomicUsize> = (0..3 * 4 * 5).map(|_| AtomicUsize::new(0)).collect();
    omp_parallel!(num_threads(3), |ctx| {
        omp_for!(
            ctx,
            collapse(3),
            schedule(guided),
            for (i, j, k) in (0..3, 0..4, 0..5) {
                hits[(i * 4 + j) * 5 + k].fetch_add(1, Ordering::Relaxed);
            }
        );
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn collapse2_with_reduction_matches_serial() {
    let (s,) = omp_parallel_for!(num_threads(4), collapse(2),
        reduction(+ : s = 0usize),
        for (i, j) in (1..5, 2..6) { s += i * j; });
    let want: usize = (1..5usize)
        .flat_map(|i| (2..6usize).map(move |j| i * j))
        .sum();
    assert_eq!(s, want);
}

#[test]
fn step_with_reduction_inside_region() {
    omp_parallel!(num_threads(4), |ctx| {
        let mut sum = 0i64;
        omp_for!(ctx, step(5), reduction(+ : sum), for i in 0..47 {
            sum += i;
        });
        assert_eq!(sum, (0..47).step_by(5).sum::<usize>() as i64);
    });
}

// ---------------------------------------------------------------------
// Task dependence clauses
// ---------------------------------------------------------------------

#[test]
fn task_depend_chain_serializes() {
    let log = Mutex::new(Vec::new());
    let log = &log;
    let token = 0u8;
    let token = &token;
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, nowait, {
            for step in 0..20 {
                omp_task!(ctx, depend(inout: *token), {
                    log.lock().unwrap().push(step);
                });
            }
        });
    });
    assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>());
}

#[test]
fn task_depend_in_out_groups_in_one_clause() {
    let a = AtomicUsize::new(0);
    let b = AtomicUsize::new(0);
    let c = AtomicUsize::new(0);
    let (a, b, c) = (&a, &b, &c);
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, nowait, {
            omp_task!(ctx, depend(out: *a), { a.store(5, Ordering::Relaxed); });
            omp_task!(ctx, depend(out: *b), { b.store(7, Ordering::Relaxed); });
            omp_task!(ctx, depend(in: *a, *b; out: *c), {
                c.store(
                    a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            });
        });
    });
    assert_eq!(c.load(Ordering::Relaxed), 12);
}

#[test]
fn task_depend_separate_clauses_accumulate() {
    let x = AtomicUsize::new(0);
    let y = AtomicUsize::new(0);
    let (x, y) = (&x, &y);
    omp_parallel!(num_threads(2), |ctx| {
        omp_single!(ctx, nowait, {
            omp_task!(ctx, depend(out: *x), { x.store(1, Ordering::Relaxed); });
            omp_task!(ctx, depend(out: *y), { y.store(2, Ordering::Relaxed); });
            omp_task!(ctx, depend(in: *x), depend(in: *y), if(false), {
                // Undeferred reader: both writers must already be done.
                assert_eq!(x.load(Ordering::Relaxed), 1);
                assert_eq!(y.load(Ordering::Relaxed), 2);
            });
        });
    });
}

#[test]
fn task_final_runs_inline() {
    let ran = AtomicUsize::new(usize::MAX);
    let ran = &ran;
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, nowait, {
            let me = omp_get_thread_num();
            omp_task!(ctx, final(true), {
                ran.store(omp_get_thread_num(), Ordering::Relaxed);
            });
            assert_eq!(
                ran.load(Ordering::Relaxed),
                me,
                "final task executes undeferred on the encountering thread"
            );
        });
    });
}

#[test]
fn final_task_descendants_are_included() {
    // A task created while a final task executes must itself run
    // undeferred, even through a nested region's fresh context.
    let order = Mutex::new(Vec::new());
    let order = &order;
    omp_parallel!(num_threads(2), |ctx| {
        omp_single!(ctx, nowait, {
            omp_task!(ctx, final(true), {
                omp_parallel!(num_threads(1), |inner| {
                    omp_task!(inner, {
                        order.lock().unwrap().push("child");
                    });
                    // An included child completed synchronously; a merely
                    // deferred one would drain only at the region end.
                    order.lock().unwrap().push("after-spawn");
                });
            });
        });
    });
    assert_eq!(*order.lock().unwrap(), vec!["child", "after-spawn"]);
}

#[test]
fn taskloop_num_tasks_controls_grain() {
    // Team of one: the implicit taskgroup drains the just-spawned tasks
    // LIFO from the spawner's own deque, so the recorded iteration
    // order exposes the task boundaries directly — num_tasks(4) over
    // 0..1000 must carve exactly 4 tasks of 250 contiguous iterations.
    let order = Mutex::new(Vec::new());
    let order = &order;
    omp_parallel!(num_threads(1), |ctx| {
        omp_single!(ctx, {
            omp_taskloop!(
                ctx,
                num_tasks(4),
                for i in (0..1000) {
                    order.lock().unwrap().push(i);
                }
            );
        });
    });
    let want: Vec<usize> = (750..1000)
        .chain(500..750)
        .chain(250..500)
        .chain(0..250)
        .collect();
    assert_eq!(*order.lock().unwrap(), want);
}

#[test]
fn taskloop_nogroup_defers_to_taskwait() {
    let total = AtomicUsize::new(0);
    let total = &total;
    omp_parallel!(num_threads(4), |ctx| {
        omp_single!(ctx, nowait, {
            omp_taskloop!(
                ctx,
                grainsize(16),
                nogroup,
                for i in (0..256) {
                    total.fetch_add(i, Ordering::Relaxed);
                }
            );
            omp_taskwait!(ctx);
            assert_eq!(total.load(Ordering::Relaxed), (0..256).sum::<usize>());
        });
    });
}

#[test]
fn builder_task_graph_diamond() {
    use romp_core::builder::task;
    let a = AtomicUsize::new(0);
    let b = AtomicUsize::new(0);
    let c = AtomicUsize::new(0);
    let (a, b, c) = (&a, &b, &c);
    parallel().num_threads(4).run(|ctx| {
        ctx.single(true, || {
            task(ctx)
                .depend_out(a)
                .spawn(|| a.store(3, Ordering::Relaxed));
            task(ctx)
                .depend_out(b)
                .spawn(|| b.store(4, Ordering::Relaxed));
            task(ctx).depend_in(a).depend_in(b).depend_out(c).spawn(|| {
                c.store(
                    a.load(Ordering::Relaxed) * b.load(Ordering::Relaxed),
                    Ordering::Relaxed,
                )
            });
        });
    });
    assert_eq!(c.load(Ordering::Relaxed), 12);
}

#[test]
fn final_inclusion_crosses_nested_region_threads() {
    // A final task forks a nested region of two threads; tasks spawned
    // by *either* inner thread must be included (run synchronously on
    // their spawner), because every implicit task of a region forked
    // from a final task is itself final.
    let exec_thread: [AtomicUsize; 2] =
        [AtomicUsize::new(usize::MAX), AtomicUsize::new(usize::MAX)];
    let exec_thread = &exec_thread;
    omp_parallel!(num_threads(2), |ctx| {
        omp_single!(ctx, nowait, {
            omp_task!(ctx, final(true), {
                romp_core::omp_set_max_active_levels(2);
                omp_parallel!(num_threads(2), |inner| {
                    let me = inner.thread_num();
                    omp_task!(inner, {
                        exec_thread[me].store(romp_core::omp_get_thread_num(), Ordering::SeqCst);
                    });
                    assert_eq!(
                        exec_thread[me].load(Ordering::SeqCst),
                        me,
                        "task spawned by inner thread {me} was deferred, not included"
                    );
                });
                romp_core::omp_set_max_active_levels(1);
            });
        });
    });
}

#[test]
fn proc_bind_clause_recorded_through_all_front_ends() {
    use romp_core::builder::parallel;
    use romp_core::runtime::{omp_get_proc_bind, ProcBind};

    // Macro front end (bare parallel and combined parallel-for).
    omp_parallel!(num_threads(2), proc_bind(spread), |_ctx| {
        assert_eq!(omp_get_proc_bind(), ProcBind::Spread);
    });
    omp_parallel_for!(
        num_threads(2),
        proc_bind(close),
        for _i in 0..8 {
            assert_eq!(omp_get_proc_bind(), ProcBind::Close);
        }
    );
    // `primary` is the modern spelling of `master`.
    omp_parallel!(proc_bind(primary), num_threads(2), |_ctx| {
        assert_eq!(omp_get_proc_bind(), ProcBind::Master);
    });

    // Builder front end; the clause is also visible on the context.
    parallel()
        .num_threads(2)
        .proc_bind(ProcBind::Close)
        .run(|ctx| {
            assert_eq!(ctx.proc_bind(), ProcBind::Close);
            assert_eq!(omp_get_proc_bind(), ProcBind::Close);
        });

    // Without a clause, the bind-var ICV shows through (default false,
    // but CI also runs this suite under OMP_PROC_BIND=spread).
    let env_bind = romp_core::runtime::icv::current().proc_bind_for_level(0);
    omp_parallel!(num_threads(2), |ctx| {
        assert_eq!(ctx.proc_bind(), env_bind);
    });
}
