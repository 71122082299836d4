//! The barrier cost of each reduction construct, pinned.
//!
//! A combined construct (`omp_parallel_for!`, `ParFor::reduce`) folds
//! one tuple per thread into a `RedVar` that the join publishes, so it
//! adds no barrier episode. An in-region construct (`reduce_value`,
//! `omp_for!`'s `reduction` clause over any number of variables) pays
//! exactly one: `T` arrivals for a team of `T`.
//!
//! `runtime.barriers` is a process-wide counter, so this binary holds
//! exactly one test: nothing else runs in its process while it diffs
//! the counter.

use romp::prelude::*;
use romp::runtime::stats::stats;

/// Barrier arrivals counted while `f` runs.
fn arrivals(f: impl FnOnce()) -> u64 {
    let before = stats().snapshot();
    f();
    before.delta(&stats().snapshot()).barriers
}

#[test]
fn each_reduction_construct_pays_its_barriers() {
    const N: u64 = 1000;
    let sum = N * (N - 1) / 2;
    for t in [2usize, 4] {
        let tt = t as u64;

        let got = arrivals(|| {
            let (s, n) = omp_parallel_for!(num_threads(t), reduction(+ : s = 0u64, n = 0u64),
                for i in 0..(N as usize) { s += i as u64; n += 1; });
            assert_eq!((s, n), (sum, N));
        });
        assert_eq!(got, 0, "omp_parallel_for! reduction, {t} threads");

        let got = arrivals(|| {
            let s = par_for(0..N as usize)
                .num_threads(t)
                .reduce(SumOp, 0u64, |i, acc| *acc += i as u64);
            assert_eq!(s, sum);
        });
        assert_eq!(got, 0, "par_for(..).reduce, {t} threads");

        let got = arrivals(|| {
            omp_parallel!(num_threads(t), |ctx| {
                assert_eq!(ctx.num_threads(), t);
                let s = ctx.reduce_value(SumOp, ctx.thread_num() as u64);
                assert_eq!(s, tt * (tt - 1) / 2);
            });
        });
        assert_eq!(got, tt, "reduce_value, {t} threads");

        let got = arrivals(|| {
            omp_parallel!(num_threads(t), |ctx| {
                let (mut a, mut b, mut c) = (0u64, 0u64, 0.0f64);
                omp_for!(ctx, reduction(+ : a, b, c), for i in 0..(N as usize) {
                    a += i as u64;
                    b += 1;
                    c += 0.5;
                });
                assert_eq!((a, b, c), (sum, N, N as f64 / 2.0));
            });
        });
        assert_eq!(got, tt, "omp_for! reduction(+ : a, b, c), {t} threads");
    }
}
