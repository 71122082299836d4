//! Property-based tests over the public API: scheduling exactness,
//! reduction correctness, RNG leapfrogging, sorting, mangling, and
//! parser robustness.

use proptest::prelude::*;
use romp::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every schedule kind covers every iteration exactly once for
    /// arbitrary trip counts and team sizes.
    #[test]
    fn schedules_partition_exactly(
        trip in 0usize..600,
        threads in 1usize..6,
        pick in 0usize..5,
        chunk in 1u64..40,
    ) {
        let sched = match pick {
            0 => Schedule::static_block(),
            1 => Schedule::static_chunk(chunk),
            2 => Schedule::dynamic_chunk(chunk),
            3 => Schedule::guided_chunk(chunk),
            _ => Schedule::Auto,
        };
        let hits: Vec<AtomicU32> = (0..trip).map(|_| AtomicU32::new(0)).collect();
        par_for(0..trip).num_threads(threads).schedule(sched).run(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Parallel reduction equals the serial fold for arbitrary data,
    /// schedules and team sizes (within FP reassociation noise).
    #[test]
    fn reduction_matches_serial_fold(
        data in proptest::collection::vec(-1e6f64..1e6, 0..500),
        threads in 1usize..6,
        dynamic in proptest::bool::ANY,
    ) {
        let sched = if dynamic { Schedule::dynamic_chunk(7) } else { Schedule::static_block() };
        let serial: f64 = data.iter().sum();
        let par = par_for(0..data.len())
            .num_threads(threads)
            .schedule(sched)
            .reduce(SumOp, 0.0, |i, acc| *acc += data[i]);
        prop_assert!((par - serial).abs() <= 1e-6 * (1.0 + serial.abs()));
    }

    /// Integer min/max reductions are exact.
    #[test]
    fn minmax_reductions_exact(
        data in proptest::collection::vec(i64::MIN/2..i64::MAX/2, 1..300),
        threads in 1usize..5,
    ) {
        let lo = par_for(0..data.len()).num_threads(threads)
            .reduce(MinOp, i64::MAX, |i, acc| *acc = (*acc).min(data[i]));
        let hi = par_for(0..data.len()).num_threads(threads)
            .reduce(MaxOp, i64::MIN, |i, acc| *acc = (*acc).max(data[i]));
        prop_assert_eq!(lo, *data.iter().min().unwrap());
        prop_assert_eq!(hi, *data.iter().max().unwrap());
    }

    /// RNG leapfrog: skipping ahead equals stepping, at any offset.
    #[test]
    fn rng_skip_equals_step(n in 0u64..5_000) {
        use romp::npb::rng::{Randlc, SEED_EP};
        let mut stepped = Randlc::new(SEED_EP);
        for _ in 0..n { stepped.next_f64(); }
        let mut skipped = Randlc::new(SEED_EP);
        skipped.skip(n);
        prop_assert_eq!(stepped.state(), skipped.state());
    }

    /// Fortran mangling is idempotent-safe and deterministic.
    #[test]
    fn mangling_properties(name in "[A-Za-z][A-Za-z0-9_]{0,30}") {
        let m = romp::fortran::mangle(&name);
        prop_assert!(m.ends_with('_'));
        prop_assert_eq!(m.to_ascii_lowercase(), m.clone());
        prop_assert_eq!(romp::fortran::mangle(&name), m);
    }

    /// The directive parser never panics on arbitrary input.
    #[test]
    fn directive_parser_total(text in ".{0,120}") {
        let _ = romp::pragma::parse_directive(&text);
    }

    /// The translator never panics on arbitrary "source".
    #[test]
    fn translator_total(src in ".{0,300}") {
        let _ = romp::pragma::translate(&src);
    }

    /// Successful translation consumes every directive: running the
    /// translator on its own output is the identity.
    #[test]
    fn translator_idempotent_on_success(src in "[ -~\n]{0,200}") {
        if let Ok(out) = romp::pragma::translate(&src) {
            prop_assert!(romp::pragma::find_directives(&out).is_empty());
            if let Ok(out2) = romp::pragma::translate(&out) {
                prop_assert_eq!(out2, out);
            }
        }
    }

    /// Worksharing chunks are contiguous, ordered per thread, and the
    /// strided loop hits exactly the arithmetic progression.
    #[test]
    fn strided_loop_exact(
        start in -1000i64..1000,
        len in 0i64..200,
        step in 1i64..17,
        threads in 1usize..5,
    ) {
        let end = start + len * step;
        let hits = std::sync::Mutex::new(Vec::new());
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            let space = StridedRange::new(start, end, step);
            romp::core::space::ws_space(ctx, &space, Schedule::dynamic_chunk(3), false, |i| {
                hits.lock().unwrap().push(i);
            });
        });
        let mut got = hits.into_inner().unwrap();
        got.sort_unstable();
        let want: Vec<i64> = (0..len).map(|k| start + k * step).collect();
        prop_assert_eq!(got, want);
    }

    /// Sections run each block exactly once regardless of team size.
    #[test]
    fn sections_exactly_once(threads in 1usize..6, count in 1usize..12) {
        let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            ctx.sections(count, false, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// IS bucket sort produces a sorted permutation for arbitrary keys
    /// (exercising the same histogram/prefix machinery as the kernel).
    #[test]
    fn counting_sort_invariants(
        keys in proptest::collection::vec(0u32..512, 0..2000),
        threads in 1usize..4,
    ) {
        let max_key = 512usize;
        let counts: Vec<AtomicU32> = (0..max_key).map(|_| AtomicU32::new(0)).collect();
        par_for(0..keys.len()).num_threads(threads).run(|i| {
            counts[keys[i] as usize].fetch_add(1, Ordering::Relaxed);
        });
        let counts: Vec<u32> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        prop_assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), keys.len());
        // Reconstructed array is sorted and a permutation.
        let mut sorted = Vec::with_capacity(keys.len());
        for (k, &c) in counts.iter().enumerate() {
            sorted.extend(std::iter::repeat_n(k as u32, c as usize));
        }
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }
}
