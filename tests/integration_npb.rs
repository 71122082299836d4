//! Cross-crate integration: the NPB kernels through the `romp` facade —
//! serial/parallel/reference agreement and official verification.

use romp::npb::{cg, ep, is, mandelbrot, search, sw, Class};

#[test]
fn ep_all_variants_agree_and_verify() {
    let (serial, _) = ep::run_serial(Class::S);
    let romp_r = ep::romp::run(Class::S, 4);
    let refr = ep::reference::run(Class::S, 4);
    assert!(romp_r.verified && refr.verified);
    // sx agreement up to FP-reduction reassociation noise (relative).
    let rel = |a: f64, b: f64| ((a - b) / b).abs();
    assert!(rel(romp_r.checksum, serial.sx) < 1e-11);
    assert!(rel(refr.checksum, serial.sx) < 1e-11);
}

#[test]
fn cg_all_variants_agree_and_verify() {
    let setup = cg::setup(Class::S);
    let serial = cg::run_serial_with(&setup);
    let romp_r = cg::romp::run_with(&setup, 4);
    let refr = cg::reference::run_with(&setup, 4);
    assert!(serial.verified && romp_r.verified && refr.verified);
    assert!((romp_r.checksum - serial.checksum).abs() < 1e-10);
    assert!((refr.checksum - serial.checksum).abs() < 1e-10);
}

#[test]
fn is_variants_verify() {
    assert!(is::run_serial(Class::S).verified);
    assert!(is::romp::run(Class::S, 4).verified);
    assert!(is::reference::run(Class::S, 4).verified);
}

#[test]
fn mandelbrot_variants_agree_exactly() {
    let (serial, _) = mandelbrot::run_serial(Class::S);
    let a = mandelbrot::romp::run(Class::S, 4);
    let b = mandelbrot::reference::run(Class::S, 4);
    assert_eq!(a.checksum as u64, serial);
    assert_eq!(b.checksum as u64, serial);
}

#[test]
fn ep_is_thread_count_invariant() {
    // The annulus counts are integers: any thread count must reproduce
    // them exactly.
    let (serial, _) = ep::run_serial(Class::S);
    for threads in [1usize, 2, 3, 5, 8] {
        let blocks = ep::blocks(Class::S);
        // Recompute via the block decomposition the parallel path uses.
        let mut q = [0u64; 10];
        let chunk = blocks / threads as u64;
        let mut lo = 0;
        for t in 0..threads as u64 {
            let hi = if t == threads as u64 - 1 {
                blocks
            } else {
                lo + chunk
            };
            let part = ep::accumulate_blocks(lo, hi);
            for (ql, pl) in q.iter_mut().zip(&part.q) {
                *ql += pl;
            }
            lo = hi;
        }
        assert_eq!(q, serial.q, "threads={threads}");
    }
}

#[test]
fn cg_matrix_is_deterministic() {
    let a = cg::setup(Class::S);
    let b = cg::setup(Class::S);
    assert_eq!(a.mat.rowstr, b.mat.rowstr);
    assert_eq!(a.mat.colidx, b.mat.colidx);
    assert_eq!(a.mat.a, b.mat.a);
}

#[test]
fn is_keys_deterministic_across_threads() {
    let a = is::generate_keys(Class::S, 1);
    let b = is::generate_keys(Class::S, 3);
    let c = is::generate_keys(Class::S, 8);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

/// Class-S verification matrix: every kernel, in both configurations,
/// must pass the official NPB `verify` thresholds single-threaded and
/// multi-threaded (the paper's correctness bar for its Zig ports).
#[test]
fn class_s_verification_single_and_multi_threaded() {
    let cg_setup = cg::setup(Class::S);
    // 3: an odd team splits IS's keys and key range, and CG's rows,
    // unevenly.
    for threads in [1usize, 3, 4] {
        for (name, result) in [
            ("cg/romp", cg::romp::run_with(&cg_setup, threads)),
            ("cg/reference", cg::reference::run_with(&cg_setup, threads)),
            ("ep/romp", ep::romp::run(Class::S, threads)),
            ("ep/reference", ep::reference::run(Class::S, threads)),
            ("is/romp", is::romp::run(Class::S, threads)),
            ("is/reference", is::reference::run(Class::S, threads)),
            ("mandelbrot/romp", mandelbrot::romp::run(Class::S, threads)),
            (
                "mandelbrot/reference",
                mandelbrot::reference::run(Class::S, threads),
            ),
            ("sw/romp", sw::romp::run(Class::S, threads)),
            ("fs/romp", search::romp::run(Class::S, threads)),
        ] {
            assert!(
                result.verified,
                "{name} failed official class-S verification on {threads} thread(s): {result}"
            );
            assert_eq!(
                result.threads, threads,
                "{name} reported wrong thread count"
            );
        }
    }
}

#[test]
fn sw_wavefront_agrees_with_serial_and_verifies() {
    let serial = sw::run_serial(Class::S);
    assert!(serial.verified, "{serial}");
    for threads in [1usize, 2, 4] {
        let r = sw::romp::run(Class::S, threads);
        assert!(r.verified, "{r}");
        assert_eq!(r.checksum, serial.checksum, "threads={threads}");
    }
}

/// The env-pinned path CI exercises at 1 and 4 threads: the team size
/// comes from `OMP_NUM_THREADS`, so both the all-inline and the
/// stealing schedulers run the same dependence graph.
#[test]
fn sw_wavefront_env_resolved_threads() {
    let r = sw::romp::run_env(Class::S);
    assert!(r.verified, "{r}");
    assert_eq!(
        r.threads,
        romp::runtime::omp_get_max_threads(),
        "run_env must use the ICV-resolved team size"
    );
}

#[test]
fn fs_search_agrees_with_serial_and_verifies() {
    let serial = search::run_serial(Class::S);
    assert!(serial.verified, "{serial}");
    for threads in [1usize, 2, 4] {
        let r = search::romp::run(Class::S, threads);
        assert!(r.verified, "{r}");
        assert_eq!(r.checksum, serial.checksum, "threads={threads}");
    }
}

#[test]
fn kernel_results_render() {
    let r = ep::romp::run(Class::S, 2);
    let s = r.to_string();
    assert!(s.contains("EP") && s.contains("class S"), "{s}");
}
