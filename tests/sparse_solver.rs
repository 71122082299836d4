//! Acceptance suite for the sparse solver layer: the multi-colored
//! KACZ sweep and the CARP-CG solver verify against the sequential
//! reference at 1/2/4/oversubscribed threads **across all three
//! directive front ends** (macro, builder, `//#omp` translator), the
//! sweeps bitwise and the solver residual-bounded; the convergence
//! early-exit goes through `omp_cancel!` and is observable in the
//! runtime stats when `cancel-var` is armed, and degrades to a plain
//! SPMD break when it is not.

// `rustfmt::skip`: the golden file must stay byte-identical to rompcc
// output; formatting it would break `kacz_translation_matches_golden`.
#[rustfmt::skip]
#[path = "fixtures/kacz_translated.rs"]
mod translated;

use romp::prelude::*;
use romp_core::slice::SharedSlice;
use romp_npb::search::ArmCancellation;
use romp_sparse::prelude::*;

const ANNOTATED: &str = include_str!("fixtures/kacz_annotated.rs");
const GOLDEN: &str = include_str!("fixtures/kacz_translated.rs");

#[test]
fn kacz_translation_matches_golden() {
    let out = romp_pragma::translate(ANNOTATED).expect("kacz fixture translates cleanly");
    assert_eq!(
        out, GOLDEN,
        "rompcc output drifted from tests/fixtures/kacz_translated.rs; \
         regenerate with `cargo run -p romp-pragma --bin rompcc -- \
         tests/fixtures/kacz_annotated.rs -o tests/fixtures/kacz_translated.rs`"
    );
}

fn team_ladder() -> [usize; 4] {
    let oversubscribed = 2 * romp::runtime::omp_get_num_procs().max(2);
    [1, 2, 4, oversubscribed]
}

/// One Kaczmarz row projection on a shared `x`, written out the way a
/// user of the directive front ends would (`omega = 1`).
///
/// # Safety
///
/// No other thread may concurrently access any column of `row`.
unsafe fn project(mat: &Csr, norms: &[f64], row: usize, x: &SharedSlice<'_, f64>, b: &[f64]) {
    let nrm = norms[row];
    if nrm == 0.0 {
        return;
    }
    let (cols, vals) = mat.row(row);
    let mut dot = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        // SAFETY: caller guarantees exclusivity of this row's columns.
        dot += v * unsafe { x.read(c) };
    }
    let scale = (b[row] - dot) / nrm;
    for (&c, &v) in cols.iter().zip(vals) {
        // SAFETY: as above.
        unsafe { *x.get_mut(c) += scale * v };
    }
}

/// Project one coloring block's rows in sweep order.
///
/// # Safety
///
/// As [`project`], for every row of the block.
unsafe fn project_block(
    mat: &Csr,
    norms: &[f64],
    rows: &[usize],
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    dir: Direction,
) {
    // SAFETY: forwarded obligation.
    let each = |&row: &usize| unsafe { project(mat, norms, row, x, b) };
    match dir {
        Direction::Forward => rows.iter().for_each(each),
        Direction::Backward => rows.iter().rev().for_each(each),
    }
}

/// The phase visited `i`-th in direction `dir`.
fn phase_at(coloring: &Coloring, i: usize, dir: Direction) -> usize {
    match dir {
        Direction::Forward => i,
        Direction::Backward => coloring.nphases() - 1 - i,
    }
}

/// The sweep in the macro spelling: one `omp_parallel!` region, one
/// `omp_for!(schedule(runtime))` construct per phase.
fn sweep_csr_macro(
    mat: &Csr,
    norms: &[f64],
    coloring: &Coloring,
    x: &mut [f64],
    b: &[f64],
    dir: Direction,
    threads: usize,
) {
    let view = SharedSlice::new(x);
    omp_parallel!(num_threads(threads), |ctx| {
        for i in 0..coloring.nphases() {
            let blocks = coloring.phase_blocks(phase_at(coloring, i, dir));
            let base = blocks.start;
            omp_for!(
                ctx,
                schedule(runtime),
                for u in 0..(blocks.len()) {
                    // SAFETY: same-phase blocks are column-disjoint
                    // (Coloring::validate); the construct barrier
                    // orders phases.
                    unsafe {
                        project_block(mat, norms, coloring.block_rows(base + u), &view, b, dir)
                    };
                }
            );
        }
    });
}

/// The sweep in the builder spelling: a `par_for` team per phase, the
/// fork-join pair standing in for the phase barrier.
fn sweep_csr_builder(
    mat: &Csr,
    norms: &[f64],
    coloring: &Coloring,
    x: &mut [f64],
    b: &[f64],
    dir: Direction,
    threads: usize,
) {
    let view = SharedSlice::new(x);
    for i in 0..coloring.nphases() {
        let blocks = coloring.phase_blocks(phase_at(coloring, i, dir));
        let base = blocks.start;
        par_for(0..blocks.len())
            .num_threads(threads)
            .schedule(Schedule::Runtime)
            .run(|u| {
                // SAFETY: same-phase blocks are column-disjoint; the
                // join publishes the phase.
                unsafe { project_block(mat, norms, coloring.block_rows(base + u), &view, b, dir) };
            });
    }
}

/// One in-region sweep through `op`: the production path CARP-CG
/// runs.
fn sweep_in_region(
    op: &SweepMat<'_>,
    norms: &[f64],
    x: &mut [f64],
    b: &[f64],
    dir: Direction,
    threads: usize,
) {
    let view = SharedSlice::new(x);
    parallel()
        .num_threads(threads)
        .run(|ctx| op.sweep_ctx(ctx, norms, &view, b, 1.0, dir, Schedule::Runtime));
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The sweep acceptance bar: the macro, builder and translator front
/// ends, and the in-region sweep CARP-CG runs, produce **bitwise** the
/// sequential Kaczmarz sweep in multicolor order, at every team shape,
/// forward and backward (the translated fixture is forward-only, as
/// written in the annotated source).
#[test]
fn kacz_front_ends_agree_at_every_team_shape() {
    let n = 160;
    let mat = matgen::random_sparse(n, 4, 20_240_808);
    let coloring = greedy_multicolor(&mat);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    let bounds = coloring.phase_boundaries();
    let op = SweepMat::Csr {
        mat: &mat,
        coloring: &coloring,
    };
    let x0: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.125 - 0.5).collect();
    for dir in [Direction::Forward, Direction::Backward] {
        let mut want = x0.clone();
        sweep_seq(&mat, &norms, &coloring.order, &mut want, &b, 1.0, dir);
        for threads in team_ladder() {
            let mut got = x0.clone();
            sweep_csr_macro(&mat, &norms, &coloring, &mut got, &b, dir, threads);
            assert_eq!(
                bits(&got),
                bits(&want),
                "macro front end diverged at {threads} threads"
            );
            let mut got = x0.clone();
            sweep_csr_builder(&mat, &norms, &coloring, &mut got, &b, dir, threads);
            assert_eq!(
                bits(&got),
                bits(&want),
                "builder front end diverged at {threads} threads"
            );
            let mut got = x0.clone();
            sweep_in_region(&op, &norms, &mut got, &b, dir, threads);
            assert_eq!(
                bits(&got),
                bits(&want),
                "in-region sweep diverged at {threads} threads"
            );
            if dir == Direction::Forward {
                let mut got = x0.clone();
                {
                    let view = SharedSlice::new(&mut got);
                    translated::kacz_sweep_colored(
                        &mat.rowptr,
                        &mat.cols,
                        &mat.vals,
                        &norms,
                        &coloring.order,
                        &bounds,
                        &view,
                        &b,
                        1.0,
                        threads,
                    );
                }
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "translated front end diverged at {threads} threads"
                );
            }
        }
    }
}

/// The SELL-C-σ tiles inherit the same bar: the colored tile sweep is
/// bitwise the sequential sweep on the layout's own permuted order at
/// every team shape.
#[test]
fn sell_sweep_agrees_at_every_team_shape() {
    let n = 192;
    let mat = matgen::banded(n, 4);
    let coloring = color::auto(&mat, 4);
    let cs = ColoredSell::build(&mat, &coloring, 8, 32);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    let order = cs.sweep_order();
    let x0: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.25).collect();
    for dir in [Direction::Forward, Direction::Backward] {
        let mut want = x0.clone();
        sweep_seq(&mat, &norms, &order, &mut want, &b, 1.0, dir);
        for threads in team_ladder() {
            let mut got = x0.clone();
            sweep_in_region(&SweepMat::Sell(&cs), &norms, &mut got, &b, dir, threads);
            assert_eq!(
                bits(&got),
                bits(&want),
                "SELL sweep diverged at {threads} threads"
            );
        }
    }
}

/// The solver acceptance bar: parallel CARP-CG converges and stays
/// within tolerance of the sequential reference at every team shape,
/// over both operator formats (sweeps are bitwise; the solver iterates
/// differ only by reduction combine order, so the bound is tight).
#[test]
fn carp_cg_verifies_at_every_team_shape() {
    let n = 400;
    let mat = matgen::banded(n, 4);
    let coloring = color::auto(&mat, 4);
    let cs = ColoredSell::build(&mat, &coloring, 8, 32);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    let seq = carp_cg_seq(&mat, &norms, &coloring.order, &b, &CarpOptions::default());
    assert!(seq.converged, "reference failed to converge: {seq:?}");
    assert!(seq.rel_residual < 1e-7);
    let csr_op = SweepMat::Csr {
        mat: &mat,
        coloring: &coloring,
    };
    let sell_op = SweepMat::Sell(&cs);
    for threads in team_ladder() {
        for (fmt, op) in [("csr", &csr_op), ("sell", &sell_op)] {
            let opts = CarpOptions {
                threads,
                ..Default::default()
            };
            let out = carp_cg(op, &norms, &b, &opts);
            assert!(
                out.converged,
                "{fmt} solver did not converge at {threads} threads ({} iters)",
                out.iters
            );
            assert!(
                out.rel_residual < 1e-7,
                "{fmt} residual {} at {threads} threads",
                out.rel_residual
            );
            let dx = out
                .x
                .iter()
                .zip(&seq.x)
                .map(|(a, c)| (a - c).abs())
                .fold(0.0, f64::max);
            assert!(
                dx < 1e-6,
                "{fmt} solution drifted {dx} from reference at {threads} threads"
            );
        }
    }
}

/// With `cancel-var` armed, the convergence exit raises a real
/// `cancel parallel` (reported in the outcome and the runtime stats);
/// disarmed (the `OMP_CANCELLATION` default), the same exit is a plain
/// SPMD break and the solver still converges.
#[test]
fn convergence_exit_cancels_when_armed_breaks_when_not() {
    let n = 240;
    let mat = matgen::banded(n, 3);
    let coloring = color::auto(&mat, 4);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    let op = SweepMat::Csr {
        mat: &mat,
        coloring: &coloring,
    };
    let opts = CarpOptions {
        threads: 4,
        ..Default::default()
    };

    {
        let _arm = ArmCancellation::new();
        let before = romp::runtime::stats::stats().snapshot();
        let out = carp_cg(&op, &norms, &b, &opts);
        assert!(out.converged && out.rel_residual < 1e-7, "{out:?}");
        assert!(
            out.cancelled,
            "armed convergence exit must go through omp_cancel!"
        );
        let d = before.delta(&romp::runtime::stats::stats().snapshot());
        assert!(d.cancels_activated >= 1, "{d:?}");
    }

    let prev = romp::runtime::icv::set_cancellation_override(Some(false));
    let out = carp_cg(&op, &norms, &b, &opts);
    romp::runtime::icv::set_cancellation_override(prev);
    assert!(out.converged && out.rel_residual < 1e-7, "{out:?}");
    assert!(
        !out.cancelled,
        "disarmed cancel must report false and fall back to the break"
    );
}

/// Slot-protocol regression at the workload shape that exposed it: a
/// dynamic-schedule sweep is one slot construct per coloring phase, so
/// 200 sweeps over a 40+-phase coloring lap the team's slot ring a
/// thousand times inside one region. A slot installed twice re-runs
/// rows (the iterate diverges from the sequential one) and then hangs
/// the team.
#[test]
fn dynamic_sweeps_lap_the_slot_ring_and_stay_exact() {
    let mat = matgen::random_sparse(3000, 12, 20_240_925);
    let coloring = greedy_multicolor(&mat);
    assert!(coloring.nphases() >= 40, "{} phases", coloring.nphases());
    let cs = ColoredSell::build(&mat, &coloring, 8, 32);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    let ops = [
        SweepMat::Sell(&cs),
        SweepMat::Csr {
            mat: &mat,
            coloring: &coloring,
        },
    ];
    const SWEEPS: usize = 200;
    for (op, threads) in ops.iter().zip([2, 4]) {
        let order = op.sweep_order();
        let mut want = vec![0.0; mat.n];
        let mut got = vec![0.0; mat.n];
        {
            let view = SharedSlice::new(&mut got);
            parallel().num_threads(threads).run(|ctx| {
                for k in 0..SWEEPS {
                    let dir = [Direction::Forward, Direction::Backward][k % 2];
                    op.sweep_ctx(ctx, &norms, &view, &b, 1.0, dir, Schedule::dynamic_chunk(1));
                }
            });
        }
        for k in 0..SWEEPS {
            let dir = [Direction::Forward, Direction::Backward][k % 2];
            sweep_seq(&mat, &norms, &order, &mut want, &b, 1.0, dir);
        }
        let same = got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{threads} threads: sweeps diverged from sweep_seq");
    }
}

/// CARP-CG iteration counts on a banded zoning, CSR (zones swept in
/// natural row order — the order the SELL layout had before zones were
/// stride-interleaved) against SELL (interleaved): the interleave
/// reorders rows *within* a zone only, and must not cost iterations.
fn banded_carp_iters(n: usize, half_bw: usize) -> (usize, usize) {
    let mat = matgen::banded(n, half_bw);
    let coloring = color::auto(&mat, 4);
    assert!(!coloring.singleton_blocks(), "expected a zoning");
    let cs = ColoredSell::build(&mat, &coloring, 8, 32);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    let opts = CarpOptions {
        threads: 2,
        ..Default::default()
    };
    let csr_op = SweepMat::Csr {
        mat: &mat,
        coloring: &coloring,
    };
    let csr = carp_cg(&csr_op, &norms, &b, &opts);
    let sell = carp_cg(&SweepMat::Sell(&cs), &norms, &b, &opts);
    for out in [&csr, &sell] {
        assert!(
            out.converged && out.rel_residual < 1e-7,
            "{}",
            out.rel_residual
        );
    }
    (csr.iters, sell.iters)
}

#[test]
fn zone_interleave_keeps_carp_iteration_counts() {
    assert_eq!(banded_carp_iters(9_000, 4), (11, 11));
}

/// The same pin at the benchmark's `sparse-banded` size (release
/// builds only: the 2.5 M-nonzero solves are slow unoptimized).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn zone_interleave_keeps_carp_iteration_counts_at_bench_size() {
    assert_eq!(banded_carp_iters(150_000, 8), (13, 13));
}
