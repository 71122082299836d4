//! CARP-CG: conjugate gradient acceleration of double Kaczmarz sweeps
//! (the CGMN method of Björck & Elfving, the solver GHOST's
//! `sell_kacz` kernels feed).
//!
//! One application of the operator is a **DKSWP** double sweep — a
//! forward then a backward colored Kaczmarz sweep with relaxation `ω`
//! — which is a symmetric positive-semidefinite affine map of `x`, so
//! CG applies to the fixed-point system `x = DKSWP(x, b)`:
//!
//! ```text
//! r₀ = DKSWP(0, b)            p₀ = r₀
//! qₖ = pₖ − DKSWP(pₖ, 0)      α = ⟨r,r⟩/⟨p,q⟩
//! x += α p                    r −= α q
//! β = ⟨r',r'⟩/⟨r,r⟩           p = r + β p
//! ```
//!
//! The parallel solver runs the whole iteration inside **one**
//! `parallel` region: sweeps are in-region colored KACZ constructs
//! (`schedule(runtime)`, so `OMP_SCHEDULE` picks their chunking),
//! vector updates are worksharing loops, scalars come from
//! `reduce_value` team reductions (every thread receives the same
//! combined value, so control flow stays lockstep), and the
//! convergence exit goes through `omp_cancel!(ctx, parallel)` — armed
//! cancellation releases the team early exactly like the paper's
//! `!omp cancel` convergence pattern, and the disarmed build falls
//! back to the plain SPMD break.
//!
//! Verification contract: the team reductions combine partials in
//! arrival order, so the parallel iterates are *not* bitwise equal to
//! [`carp_cg_seq`] — the solver is verified by residual tolerance
//! (while the sweep layer underneath is verified bitwise; see
//! [`crate::kacz`]).

use crate::kacz::{Direction, SweepMat};
use romp_core::prelude::*;
use romp_core::slice::SharedSlice;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Solver knobs.
#[derive(Debug, Clone)]
pub struct CarpOptions {
    /// Kaczmarz relaxation factor (1.0 = pure projections).
    pub omega: f64,
    /// Relative residual target: stop when `⟨r,r⟩ ≤ tol²·⟨b,b⟩` (in the
    /// sweep-operator norm).
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Team size for the parallel solver.
    pub threads: usize,
    /// Schedule for the KACZ worksharing loops (`Runtime` by default,
    /// so `OMP_SCHEDULE` chooses).
    pub sched: Schedule,
}

impl Default for CarpOptions {
    fn default() -> Self {
        CarpOptions {
            omega: 1.0,
            tol: 1e-9,
            max_iters: 1000,
            threads: 1,
            sched: Schedule::Runtime,
        }
    }
}

/// Solver result.
#[derive(Debug, Clone)]
pub struct CarpOutcome {
    /// The iterate.
    pub x: Vec<f64>,
    /// CG iterations performed.
    pub iters: usize,
    /// Did the residual reach the tolerance?
    pub converged: bool,
    /// True relative residual `‖b − A·x‖ / ‖b‖` (computed serially
    /// after the solve — the cross-format verification number).
    pub rel_residual: f64,
    /// Did the convergence exit go through an *armed* `omp_cancel!`
    /// (false when `OMP_CANCELLATION` is off and the SPMD break was
    /// the fallback)?
    pub cancelled: bool,
}

fn rel_residual_of(ax: &[f64], b: &[f64]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (ai, bi) in ax.iter().zip(b) {
        num += (bi - ai) * (bi - ai);
        den += bi * bi;
    }
    if den > 0.0 {
        (num / den).sqrt()
    } else {
        num.sqrt()
    }
}

/// Sequential CARP-CG reference: the identical CGMN recurrence with
/// sequential sweeps over the CSR storage in `order` (pass the
/// operator's [`SweepMat::sweep_order`] to mirror a specific layout).
pub fn carp_cg_seq(
    mat: &crate::csr::Csr,
    norms: &[f64],
    order: &[usize],
    b: &[f64],
    opts: &CarpOptions,
) -> CarpOutcome {
    let n = mat.n;
    let omega = opts.omega;
    let zeros = vec![0.0; n];
    let dkswp = |v: &mut Vec<f64>, rhs: &[f64]| {
        crate::kacz::sweep_seq(mat, norms, order, v, rhs, omega, Direction::Forward);
        crate::kacz::sweep_seq(mat, norms, order, v, rhs, omega, Direction::Backward);
    };
    let mut x = vec![0.0; n];
    let mut r = vec![0.0; n];
    dkswp(&mut r, b);
    let mut p = r.clone();
    let bb: f64 = b.iter().map(|v| v * v).sum();
    let thresh = if bb > 0.0 {
        opts.tol * opts.tol * bb
    } else {
        opts.tol * opts.tol
    };
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    let mut iters = 0;
    let mut converged = rho <= thresh;
    while !converged && iters < opts.max_iters {
        let mut q = p.clone();
        dkswp(&mut q, &zeros);
        for (qi, pi) in q.iter_mut().zip(&p) {
            *qi = pi - *qi;
        }
        let pq: f64 = p.iter().zip(&q).map(|(a, c)| a * c).sum();
        if !pq.is_finite() || pq == 0.0 {
            break;
        }
        let alpha = rho / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rho_new / rho;
        rho = rho_new;
        for (pi, ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        iters += 1;
        converged = rho <= thresh;
    }
    let rel_residual = rel_residual_of(&mat.mul(&x), b);
    CarpOutcome {
        x,
        iters,
        converged,
        rel_residual,
        cancelled: false,
    }
}

/// `span` of a shared vector as a plain slice.
///
/// # Safety
///
/// No thread may write an element of `span` while the borrow lives.
unsafe fn chunk<'a>(v: &'a SharedSlice<'_, f64>, span: Range<usize>) -> &'a [f64] {
    assert!(span.start <= span.end && span.end <= v.len());
    // SAFETY: in bounds (checked above); no concurrent writer (caller).
    unsafe { std::slice::from_raw_parts(v.as_ptr().add(span.start), span.len()) }
}

/// `span` of a shared vector as a mutable slice.
///
/// # Safety
///
/// No other thread may access an element of `span`, and the caller
/// must hold no other borrow of it, while the borrow lives.
#[allow(clippy::mut_from_ref)] // the SharedSlice contract, span-wide
unsafe fn chunk_mut<'a>(v: &'a SharedSlice<'_, f64>, span: Range<usize>) -> &'a mut [f64] {
    assert!(span.start <= span.end && span.end <= v.len());
    // SAFETY: in bounds (checked above); the view wraps a `&mut [f64]`,
    // so writing through its pointer is allowed, and the caller
    // guarantees exclusivity.
    unsafe { std::slice::from_raw_parts_mut(v.as_ptr().add(span.start).cast_mut(), span.len()) }
}

/// Team dot product over `0..n`: every thread sums its static block
/// strictly left to right, then the team reduction combines the
/// per-thread partials. `spans` hands out the two operands' slices for
/// a block; the loop is `nowait`, the reduction synchronizes.
fn team_dot<'v>(
    ctx: &ThreadCtx,
    n: usize,
    spans: impl Fn(Range<usize>) -> (&'v [f64], &'v [f64]),
) -> f64 {
    let mut part = 0.0;
    ctx.ws_for_chunks(0..n, Schedule::static_block(), true, |span| {
        let (u, v) = spans(span);
        for (a, c) in u.iter().zip(v) {
            part += a * c;
        }
    });
    ctx.reduce_value(SumOp, part)
}

/// Parallel CARP-CG: one region, in-region colored sweeps, team
/// reductions, cancellation-based convergence exit. See the module
/// docs for structure and the verification contract.
pub fn carp_cg(op: &SweepMat<'_>, norms: &[f64], b: &[f64], opts: &CarpOptions) -> CarpOutcome {
    let n = op.n();
    let mut x = vec![0.0; n];
    let mut r = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut q = vec![0.0; n];
    let zeros = vec![0.0; n];
    let iters_out = AtomicUsize::new(0);
    let converged_out = AtomicBool::new(false);
    let cancelled_out = AtomicBool::new(false);
    {
        let xs = SharedSlice::new(&mut x);
        let rs = SharedSlice::new(&mut r);
        let ps = SharedSlice::new(&mut p);
        let qs = SharedSlice::new(&mut q);
        let sched = opts.sched;
        let omega = opts.omega;
        // Per-construct-barrier discipline inside the region: every
        // worksharing loop below has its implied barrier (nowait only
        // on the dot-product loops, whose reduce_value synchronizes),
        // so each construct reads only vectors published by the
        // previous one.
        parallel().num_threads(opts.threads).run(|ctx| {
            let block = Schedule::static_block();
            // r = DKSWP(0, b).
            ctx.ws_for_chunks(0..n, block, false, |span| {
                // SAFETY: worksharing hands each span to one thread.
                unsafe { chunk_mut(&rs, span) }.fill(0.0);
            });
            op.sweep_ctx(ctx, norms, &rs, b, omega, Direction::Forward, sched);
            op.sweep_ctx(ctx, norms, &rs, b, omega, Direction::Backward, sched);
            // p = r.
            ctx.ws_for_chunks(0..n, block, false, |span| {
                // SAFETY: as above; rs published by the sweep barrier.
                unsafe { chunk_mut(&ps, span.clone()).copy_from_slice(chunk(&rs, span)) };
            });
            let bb = team_dot(ctx, n, |span| (&b[span.clone()], &b[span]));
            let thresh = if bb > 0.0 {
                opts.tol * opts.tol * bb
            } else {
                opts.tol * opts.tol
            };
            // SAFETY (every `team_dot` below): the operands were
            // published by the previous construct's barrier, and no
            // thread writes a vector before the dot's reduction.
            let mut rho = team_dot(ctx, n, |span| unsafe {
                (chunk(&rs, span.clone()), chunk(&rs, span))
            });
            let mut iters = 0usize;
            let mut converged = rho <= thresh;
            let mut fired = false;
            while !converged && iters < opts.max_iters {
                // q = p − DKSWP(p, 0), computed in place on q.
                ctx.ws_for_chunks(0..n, block, false, |span| {
                    // SAFETY: disjoint spans; ps published.
                    unsafe { chunk_mut(&qs, span.clone()).copy_from_slice(chunk(&ps, span)) };
                });
                op.sweep_ctx(ctx, norms, &qs, &zeros, omega, Direction::Forward, sched);
                op.sweep_ctx(ctx, norms, &qs, &zeros, omega, Direction::Backward, sched);
                ctx.ws_for_chunks(0..n, block, false, |span| {
                    // SAFETY: disjoint spans; qs published by the sweep.
                    let (q, p) = unsafe { (chunk_mut(&qs, span.clone()), chunk(&ps, span)) };
                    for (qi, pi) in q.iter_mut().zip(p) {
                        *qi = pi - *qi;
                    }
                });
                let pq = team_dot(ctx, n, |span| unsafe {
                    (chunk(&ps, span.clone()), chunk(&qs, span))
                });
                if !pq.is_finite() || pq == 0.0 {
                    // Breakdown: every thread sees the same pq (the
                    // reduction hands all threads one combined value),
                    // so the whole team leaves together.
                    break;
                }
                let alpha = rho / pq;
                ctx.ws_for_chunks(0..n, block, false, |span| {
                    // SAFETY: disjoint spans; inputs published.
                    let (x, p) =
                        unsafe { (chunk_mut(&xs, span.clone()), chunk(&ps, span.clone())) };
                    for (xi, pi) in x.iter_mut().zip(p) {
                        *xi += alpha * pi;
                    }
                    // SAFETY: as above.
                    let (r, q) = unsafe { (chunk_mut(&rs, span.clone()), chunk(&qs, span)) };
                    for (ri, qi) in r.iter_mut().zip(q) {
                        *ri -= alpha * qi;
                    }
                });
                let rho_new = team_dot(ctx, n, |span| unsafe {
                    (chunk(&rs, span.clone()), chunk(&rs, span))
                });
                let beta = rho_new / rho;
                rho = rho_new;
                ctx.ws_for_chunks(0..n, block, false, |span| {
                    // SAFETY: disjoint spans; rs published.
                    let (p, r) = unsafe { (chunk_mut(&ps, span.clone()), chunk(&rs, span)) };
                    for (pi, ri) in p.iter_mut().zip(r) {
                        *pi = ri + beta * *pi;
                    }
                });
                iters += 1;
                converged = rho <= thresh;
                if converged {
                    // Convergence exit via cancellation: with
                    // OMP_CANCELLATION armed this raises the team's
                    // cancel-parallel flag (observable in the runtime
                    // stats) and the break branches to the region end,
                    // the OpenMP-canonical early exit; disarmed, the
                    // SPMD break alone ends the lockstep loop.
                    fired = omp_cancel!(ctx, parallel);
                }
            }
            if ctx.thread_num() == 0 {
                iters_out.store(iters, Ordering::Relaxed);
                converged_out.store(converged, Ordering::Relaxed);
                cancelled_out.store(fired, Ordering::Relaxed);
            }
        });
    }
    let rel_residual = rel_residual_of(&op.mul(&x), b);
    CarpOutcome {
        x,
        iters: iters_out.load(Ordering::Relaxed),
        converged: converged_out.load(Ordering::Relaxed),
        rel_residual,
        cancelled: cancelled_out.load(Ordering::Relaxed),
    }
}

/// Format-adaptive CARP-CG: let the kernel-variant registry pick CSR
/// or SELL-C-σ for this problem size (`variants::select("carp-dkswp")`)
/// and report the measured solve back. The choice is made **once per
/// solve** — CG requires a fixed operator, so the format cannot change
/// mid-iteration.
pub fn carp_cg_adaptive(
    csr_op: &SweepMat<'_>,
    sell_op: &SweepMat<'_>,
    norms: &[f64],
    b: &[f64],
    opts: &CarpOptions,
) -> (CarpOutcome, usize) {
    let work = match csr_op {
        SweepMat::Csr { mat, .. } => mat.nnz() as u64,
        SweepMat::Sell(cs) => cs.sell.nnz as u64,
    };
    let choice = romp_core::variants::select("carp-dkswp", work, 2);
    let which = choice.index();
    let t0 = romp_core::get_wtime();
    let out = carp_cg(if which == 0 { csr_op } else { sell_op }, norms, b, opts);
    romp_core::variants::record(choice, romp_core::get_wtime() - t0);
    (out, which)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::{auto, greedy_multicolor};
    use crate::kacz::ColoredSell;
    use crate::matgen;

    #[test]
    fn sequential_solver_reaches_the_generating_solution() {
        let mat = matgen::banded(200, 4);
        let coloring = greedy_multicolor(&mat);
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        let out = carp_cg_seq(&mat, &norms, &coloring.order, &b, &CarpOptions::default());
        assert!(out.converged, "no convergence in {} iters", out.iters);
        assert!(out.rel_residual < 1e-7, "residual {}", out.rel_residual);
        let xt = matgen::x_true(200);
        let err = out
            .x
            .iter()
            .zip(&xt)
            .map(|(a, t)| (a - t).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-5, "max err {err}");
    }

    #[test]
    fn parallel_solver_matches_reference_within_tolerance() {
        let mat = matgen::random_sparse(150, 5, 11);
        let coloring = greedy_multicolor(&mat);
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
        let par = carp_cg(&op, &norms, &b, &opts);
        let seq = carp_cg_seq(&mat, &norms, &coloring.order, &b, &opts);
        assert!(par.converged && seq.converged);
        assert!(par.rel_residual < 1e-7, "par residual {}", par.rel_residual);
        let dx = par
            .x
            .iter()
            .zip(&seq.x)
            .map(|(a, c)| (a - c).abs())
            .fold(0.0, f64::max);
        assert!(dx < 1e-6, "par vs seq drifted {dx}");
    }

    #[test]
    fn sell_operator_converges_too() {
        let mat = matgen::banded(256, 5);
        let coloring = auto(&mat, 4);
        let cs = ColoredSell::build(&mat, &coloring, 8, 32);
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        let op = SweepMat::Sell(&cs);
        let opts = CarpOptions {
            threads: 3,
            ..Default::default()
        };
        let out = carp_cg(&op, &norms, &b, &opts);
        assert!(out.converged);
        assert!(out.rel_residual < 1e-7, "residual {}", out.rel_residual);
    }

    #[test]
    fn adaptive_picks_a_format_and_solves() {
        let mat = matgen::banded(128, 3);
        let coloring = auto(&mat, 2);
        let cs = ColoredSell::build(&mat, &coloring, 4, 16);
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        let csr_op = SweepMat::Csr {
            mat: &mat,
            coloring: &coloring,
        };
        let sell_op = SweepMat::Sell(&cs);
        let opts = CarpOptions {
            threads: 2,
            ..Default::default()
        };
        for _ in 0..3 {
            let (out, which) = carp_cg_adaptive(&csr_op, &sell_op, &norms, &b, &opts);
            assert!(which < 2);
            assert!(out.converged);
            assert!(out.rel_residual < 1e-7);
        }
    }
}
