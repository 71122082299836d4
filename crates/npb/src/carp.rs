//! CARP — the sparse CARP-CG solver as an NPB-style kernel.
//!
//! Not an official NAS benchmark, but the paper's own workload family
//! (SELL-format Kaczmarz solvers) dressed in the NPB harness
//! conventions so it slots into the verification matrix, the Table-1
//! reports and the service soak alongside CG/EP/IS: per-class
//! deterministic problems, an untimed setup, a timed solve, a MOP/s
//! figure and a pass/fail verification.
//!
//! Per class the system is a seeded matrix from
//! [`romp_sparse::matgen`] with a consistent right-hand side (`b =
//! A·x_true`), so the solver's true relative residual can reach
//! machine precision and verification is residual-bounded (the solver
//! layer's own contract — the sweeps underneath verify bitwise, see
//! [`romp_sparse::kacz`]). S and W are banded (the red-black zoning
//! path); A and up are general random sparsity (the multicoloring
//! path). The romp configuration runs the **format-adaptive** solver:
//! the kernel-variant registry (`romp::variants`, key `"carp-dkswp"`)
//! picks CSR or SELL-C-σ per problem scale, and the KACZ sweeps run
//! `schedule(runtime)`, so `OMP_SCHEDULE` picks their chunking.

use crate::classes::Class;
use crate::verify::{KernelResult, Variant};
use romp_sparse::prelude::*;

/// Residual bar for verification: well above the solver's 1e-9
/// tolerance target, well below anything an incorrect sweep produces.
pub const RESIDUAL_BAR: f64 = 1e-7;

/// The per-class linear system: matrix, row norms, coloring and
/// consistent right-hand side (deterministic per class).
pub struct CarpProblem {
    /// The system matrix (CSR side).
    pub mat: Csr,
    /// `‖a_i‖²` per row.
    pub norms: Vec<f64>,
    /// Proven row partition (zoned when banded, multicolored else).
    pub coloring: Coloring,
    /// Right-hand side `A·x_true`.
    pub b: Vec<f64>,
}

/// Build the deterministic problem for `class`.
pub fn setup(class: Class) -> CarpProblem {
    let mat = match class {
        Class::S => matgen::banded(1400, 5),
        Class::W => matgen::banded(7000, 8),
        Class::A => matgen::random_sparse(14_000, 10, 314159),
        Class::B => matgen::random_sparse(75_000, 12, 314159),
        Class::C => matgen::random_sparse(150_000, 14, 314159),
    };
    // Zone-pair count fixed per problem (not per run): the coloring is
    // part of the problem statement, so every thread count sweeps the
    // same partition and verifies against the same reference order.
    let coloring = color::auto(&mat, 4);
    let norms = mat.row_norms_sq();
    let b = matgen::consistent_rhs(&mat);
    CarpProblem {
        mat,
        norms,
        coloring,
        b,
    }
}

/// SELL-C-σ layout parameters for the kernel (C = 8 lanes, σ = 4
/// chunks of sorting window).
pub const SELL_C: usize = 8;
/// σ (sorting-window size in rows).
pub const SELL_SIGMA: usize = 32;

fn flops(nnz: usize, n: usize, iters: usize) -> f64 {
    // Per CG iteration: one DKSWP double sweep (2 sweeps × ~4 flops
    // per nonzero + per-row scale arithmetic) plus the CG vector
    // updates and the two team dot products.
    iters as f64 * (8.0 * nnz as f64 + 16.0 * n as f64)
}

fn result(
    class: Class,
    variant: Variant,
    threads: usize,
    secs: f64,
    prob: &CarpProblem,
    out: &CarpOutcome,
) -> KernelResult {
    let n = prob.mat.n;
    let mean: f64 = out.x.iter().sum::<f64>() / n as f64;
    KernelResult {
        name: "CARP",
        class,
        variant,
        threads,
        time_s: secs,
        mops: flops(prob.mat.nnz(), n, out.iters.max(1)) / secs / 1e6,
        verified: out.converged && out.rel_residual <= RESIDUAL_BAR,
        checksum: mean,
    }
}

/// Sequential CARP-CG over the problem's coloring order (the speedup
/// baseline and the reference the parallel solve is bounded against).
pub fn run_serial(class: Class) -> KernelResult {
    let prob = setup(class);
    let opts = CarpOptions::default();
    let (out, secs) = romp_runtime::wtime::timed(|| {
        carp_cg_seq(&prob.mat, &prob.norms, &prob.coloring.order, &prob.b, &opts)
    });
    result(class, Variant::Serial, 1, secs, &prob, &out)
}

/// The romp configuration: format-adaptive parallel CARP-CG.
pub mod romp {
    use super::*;

    /// Run CARP-CG with `threads` threads (setup untimed, solve timed).
    pub fn run(class: Class, threads: usize) -> KernelResult {
        let prob = setup(class);
        let sell = ColoredSell::build(&prob.mat, &prob.coloring, SELL_C, SELL_SIGMA);
        let csr_op = SweepMat::Csr {
            mat: &prob.mat,
            coloring: &prob.coloring,
        };
        let sell_op = SweepMat::Sell(&sell);
        let opts = CarpOptions {
            threads,
            ..Default::default()
        };
        let ((out, _which), secs) = romp_runtime::wtime::timed(|| {
            carp_cg_adaptive(&csr_op, &sell_op, &prob.norms, &prob.b, &opts)
        });
        result(class, Variant::Romp, threads, secs, &prob, &out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::close;

    #[test]
    fn class_s_verifies_serial_and_parallel() {
        let s = run_serial(Class::S);
        assert!(s.verified, "serial: {s}");
        let p = romp::run(Class::S, 4);
        assert!(p.verified, "parallel: {p}");
        assert!(
            close(p.checksum, s.checksum, 1e-6),
            "{} vs {}",
            p.checksum,
            s.checksum
        );
    }
}
