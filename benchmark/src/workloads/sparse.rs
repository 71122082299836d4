//! `sparse-banded` and `sparse-random`: the `sparse` layer on the two
//! sparsity shapes that stress it differently.
//!
//! * banded — `matgen::banded(~150 000, 8)`: ~2.5 M nonzeros, ~41 MB
//!   in CSR (past the L2), two coloring phases, so a sweep is two big
//!   worksharing loops: kernel-bound. Where SIMD-SELL and first-touch
//!   work must show.
//! * random — `matgen::random_sparse(75 000, 12, seed)`: ~1 M nonzeros
//!   in ~50 coloring phases, so a sweep is ~50 tiny loops with a
//!   barrier each: barrier-bound at `T > 1`. σ-sorting and padding
//!   matter, spmv is a read-only gather, KACZ a read-modify-write
//!   scatter. A gain on banded that costs here shows.
//!
//! One rep = a CARP-CG solve to the 1e-9 target in CSR **and** in
//! SELL-C-σ (C = 8, σ = 32), 20 spmv per format, and 20 KACZ sweeps
//! (10 forward/backward pairs inside one region) per format.

use crate::harness::{span_median, Cfg, Checks, Env, Workload};
use crate::metrics::Layer;
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads::rng;
use romp::core::slice::SharedSlice;
use romp::npb::carp::{RESIDUAL_BAR, SELL_C, SELL_SIGMA};
use romp::prelude::*;
use romp::sparse::prelude::*;

/// Sparsity shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Banded, red-black zoned.
    Banded,
    /// Seeded random columns, multicolored.
    Random,
}

const SPMV_PER_REP: usize = 20;
const SWEEP_PAIRS_PER_REP: usize = 10;

/// Span names per storage format: spmv, sweep, solve.
const CSR_SPANS: [&str; 3] = ["sparse.spmv_csr", "sparse.kacz_csr", "sparse.carp_csr"];
const SELL_SPANS: [&str; 3] = ["sparse.spmv_sell", "sparse.kacz_sell", "sparse.carp_sell"];

/// Generate the matrix for `pattern` from `seed`.
pub fn generate(pattern: Pattern, seed: u64) -> Csr {
    let mut r = rng(seed, 2);
    match pattern {
        // The order is jittered so no result hangs on one alignment.
        Pattern::Banded => matgen::banded(150_000 + r.next_below(1024), 8),
        Pattern::Random => matgen::random_sparse(75_000, 12, r.next_u64()),
    }
}

/// FNV-1a over the matrix's structure and values (generator
/// determinism check).
pub fn checksum(mat: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mat.rowptr.iter().for_each(|&v| eat(v as u64));
    mat.cols.iter().for_each(|&v| eat(v as u64));
    mat.vals.iter().for_each(|&v| eat(v.to_bits()));
    h
}

/// One sparse system in both layouts.
pub struct Sparse {
    mat: Csr,
    coloring: Coloring,
    sell: Sell,
    colored: ColoredSell,
    norms: Vec<f64>,
    b: Vec<f64>,
    /// Seeded spmv operand and its serial product.
    x: Vec<f64>,
    y_ref: Vec<f64>,
    iters: Vec<f64>,
    worst_residual: f64,
    adaptive_pick: f64,
}

fn rel_residual(mat: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let ax = mat.mul(x);
    let num: f64 = ax.iter().zip(b).map(|(a, b)| (b - a) * (b - a)).sum();
    let den: f64 = b.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

/// One forward sweep from zero through `op` on `threads` threads.
fn one_sweep(op: &SweepMat<'_>, norms: &[f64], b: &[f64], threads: usize) -> Vec<f64> {
    let mut x = vec![0.0; op.n()];
    let view = SharedSlice::new(&mut x);
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        op.sweep_ctx(
            ctx,
            norms,
            &view,
            b,
            1.0,
            Direction::Forward,
            Schedule::static_block(),
        );
    });
    x
}

impl Sparse {
    /// Set-up: generate, color, build both SELL layouts, and prove one
    /// parallel sweep per layout bitwise equal to the sequential one.
    pub fn build(cfg: &Cfg, pattern: Pattern, checks: &mut Checks) -> Sparse {
        let mat = trace::span("sparse.matgen", 0, || generate(pattern, cfg.seed));
        let coloring = trace::span("sparse.color", 0, || color::auto(&mat, 4));
        checks.check(coloring.validate(&mat).is_ok(), || {
            "coloring is not column-disjoint".into()
        });
        let sell = trace::span("sparse.sell_build", 0, || {
            Sell::from_csr(&mat, SELL_C, SELL_SIGMA)
        });
        let colored = trace::span("sparse.colored_sell_build", 0, || {
            ColoredSell::build(&mat, &coloring, SELL_C, SELL_SIGMA)
        });
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        let mut r = rng(cfg.seed, 3);
        let x: Vec<f64> = (0..mat.n).map(|_| 0.5 + r.next_f64()).collect();
        let y_ref = mat.mul(&x);
        let s = Sparse {
            mat,
            coloring,
            sell,
            colored,
            norms,
            b,
            x,
            y_ref,
            iters: Vec::new(),
            worst_residual: 0.0,
            adaptive_pick: 0.0,
        };
        for (what, op) in [("CSR", s.csr_op()), ("SELL", s.sell_op())] {
            let par = one_sweep(&op, &s.norms, &s.b, cfg.threads);
            let mut seq = vec![0.0; s.mat.n];
            sweep_seq(
                &s.mat,
                &s.norms,
                &op.sweep_order(),
                &mut seq,
                &s.b,
                1.0,
                Direction::Forward,
            );
            let same = par
                .iter()
                .zip(&seq)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            checks.check(same, || {
                format!("{what} colored sweep differs from sweep_seq")
            });
        }
        s
    }

    fn csr_op(&self) -> SweepMat<'_> {
        SweepMat::Csr {
            mat: &self.mat,
            coloring: &self.coloring,
        }
    }

    fn sell_op(&self) -> SweepMat<'_> {
        SweepMat::Sell(&self.colored)
    }

    /// Flops of one CARP-CG solve, by the `npb::carp` formula.
    fn solve_flops(&self, iters: usize) -> f64 {
        iters.max(1) as f64 * (8.0 * self.mat.nnz() as f64 + 16.0 * self.mat.n as f64)
    }
}

impl Workload for Sparse {
    fn rep(&mut self, threads: usize, env: &mut Env<'_>) -> f64 {
        let nnz = self.mat.nnz() as f64;
        let sched = Schedule::static_block();
        let mut flops = 0.0;
        let mut iters = Vec::new();
        let mut worst = 0.0f64;
        let mut solutions = Vec::new();
        let mut y = vec![0.0; self.mat.n];
        for (spans, op) in [(CSR_SPANS, self.csr_op()), (SELL_SPANS, self.sell_op())] {
            let [spmv_span, sweep_span, solve_span] = spans;
            let opts = CarpOptions {
                threads,
                ..Default::default()
            };
            let out = trace::span(solve_span, env.op, || {
                carp_cg(&op, &self.norms, &self.b, &opts)
            });
            env.checks
                .check(out.converged && out.rel_residual <= RESIDUAL_BAR, || {
                    format!(
                        "{solve_span}: converged={} rel_residual={:e}",
                        out.converged, out.rel_residual
                    )
                });
            flops += self.solve_flops(out.iters);
            iters.push(out.iters as f64);
            worst = worst.max(out.rel_residual);
            solutions.push(out.x);

            for _ in 0..SPMV_PER_REP {
                trace::span(spmv_span, env.op, || match op {
                    SweepMat::Csr { mat, .. } => mat.spmv(&self.x, &mut y, threads, sched),
                    SweepMat::Sell(_) => self.sell.spmv(&self.x, &mut y, threads, sched),
                });
            }
            flops += SPMV_PER_REP as f64 * 2.0 * nnz;
            // Both layouts inherit CSR's per-row accumulation order.
            env.checks.check(y == self.y_ref, || {
                format!("{spmv_span}: y differs from serial A·x")
            });

            let mut xs = vec![0.0; self.mat.n];
            {
                let view = SharedSlice::new(&mut xs);
                let (norms, b, op_id) = (&self.norms, &self.b, env.op);
                fork(ForkSpec::with_num_threads(threads), |ctx| {
                    for _ in 0..SWEEP_PAIRS_PER_REP {
                        for dir in [Direction::Forward, Direction::Backward] {
                            let sweep = || op.sweep_ctx(ctx, norms, &view, b, 1.0, dir, sched);
                            // The master's span stands for the team's sweep.
                            if ctx.thread_num() == 0 {
                                trace::span(sweep_span, op_id, sweep);
                            } else {
                                sweep();
                            }
                        }
                    }
                });
            }
            flops += 2.0 * SWEEP_PAIRS_PER_REP as f64 * 4.0 * nnz;
            // Kaczmarz projections only ever shrink the error: twenty
            // sweeps from zero must have cut the residual tenfold.
            let res = rel_residual(&self.mat, &xs, &self.b);
            env.checks.check(res < 0.1, || {
                format!("{sweep_span}: residual {res:e} after sweeps")
            });
        }
        let scale = solutions[0].iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let gap = solutions[0]
            .iter()
            .zip(&solutions[1])
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        env.checks.check(gap <= 1e-6 * scale, || {
            format!("CSR and SELL solutions differ by {gap:e}")
        });
        self.iters.extend(iters);
        self.worst_residual = self.worst_residual.max(worst);
        flops / 1e9
    }

    fn probes(&mut self, threads: usize, _budget_s: f64, env: &mut Env<'_>) {
        // Let the variant registry probe and lock, then record its pick.
        let opts = CarpOptions {
            threads,
            ..Default::default()
        };
        for _ in 0..8 {
            let (out, which) = trace::span("sparse.carp_adaptive", env.op, || {
                carp_cg_adaptive(&self.csr_op(), &self.sell_op(), &self.norms, &self.b, &opts)
            });
            env.checks
                .check(out.converged && out.rel_residual <= RESIDUAL_BAR, || {
                    format!("adaptive solve: rel_residual={:e}", out.rel_residual)
                });
            self.adaptive_pick = which as f64;
        }
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Layer) {
        let (n, nnz) = (self.mat.n as f64, self.mat.nnz() as f64);
        let rate = |name: &str, flops: f64| {
            let s = span_median(spans, name);
            if s > 0.0 {
                flops / s / 1e9
            } else {
                0.0
            }
        };
        out.set("sparse.matgen_s", span_median(spans, "sparse.matgen"));
        out.set("sparse.color_s", span_median(spans, "sparse.color"));
        out.set("sparse.coloring_phases", self.coloring.nphases() as f64);
        out.set(
            "sparse.sell_build_s",
            span_median(spans, "sparse.sell_build")
                + span_median(spans, "sparse.colored_sell_build"),
        );
        out.set("sparse.sell_fill_ratio", self.sell.fill_ratio());
        out.set(
            "sparse.colored_sell_fill_ratio",
            self.colored.sell.fill_ratio(),
        );
        out.set("sparse.spmv_csr_gflops", rate("sparse.spmv_csr", 2.0 * nnz));
        out.set(
            "sparse.spmv_sell_gflops",
            rate("sparse.spmv_sell", 2.0 * nnz),
        );
        out.set("sparse.kacz_csr_gflops", rate("sparse.kacz_csr", 4.0 * nnz));
        out.set(
            "sparse.kacz_sell_gflops",
            rate("sparse.kacz_sell", 4.0 * nnz),
        );
        out.set(
            "sparse.carp_csr_solve_s",
            span_median(spans, "sparse.carp_csr"),
        );
        out.set(
            "sparse.carp_sell_solve_s",
            span_median(spans, "sparse.carp_sell"),
        );
        out.set("sparse.carp_iters", median(&self.iters));
        out.set("sparse.carp_rel_residual", self.worst_residual);
        out.set("sparse.carp_adaptive_pick", self.adaptive_pick);
        out.set("sparse.nnz", nnz);
        // Computed from array sizes (CSR: 8-byte column indices and
        // values, the row pointer, x read once, y written once) —
        // cache misses are not in it.
        let spmv_bytes = 16.0 * nnz + 8.0 * (n + 1.0) + 16.0 * n;
        out.set("sparse.working_set_mb", spmv_bytes / 1e6);
        out.set("sparse.bytes_per_spmv_computed", spmv_bytes);
        out.set("sparse.flops_per_byte_computed", 2.0 * nnz / spmv_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        // The generators are size-agnostic; compare at the real size
        // only for the cheap pattern.
        let a = generate(Pattern::Random, 11);
        assert_eq!(checksum(&a), checksum(&generate(Pattern::Random, 11)));
        assert_ne!(checksum(&a), checksum(&generate(Pattern::Random, 12)));
        let n = |seed| generate(Pattern::Banded, seed).n;
        assert_eq!(n(11), n(11));
        assert!((150_000..151_024).contains(&n(11)));
    }
}
