//! # romp — OpenMP-style parallelism for Rust
//!
//! A reproduction of *"Implementing OpenMP for Zig to Enable Its Use in
//! HPC Context"* (Kacs, Brown, Lee — ICPP 2024 workshops) with Rust as
//! the host language. The paper adds OpenMP's `parallel` and
//! worksharing-loop directives (plus the `shared`/`private`/
//! `firstprivate`, `schedule` and `reduction` clauses) to Zig through a
//! compiler preprocessing pass that outlines annotated blocks and calls
//! the LLVM OpenMP runtime; romp builds the same stack for Rust, from
//! scratch:
//!
//! * [`runtime`] — a fork-join runtime (worker pool, teams, schedules,
//!   barriers, reductions, locks, tasks, ICVs) standing in for libomp;
//! * [`core`] — the directive layer: `omp_parallel!`,
//!   `omp_parallel_for!` and friends, plus a typed builder API;
//! * [`pragma`] — `rompcc`, a source-to-source translator for `//#omp`
//!   comment directives (the compiler-pass analogue, since Rust, like
//!   Zig, has no native pragmas);
//! * [`fortran`] — the paper's Zig↔Fortran interop recipe, simulated
//!   (trailing-underscore mangling, by-reference args, column-major
//!   arrays);
//! * [`npb`] — the evaluation workloads: NPB CG, EP, IS and Mandelbrot,
//!   in reference and romp configurations, with official verification.
//!
//! ## Quick start
//!
//! ```
//! use romp::prelude::*;
//!
//! let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
//! let (sum,) = omp_parallel_for!(
//!     num_threads(4), schedule(static), reduction(+ : sum = 0.0),
//!     for i in 0..(data.len()) { sum += data[i]; }
//! );
//! assert_eq!(sum, (0..10_000).map(|i| i as f64).sum());
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub use romp_core as core;
pub use romp_fortran as fortran;
pub use romp_npb as npb;
pub use romp_pragma as pragma;
pub use romp_runtime as runtime;
pub use romp_sparse as sparse;

/// Everything a typical romp program needs in scope.
pub mod prelude {
    pub use romp_core::prelude::*;
}

// The kernel-variant registry (`romp::variants::run` and friends): N
// interchangeable implementations of a kernel, measured and locked to
// the fastest. See `romp_runtime::variants`.
pub use romp_runtime::variants;

// Re-export the directive macros at the crate root (macro_export places
// them at `romp_core`'s root; alias the crate so `romp::omp_parallel!`
// also works through the prelude).
pub use romp_core::{
    omp_barrier, omp_cancel, omp_cancellation_point, omp_critical, omp_for, omp_master,
    omp_ordered, omp_parallel, omp_parallel_for, omp_sections, omp_single, omp_task, omp_taskgroup,
    omp_taskloop, omp_taskwait,
};
