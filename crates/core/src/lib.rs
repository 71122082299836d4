//! # romp-core — the OpenMP directive layer for Rust
//!
//! This crate is the paper's primary contribution transposed to Rust: it
//! gives Rust programs OpenMP's `parallel`, worksharing-loop,
//! `single`/`master`/`sections`, `critical`, `barrier` and `task`
//! constructs with the clauses the paper implements (`shared`, `private`,
//! `firstprivate`, `schedule`, `reduction`, plus `num_threads`, `if`,
//! `nowait`), lowered onto the from-scratch runtime in
//! [`romp_runtime`].
//!
//! Two front ends share the same lowering:
//!
//! * the **macros** in this crate ([`omp_parallel!`],
//!   [`omp_parallel_for!`], [`omp_for!`], …), whose clause syntax mirrors
//!   OpenMP pragma text — the in-language equivalent of the paper's
//!   comment directives;
//! * the **`//#omp` source translator** in `romp-pragma`, which rewrites
//!   comment-directive-annotated sources into calls to this crate's
//!   [`builder`] API (the analogue of the paper's compiler preprocessing
//!   pass).
//!
//! ## Quick start
//!
//! ```
//! use romp_core::prelude::*;
//!
//! // π by midpoint integration: an OpenMP classic.
//! let n = 100_000usize;
//! let h = 1.0 / n as f64;
//! let (sum,) = omp_parallel_for!(
//!     num_threads(4), schedule(static), reduction(+ : sum = 0.0),
//!     for i in 0..n {
//!         let x = h * (i as f64 + 0.5);
//!         sum += 4.0 / (1.0 + x * x);
//!     }
//! );
//! assert!((sum * h - std::f64::consts::PI).abs() < 1e-6);
//! ```
//!
//! The same loop through the builder API:
//!
//! ```
//! use romp_core::prelude::*;
//!
//! let n = 100_000usize;
//! let h = 1.0 / n as f64;
//! let sum = par_for(0..n)
//!     .num_threads(4)
//!     .schedule(Schedule::static_block())
//!     .reduce(SumOp, 0.0, |i, acc| {
//!         let x = h * (i as f64 + 0.5);
//!         *acc += 4.0 / (1.0 + x * x);
//!     });
//! assert!((sum * h - std::f64::consts::PI).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod builder;
#[macro_use]
mod macros;
pub mod prelude;
pub mod slice;
pub mod space;

pub use builder::{
    cancel, cancellation_point, par_for, par_for_2d, parallel, task, ParFor, ParFor2, Parallel,
    Task,
};
pub use space::{collapse2, collapse3, Collapse2, Collapse3, IterSpace, StridedRange};

// Re-export the runtime surface the macros and translated code use, so a
// single `romp_core` dependency suffices.
pub use romp_runtime::{
    self as runtime, critical, critical_named, fork, get_wtick, get_wtime, omp_get_active_level,
    omp_get_ancestor_thread_num, omp_get_cancellation, omp_get_dynamic, omp_get_level,
    omp_get_max_active_levels, omp_get_max_threads, omp_get_num_procs, omp_get_num_threads,
    omp_get_schedule, omp_get_team_size, omp_get_thread_limit, omp_get_thread_num, omp_get_wtick,
    omp_get_wtime, omp_in_parallel, omp_set_dynamic, omp_set_max_active_levels,
    omp_set_num_threads, omp_set_schedule, variants, BitAndOp, BitOrOp, BitXorOp, CancelKind,
    ForkSpec, LogAndOp, LogOrOp, MaxOp, MinOp, NestLock, OmpLock, ProdOp, ReduceOp, Schedule,
    SumOp, TaskDeps, TaskSpec, TaskloopSpec, ThreadCtx,
};
