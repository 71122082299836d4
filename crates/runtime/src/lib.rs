//! # romp-runtime — a from-scratch OpenMP-style runtime for Rust
//!
//! This crate is the substrate the `romp` directive layer lowers onto. It
//! plays the role the LLVM OpenMP runtime (`libomp`) plays for the paper's
//! Zig compiler integration: the directive front ends (macros in
//! `romp-core`, the `//#omp` source translator in `romp-pragma`) outline
//! annotated blocks into closures and hand them to [`fork`] — the analogue
//! of `__kmpc_fork_call` — together with worksharing, barrier, reduction,
//! lock and tasking services.
//!
//! The runtime is implemented entirely in safe-by-construction Rust plus a
//! small number of carefully documented `unsafe` blocks that erase closure
//! lifetimes across the fork/join boundary (the master thread provably
//! outlives the team; see [`pool`]).
//!
//! ## Construct inventory
//!
//! * **Parallel regions** — persistent worker [`pool`], team formation,
//!   nested parallelism, serialization when resources are exhausted.
//! * **Worksharing loops** — `static`, `static,chunk`, `dynamic`,
//!   `guided`, `runtime`, `auto` schedules ([`sched`], [`loops`]).
//! * **Barriers** — a centralized sense-reversing barrier with a
//!   spin-then-park wait policy ([`barrier`]).
//! * **Reductions** — operator lattice and a team reduction slot
//!   ([`reduction`]).
//! * **Synchronization** — `omp_lock`/`omp_nest_lock` equivalents,
//!   named `critical` sections ([`lock`], [`mod@critical`]).
//! * **Tasking** — explicit tasks with per-worker deques, work
//!   stealing, a `depend(in/out/inout)` dependence-graph scheduler,
//!   `taskwait`, `taskgroup`, `taskloop` with
//!   `grainsize`/`num_tasks`/`nogroup`, and the `if(false)`/`final`
//!   undeferred path ([`task`]).
//! * **Cancellation** — `cancel` / `cancellation point` for
//!   `parallel`, worksharing loops, `sections` and `taskgroup`, armed
//!   by the `OMP_CANCELLATION` ICV: cooperative chunk-granular early
//!   exit in the loop drivers, discard of not-yet-started tasks, and
//!   barrier release for blocked siblings ([`CancelKind`],
//!   [`ThreadCtx::cancel`]).
//! * **Kernel variants** — a registry that probes interchangeable
//!   implementations of a kernel and locks to the measured-fastest
//!   ([`variants`]).
//! * **Affinity & places** — `OMP_PLACES` / `OMP_PROC_BIND` parsing,
//!   place-partition inheritance across nesting levels, and real
//!   `sched_setaffinity` pinning on Linux with graceful degradation
//!   elsewhere ([`affinity`]).
//! * **ICVs and environment** — `OMP_NUM_THREADS`, `OMP_SCHEDULE`,
//!   `OMP_DYNAMIC`, `OMP_WAIT_POLICY`, `ROMP_HOT_TEAMS`, … ([`icv`],
//!   [`mod@env`]).
//! * **User API** — `omp_get_thread_num` and friends ([`api`]).
//!
//! ## Quick start
//!
//! ```
//! use romp_runtime::{fork, ForkSpec, Schedule};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! fork(ForkSpec::with_num_threads(4), |ctx| {
//!     // Each team thread gets disjoint chunks of the iteration space.
//!     ctx.ws_for(0..1000, Schedule::default(), false, |i| {
//!         sum.fetch_add(i as u64, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod api;
pub mod atomic;
pub mod barrier;
pub mod chaos;
pub mod critical;
pub mod ctx;
pub mod env;
pub mod icv;
pub mod lock;
pub mod loops;
pub mod pool;
pub mod reduction;
pub mod sched;
pub mod stats;
pub mod task;
pub mod team;
pub mod variants;
pub mod wtime;

pub use api::*;
pub use atomic::AtomicF64;
pub use critical::{critical, critical_named};
pub use ctx::{
    cancel_taskgroup, cancellation_point_taskgroup, CancelKind, SiblingPanic, TaskSpec,
    TaskloopSpec, ThreadCtx,
};
pub use env::display_env;
pub use icv::{Icvs, ProcBind, WaitPolicy};
pub use lock::{NestLock, OmpLock};
pub use loops::Ordered;
pub use pool::{fork, ForkSpec};
pub use reduction::{
    BitAndOp, BitOrOp, BitXorOp, LogAndOp, LogOrOp, MaxOp, MinOp, ProdOp, ReduceOp, SumOp,
};
pub use sched::Schedule;
pub use task::TaskDeps;
pub use wtime::{get_wtick, get_wtime};
