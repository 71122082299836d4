//! # romp-sparse — the paper's performance core
//!
//! Hardware-efficient sparse kernels and the solver family the source
//! paper's evaluation targets: SELL-C-σ storage, colored Kaczmarz
//! sweeps (KACZ) and the CARP-CG solver, all running on romp's
//! OpenMP-style constructs.
//!
//! * [`csr`] — the CSR baseline format (construction, spmv, the
//!   bitwise accumulation contract every other kernel inherits);
//! * [`sell`] — SELL-C-σ (σ-window sorting, chunk-height-C tiles,
//!   padding stats, row-permutation map, 32-bit column indices) and
//!   the **lockstep** tile kernel;
//! * [`color`] — coloring/zoning passes (greedy multicolor, red-black
//!   zones) with *exact* disjointness validation;
//! * [`kacz`] — forward/backward colored Kaczmarz sweeps over both
//!   formats, run inside the caller's parallel region (the sweep
//!   CARP-CG calls) and bitwise-verified against a sequential
//!   reference; SELL tiles are projected in lockstep where a per-chunk
//!   proof allows it;
//! * [`carp`] — the CARP-CG (CGMN) solver: one parallel region,
//!   `schedule(runtime)` sweeps, slice-loop vector kernels, team
//!   reductions, `omp_cancel!` convergence exit;
//! * [`matgen`] — deterministic banded/random test matrices and
//!   consistent right-hand sides.
//!
//! ## The lockstep contract
//!
//! A row's dot product is a serial chain of floating-point adds, so a
//! kernel that finishes one row before starting the next runs at add
//! *latency*. The SELL kernels instead walk a `C × chunk_len` tile
//! column-major with one accumulator per lane — `C` independent chains
//! — each lane masked by its true row length, so every row still
//! accumulates strictly in CSR order and results stay **bitwise**
//! those of the CSR kernels ([`sell`] has the details, including why
//! padding slots must be readable). For Kaczmarz the same walk
//! projects `C` rows at once (`C` dots → `C` scales → `C`
//! scatter-updates), which is exact iff the chunk's lanes are pairwise
//! column-disjoint: multicolorings give that by construction, zonings
//! through a stride-interleaved layout, and in both cases
//! [`ColoredSell::build`] **proves** it per chunk with the stamp pass
//! [`Coloring::validate`] uses ([`Sell::lanes_disjoint`]); a chunk
//! that fails keeps the one-lane walk. There is one code path and no
//! knob: plain Rust, const-generic over `C`, no ISA dispatch.
//!
//! ```
//! use romp_sparse::prelude::*;
//!
//! let mat = matgen::banded(200, 4);
//! let coloring = color::auto(&mat, 4);
//! let norms = mat.row_norms_sq();
//! let b = matgen::consistent_rhs(&mat);
//! let op = SweepMat::Csr { mat: &mat, coloring: &coloring };
//! let opts = CarpOptions { threads: 4, ..Default::default() };
//! let out = carp_cg(&op, &norms, &b, &opts);
//! assert!(out.converged && out.rel_residual < 1e-7);
//! ```

#![warn(missing_docs)]

pub mod carp;
pub mod color;
pub mod csr;
pub mod kacz;
pub mod matgen;
pub mod sell;

/// The crate's working set in one import.
pub mod prelude {
    pub use crate::carp::{carp_cg, carp_cg_adaptive, carp_cg_seq, CarpOptions, CarpOutcome};
    pub use crate::color::{self, greedy_multicolor, red_black_zones, Coloring, ColoringError};
    pub use crate::csr::Csr;
    pub use crate::kacz::{sweep_csr_ctx, sweep_seq, ColoredSell, Direction, SweepMat};
    pub use crate::matgen;
    pub use crate::sell::Sell;
}

pub use prelude::*;
