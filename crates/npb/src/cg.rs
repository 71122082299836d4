//! NPB CG — the Conjugate Gradient benchmark.
//!
//! Estimates the largest eigenvalue of a sparse symmetric matrix with a
//! shifted inverse power method: each outer iteration solves `A z = x`
//! with 25 (unpreconditioned) CG iterations and updates
//! `ζ = shift + 1/(x·z)`. The matrix is randomly generated by `makea`
//! (geometric diagonal scaling, random sparsity pattern) from the NPB
//! `randlc` stream — reproduced here *draw-for-draw*, so ζ verifies
//! against the official per-class constants with the official `1e-10`
//! relative tolerance.
//!
//! Two parallel configurations, per the paper's Table 1:
//! * [`mod@reference`] — the Fortran `cg.f` structure: the `conj_grad`
//!   inner solver is registered as a "Fortran" procedure and invoked
//!   through the [`romp_fortran`] bridge (mangled name, by-reference
//!   arguments), the way the paper calls Fortran from Zig.
//! * [`romp`] — the OpenMP-annotated structure written with romp's
//!   builder API: every vector update is a worksharing loop whose
//!   `a[j] = …` writes go through the **safe**
//!   [`write_into`](romp_core::ParFor::write_into) output layer (each
//!   loop's fork-join pair plays the role of `cg.f`'s barrier pairs, so
//!   no `unsafe` and no [`SharedSlice`](romp_core::slice::SharedSlice)
//!   escape hatch is needed), and every dot product is a builder
//!   `reduction(+)`.

use crate::classes::{CgParams, Class};
use crate::rng::{Randlc, SEED_CG};
use crate::verify::{KernelResult, Variant};
use romp_core::prelude::*;
use std::sync::Once;

/// Official verification tolerance (`cg.f`: `epsilon = 1.0d-10`).
pub const EPSILON: f64 = 1e-10;
/// Inner CG iterations per outer step (`cgitmax`).
pub const CGITMAX: usize = 25;
const RCOND: f64 = 0.1;

/// Sparse matrix in CSR form (0-based). The index arrays are
/// `INTEGER*4`, as `cg.f` declares them (`integer colidx(nz),
/// rowstr(na+1)`): the spmv is bandwidth-bound, and 12 bytes per
/// nonzero instead of 16 is a quarter less to stream. [`makea`]
/// refuses sizes the width cannot hold.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// Matrix order.
    pub n: usize,
    /// Row start offsets, `n + 1` entries.
    pub rowstr: Vec<i32>,
    /// Column indices per stored element.
    pub colidx: Vec<i32>,
    /// Element values.
    pub a: Vec<f64>,
}

impl CsrMatrix {
    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.a.len()
    }

    /// The three arrays, borrowed: what the solvers take, and what
    /// crosses the Fortran boundary by reference.
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            rowstr: &self.rowstr,
            colidx: &self.colidx,
            a: &self.a,
        }
    }
}

/// A borrowed CSR matrix (0-based, `INTEGER*4` indices).
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// Row start offsets, `n + 1` entries.
    pub rowstr: &'a [i32],
    /// Column indices per stored element.
    pub colidx: &'a [i32],
    /// Element values.
    pub a: &'a [f64],
}

impl CsrView<'_> {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.rowstr.len() - 1
    }

    /// Positions of `row`'s stored elements in `colidx` / `a`.
    #[inline]
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.rowstr[row] as usize..self.rowstr[row + 1] as usize
    }

    /// `(A·p)[row]`: one accumulator, elements in stored order (ζ is
    /// pinned bitwise by the tests, so neither may change).
    #[inline]
    pub fn row_dot(&self, row: usize, p: &[f64]) -> f64 {
        let r = self.row_range(row);
        let mut sum = 0.0;
        for (&v, &c) in self.a[r.clone()].iter().zip(&self.colidx[r]) {
            sum += v * p[c as usize];
        }
        sum
    }
}

/// `sprnvc`: draw `nz` distinct random (value, 1-based index) pairs
/// from the shared `randlc` stream, exactly as the Fortran does
/// (two draws per attempt; out-of-range and duplicate indices are
/// rejected and their draws consumed).
fn sprnvc(
    tran: &mut Randlc,
    n: usize,
    nz: usize,
    nn1: usize,
    v: &mut Vec<(f64, usize)>,
    mark: &mut [bool],
) {
    v.clear();
    while v.len() < nz {
        let vecelt = tran.next_f64();
        let vecloc = tran.next_f64();
        // icnvrt: i = int(nn1 * x) + 1
        let i = (nn1 as f64 * vecloc) as usize + 1;
        if i > n || mark[i] {
            continue;
        }
        mark[i] = true;
        v.push((vecelt, i));
    }
    for &(_, i) in v.iter() {
        mark[i] = false;
    }
}

/// `vecset`: force element `i` of the sparse vector to `val`.
fn vecset(v: &mut Vec<(f64, usize)>, i: usize, val: f64) {
    for entry in v.iter_mut() {
        if entry.1 == i {
            entry.0 = val;
            return;
        }
    }
    v.push((val, i));
}

/// `makea` + `sparse`: generate the class matrix. Consumes the
/// generator exactly like the Fortran (which has already made one draw
/// for the initial ζ before calling `makea` — see [`setup`]).
#[allow(clippy::needless_range_loop)] // keeps the Fortran loop shape
pub fn makea(tran: &mut Randlc, params: &CgParams) -> CsrMatrix {
    let n = params.na;
    let nonzer = params.nonzer;
    let ratio = RCOND.powf(1.0 / n as f64);
    let mut nn1 = 1usize;
    while nn1 < n {
        nn1 *= 2;
    }

    // Element triplets (row, col, value), 1-based like the Fortran.
    let cap = n * (nonzer + 1) * (nonzer + 1);
    let mut arow = Vec::with_capacity(cap.min(1 << 28));
    let mut acol = Vec::with_capacity(cap.min(1 << 28));
    let mut aelt = Vec::with_capacity(cap.min(1 << 28));

    let mut mark = vec![false; n + 1];
    let mut v: Vec<(f64, usize)> = Vec::with_capacity(nonzer + 1);
    let mut size = 1.0f64;
    for iouter in 1..=n {
        sprnvc(tran, n, nonzer, nn1, &mut v, &mut mark);
        vecset(&mut v, iouter, 0.5);
        for ivelt in 0..v.len() {
            let jcol = v[ivelt].1;
            let scale = size * v[ivelt].0;
            for ivelt1 in 0..v.len() {
                let irow = v[ivelt1].1;
                arow.push(irow as u32);
                acol.push(jcol as u32);
                aelt.push(v[ivelt1].0 * scale);
            }
        }
        size *= ratio;
    }
    // The rcond-shifted identity.
    for i in 1..=n {
        arow.push(i as u32);
        acol.push(i as u32);
        aelt.push(RCOND - params.shift);
    }

    sparse(n, &arow, &acol, &aelt)
}

/// The `sparse` assembly: bucket triplets by row, then squeeze
/// duplicate columns by summation, preserving first-occurrence column
/// order (as the Fortran's mark/nzloc pass does).
///
/// # Panics
///
/// If `n` or the triplet count does not fit the `INTEGER*4` index
/// arrays.
fn sparse(n: usize, arow: &[u32], acol: &[u32], aelt: &[f64]) -> CsrMatrix {
    let nnza = arow.len();
    assert!(
        n < i32::MAX as usize && nnza <= i32::MAX as usize,
        "NPB CG stores INTEGER*4 indices: n = {n} / {nnza} triplets do not fit 31 bits"
    );
    // Row bucket offsets.
    let mut rowstr = vec![0usize; n + 2];
    for &r in arow {
        rowstr[r as usize + 1] += 1;
    }
    for j in 1..=n + 1 {
        rowstr[j] += rowstr[j - 1];
    }
    // Scatter into row-major order.
    let mut next = rowstr.clone();
    let mut tmp_a = vec![0.0f64; nnza];
    let mut tmp_col = vec![0u32; nnza];
    for k in 0..nnza {
        let r = arow[k] as usize;
        let slot = next[r];
        tmp_a[slot] = aelt[k];
        tmp_col[slot] = acol[k];
        next[r] += 1;
    }
    // Squeeze duplicates per row, first-occurrence order.
    let mut x = vec![0.0f64; n + 1];
    let mut mark = vec![false; n + 1];
    let mut nzloc = Vec::with_capacity(64);
    let mut a = Vec::with_capacity(nnza / 2);
    let mut colidx = Vec::with_capacity(nnza / 2);
    let mut out_rowstr = vec![0i32; n + 1];
    for row in 1..=n {
        nzloc.clear();
        for k in rowstr[row]..rowstr[row + 1] {
            let c = tmp_col[k] as usize;
            x[c] += tmp_a[k];
            if !mark[c] {
                mark[c] = true;
                nzloc.push(c);
            }
        }
        for &c in &nzloc {
            mark[c] = false;
            let xi = x[c];
            x[c] = 0.0;
            if xi != 0.0 {
                a.push(xi);
                colidx.push((c - 1) as i32); // to 0-based
            }
        }
        out_rowstr[row] = a.len() as i32;
    }
    CsrMatrix {
        n,
        rowstr: out_rowstr,
        colidx,
        a,
    }
}

/// Generated problem: the matrix plus its parameters.
pub struct CgSetup {
    /// The class matrix.
    pub mat: CsrMatrix,
    /// Class parameters.
    pub params: CgParams,
    /// Problem class.
    pub class: Class,
}

/// Build the class problem, consuming the `randlc` stream exactly like
/// `cg.f` (one ζ-init draw, then `makea`).
pub fn setup(class: Class) -> CgSetup {
    let params = class.cg();
    let mut tran = Randlc::new(SEED_CG);
    let _zeta_init = tran.next_f64(); // cg.f: zeta = randlc(tran, amult)
    let mat = makea(&mut tran, &params);
    CgSetup { mat, params, class }
}

/// Serial inner CG solve: 25 iterations of unpreconditioned CG on
/// `A z = x`; returns `‖x − A·z‖`.
#[allow(clippy::needless_range_loop)] // keeps the Fortran loop shape
pub fn conj_grad_serial(mat: CsrView<'_>, x: &[f64], z: &mut [f64]) -> f64 {
    let n = mat.n();
    let mut r = x.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0f64; n];
    z.fill(0.0);
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..CGITMAX {
        for (row, qv) in q.iter_mut().enumerate() {
            *qv = mat.row_dot(row, &p);
        }
        let d: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let alpha = rho / d;
        for j in 0..n {
            z[j] += alpha * p[j];
            r[j] -= alpha * q[j];
        }
        let rho0 = rho;
        rho = r.iter().map(|v| v * v).sum();
        let beta = rho / rho0;
        for j in 0..n {
            p[j] = r[j] + beta * p[j];
        }
    }
    let mut sum = 0.0;
    for row in 0..n {
        let d = x[row] - mat.row_dot(row, z);
        sum += d * d;
    }
    sum.sqrt()
}

/// Parallel inner CG solve, the safe way: every vector update is a
/// worksharing loop writing through
/// [`write_into`](romp_core::ParFor::write_into)'s disjoint `&mut`
/// slots, every dot product a builder reduction. The fork-join around
/// each loop is the barrier pair `cg.f` places around its OpenMP
/// loops, so each loop reads only vectors fully published by the
/// previous join — which is exactly what the borrow checker verifies
/// (shared `&` reads vs. the one `&mut` output).
///
/// One fork-join per loop is ~6·CGITMAX forks per solve; with the
/// pooled runtime a fork is a barrier pair, and both Table-1
/// configurations share this solver.
pub fn conj_grad_parallel(mat: CsrView<'_>, x: &[f64], z: &mut [f64], threads: usize) -> f64 {
    let n = mat.n();
    let pf = || {
        par_for(0..n)
            .num_threads(threads)
            .schedule(Schedule::static_block())
    };
    let mut r = x.to_vec();
    let mut p = x.to_vec();
    let mut q = vec![0.0f64; n];
    z.fill(0.0);
    let mut rho = pf().reduce(SumOp, 0.0, |j, acc| *acc += x[j] * x[j]);
    for _ in 0..CGITMAX {
        // q = A·p, then d = p·q. The spmv dominates the solve, so it
        // runs through the kernel-variant registry: per-row writes vs.
        // chunked writes (one bounds-checked subslice per dispatch
        // chunk), measured per matrix size and locked to the faster.
        // `run` selects on the master, outside the fork, so the whole
        // team executes the same variant.
        romp_core::variants::run("cg-spmv", n as u64, 2, |which| match which {
            0 => pf().write_into(&mut q, |row, slot| *slot = mat.row_dot(row, &p)),
            _ => pf().write_chunks_into(&mut q, |rows, slots| {
                let base = rows.start;
                for row in rows {
                    slots[row - base] = mat.row_dot(row, &p);
                }
            }),
        });
        let d = pf().reduce(SumOp, 0.0, |j, acc| *acc += p[j] * q[j]);
        let alpha = rho / d;
        // z += αp; r −= αq; ρ' = r·r.
        pf().write_into(z, |j, slot| *slot += alpha * p[j]);
        pf().write_into(&mut r, |j, slot| *slot -= alpha * q[j]);
        let rho0 = rho;
        rho = pf().reduce(SumOp, 0.0, |j, acc| *acc += r[j] * r[j]);
        let beta = rho / rho0;
        // p = r + βp (each slot is this iteration's exclusive p[j]).
        pf().write_into(&mut p, |j, slot| *slot = r[j] + beta * *slot);
    }
    // ‖x − A·z‖.
    let z_ro: &[f64] = z;
    pf().reduce(SumOp, 0.0, |row, acc| {
        let dlt = x[row] - mat.row_dot(row, z_ro);
        *acc += dlt * dlt;
    })
    .sqrt()
}

/// Power-method driver shared by every configuration. `solver` runs one
/// inner CG solve into `z` and returns `rnorm`.
fn power_iterations(
    setup: &CgSetup,
    mut solver: impl FnMut(&[f64], &mut [f64]) -> f64,
) -> (f64, f64) {
    let n = setup.mat.n;
    let niter = setup.params.niter;
    let shift = setup.params.shift;
    let mut x = vec![1.0f64; n];
    let mut z = vec![0.0f64; n];
    // Untimed warm-up iteration, per cg.f.
    let _ = solver(&x, &mut z);
    let norm1: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
    let norm2: f64 = z.iter().map(|v| v * v).sum();
    let _ = shift + 1.0 / norm1;
    let inv = 1.0 / norm2.sqrt();
    for j in 0..n {
        x[j] = inv * z[j];
    }
    // Reset and run the timed iterations.
    x.fill(1.0);
    let mut zeta = 0.0;
    let (_, secs) = romp_runtime::wtime::timed(|| {
        for _ in 0..niter {
            let _rnorm = solver(&x, &mut z);
            let norm1: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
            let norm2: f64 = z.iter().map(|v| v * v).sum();
            zeta = shift + 1.0 / norm1;
            let inv = 1.0 / norm2.sqrt();
            for j in 0..n {
                x[j] = inv * z[j];
            }
        }
    });
    (zeta, secs)
}

/// Official ζ verification.
pub fn verify(class: Class, zeta: f64) -> bool {
    let reference = class.cg().zeta_verify;
    ((zeta - reference) / reference).abs() <= EPSILON
}

fn mops(params: &CgParams, secs: f64) -> f64 {
    let nz = params.nonzer * (params.nonzer + 1);
    (2 * params.niter * params.na) as f64 * (3.0 + nz as f64 + 25.0 * (5.0 + nz as f64) + 3.0)
        / secs
        / 1e6
}

fn result(setup: &CgSetup, variant: Variant, threads: usize, zeta: f64, secs: f64) -> KernelResult {
    KernelResult {
        name: "CG",
        class: setup.class,
        variant,
        threads,
        time_s: secs,
        mops: mops(&setup.params, secs),
        verified: verify(setup.class, zeta),
        checksum: zeta,
    }
}

/// Serial CG (speedup baseline). Reuses a prebuilt setup so benchmarks
/// don't regenerate the matrix.
pub fn run_serial_with(setup: &CgSetup) -> KernelResult {
    let (zeta, secs) = power_iterations(setup, |x, z| conj_grad_serial(setup.mat.view(), x, z));
    result(setup, Variant::Serial, 1, zeta, secs)
}

/// Serial CG including problem generation.
pub fn run_serial(class: Class) -> KernelResult {
    run_serial_with(&setup(class))
}

/// The romp builder-API configuration.
pub mod romp {
    use super::*;

    /// One parallel inner solve — see [`super::conj_grad_parallel`].
    pub fn conj_grad_parallel(mat: CsrView<'_>, x: &[f64], z: &mut [f64], threads: usize) -> f64 {
        super::conj_grad_parallel(mat, x, z, threads)
    }

    /// Run CG with a prebuilt problem.
    pub fn run_with(setup: &CgSetup, threads: usize) -> KernelResult {
        let (zeta, secs) = power_iterations(setup, |x, z| {
            conj_grad_parallel(setup.mat.view(), x, z, threads)
        });
        result(setup, Variant::Romp, threads, zeta, secs)
    }

    /// Run CG with `threads` threads (generates the problem).
    pub fn run(class: Class, threads: usize) -> KernelResult {
        run_with(&setup(class), threads)
    }
}

/// The reference configuration: `conj_grad` as a "Fortran" procedure
/// called through the interop bridge.
pub mod reference {
    use super::*;
    use romp_fortran::{global_registry, ArgRef, ArgVal};

    fn register() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // CONJ_GRAD(N, NNZ, ROWSTR(N+1), COLIDX(NNZ), A(NNZ),
            //           X(N), Z(N), RNORM, NTHREADS)
            // The arrays arrive by reference and are used in place:
            // N and NNZ are their extents, as in any f77 interface.
            global_registry().register("CONJ_GRAD", |args| {
                let (head, tail) = args.split_at_mut(6);
                let n = head[0].as_i64() as usize;
                let nnz = head[1].as_i64() as usize;
                let mat = CsrView {
                    rowstr: &head[2].as_i32_slice()[..n + 1],
                    colidx: &head[3].as_i32_slice()[..nnz],
                    a: &head[4].as_f64_slice()[..nnz],
                };
                let x = head[5].as_f64_slice();
                let (z_arg, rest) = tail.split_first_mut().expect("z argument");
                let z = z_arg.as_f64_slice_mut();
                let threads = rest[1].as_i64() as usize;
                let rn = super::romp::conj_grad_parallel(mat, x, z, threads);
                rest[0].set_f64(rn);
            });
        });
    }

    /// Run the reference CG with a prebuilt problem.
    pub fn run_with(setup: &CgSetup, threads: usize) -> KernelResult {
        register();
        let mat = &setup.mat;
        let n_arg = ArgVal::I64(mat.n as i64);
        let nnz_arg = ArgVal::I64(mat.nnz() as i64);
        let t_arg = ArgVal::I64(threads as i64);
        let (zeta, secs) = power_iterations(setup, |x, z| {
            let mut rnorm = ArgVal::F64(0.0);
            global_registry()
                .call(
                    "conj_grad_",
                    &mut [
                        n_arg.by_ref(),
                        nnz_arg.by_ref(),
                        ArgRef::I32Slice(&mat.rowstr),
                        ArgRef::I32Slice(&mat.colidx),
                        ArgRef::F64Slice(&mat.a),
                        ArgRef::F64Slice(x),
                        ArgRef::F64SliceMut(z),
                        rnorm.by_ref_mut(),
                        t_arg.by_ref(),
                    ],
                )
                .expect("Fortran conj_grad resolves");
            match rnorm {
                ArgVal::F64(v) => v,
                _ => unreachable!(),
            }
        });
        result(setup, Variant::Reference, threads, zeta, secs)
    }

    /// Run the reference CG with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        run_with(&setup(class), threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_serial_zeta_matches_official_value() {
        let r = run_serial(Class::S);
        assert!(
            r.verified,
            "class S zeta {:.13} vs official {:.13}",
            r.checksum,
            Class::S.cg().zeta_verify
        );
    }

    #[test]
    fn class_s_romp_parallel_verifies() {
        let s = setup(Class::S);
        for threads in [1, 2, 4] {
            let r = romp::run_with(&s, threads);
            assert!(r.verified, "threads={threads}: zeta={}", r.checksum);
        }
    }

    #[test]
    fn class_s_reference_verifies() {
        let s = setup(Class::S);
        let r = reference::run_with(&s, 4);
        assert!(r.verified, "reference zeta={}", r.checksum);
    }

    #[test]
    fn matrix_shape_class_s() {
        let s = setup(Class::S);
        assert_eq!(s.mat.n, 1400);
        assert_eq!(s.mat.rowstr.len(), 1401);
        // Symmetric pattern with a full diagonal: every row non-empty.
        for row in 0..s.mat.n {
            assert!(s.mat.rowstr[row + 1] > s.mat.rowstr[row], "empty row {row}");
        }
        // All column indices in range.
        assert!(s
            .mat
            .colidx
            .iter()
            .all(|&c| (0..s.mat.n as i32).contains(&c)));
    }

    #[test]
    fn serial_and_parallel_solves_agree() {
        let s = setup(Class::S);
        let x = vec![1.0f64; s.mat.n];
        let mut z1 = vec![0.0; s.mat.n];
        let mut z2 = vec![0.0; s.mat.n];
        let r1 = conj_grad_serial(s.mat.view(), &x, &mut z1);
        let r2 = romp::conj_grad_parallel(s.mat.view(), &x, &mut z2, 4);
        assert!((r1 - r2).abs() < 1e-9, "rnorm {r1} vs {r2}");
        for (a, b) in z1.iter().zip(&z2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        // makea builds A as a sum of scaled outer products v vT plus a
        // diagonal, so A is symmetric (up to multiplication ordering).
        let s = setup(Class::S);
        let m = s.mat.view();
        for row in (0..m.n()).step_by(97) {
            for k in m.row_range(row) {
                let col = m.colidx[k] as usize;
                let v = m.a[k];
                // find (col, row)
                let found = m
                    .row_range(col)
                    .find(|&k2| m.colidx[k2] as usize == row)
                    .map(|k2| m.a[k2]);
                // scale*v_i*v_j is computed in different association
                // orders for (i,j) and (j,i): equal to 1 ulp, not bitwise.
                let got = found.unwrap_or_else(|| panic!("missing A[{col}][{row}]"));
                assert!(
                    (got - v).abs() <= 1e-14 * v.abs().max(1.0),
                    "A[{row}][{col}]={v} vs A[{col}][{row}]={got}"
                );
            }
        }
    }

    #[test]
    fn diagonal_is_dominant_and_shifted() {
        // Every diagonal entry contains the rcond - shift term, making
        // it large and negative for class S (shift = 10).
        let s = setup(Class::S);
        let m = s.mat.view();
        for row in (0..m.n()).step_by(131) {
            let diag = m
                .row_range(row)
                .find(|&k| m.colidx[k] as usize == row)
                .map(|k| m.a[k])
                .expect("diagonal entry present");
            assert!(diag < -8.0, "row {row}: diag = {diag}");
        }
    }

    #[test]
    fn sparse_squeezes_duplicates() {
        // Two triplets on the same (row, col) must sum.
        let m = sparse(2, &[1, 1, 2], &[1, 1, 2], &[1.5, 2.5, 3.0]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.view().row_dot(0, &[1.0, 0.0]), 4.0);
        assert_eq!(m.view().row_dot(1, &[0.0, 1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "INTEGER*4 indices")]
    fn sparse_rejects_orders_beyond_the_index_width() {
        // Must fail on the check, before anything of size n is allocated.
        sparse(1usize << 32, &[], &[], &[]);
    }

    #[test]
    fn serial_zeta_is_bit_stable() {
        // The bits the 64-bit-index, indexed-loop `row_dot` produced:
        // index width and loop shape may not change the arithmetic.
        for (class, bits) in [
            (Class::S, 0x4021_31c1_4014_5f4d_u64),
            (Class::W, 0x4024_b9a6_1031_c699),
        ] {
            let r = run_serial(class);
            assert!(r.verified, "{r}");
            assert_eq!(
                r.checksum.to_bits(),
                bits,
                "class {class:?} zeta {}",
                r.checksum
            );
        }
    }
}
