//! Fixture: one multi-colored Kaczmarz sweep written with `//#omp`
//! comment directives, translated by `rompcc` into
//! `kacz_translated.rs` (checked in; the translator test asserts the
//! translation is reproduced byte-for-byte, and the translated module
//! must produce results bitwise identical to the sequential reference
//! and the other two front ends).

use romp_core::slice::SharedSlice;

/// One forward KACZ sweep over raw CSR arrays in multicolor order:
/// `order[phase_ptr[p]..phase_ptr[p + 1]]` lists the rows of color `p`,
/// pairwise column-disjoint, so the worksharing loop's interleaving
/// cannot change the result bitwise. One parallel region per color
/// phase; the `schedule(runtime)` loop resolves through the
/// `run-sched-var` ICV (`OMP_SCHEDULE=auto` hands it to the tuner).
#[allow(clippy::too_many_arguments)]
pub fn kacz_sweep_colored(
    rowptr: &[usize],
    cols: &[usize],
    vals: &[f64],
    norms: &[f64],
    order: &[usize],
    phase_ptr: &[usize],
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    omega: f64,
    threads: usize,
) {
    for p in 0..phase_ptr.len() - 1 {
        let base = phase_ptr[p];
        let width = phase_ptr[p + 1] - base;
        romp_core::omp_parallel!(num_threads(threads), |__omp_ctx_0| {
            romp_core::omp_for!(__omp_ctx_0, schedule(runtime), for u in (0..width) {
                let row = order[base + u];
                let nrm = norms[row];
                if nrm != 0.0 {
                    let lo = rowptr[row];
                    let hi = rowptr[row + 1];
                    let mut dot = 0.0;
                    for j in lo..hi {
                        dot += vals[j] * unsafe { x.read(cols[j]) };
                    }
                    let scale = omega * (b[row] - dot) / nrm;
                    for j in lo..hi {
                        let c = cols[j];
                        unsafe { x.write(c, x.read(c) + scale * vals[j]) };
                    }
                }
            });
        });
    }
}
