//! Multi-colored Kaczmarz sweeps (KACZ), over CSR and SELL-C-σ.
//!
//! One Kaczmarz step projects the iterate onto row `i`'s hyperplane:
//!
//! ```text
//! x ← x + ω · (b_i − ⟨a_i, x⟩) / ‖a_i‖² · a_i
//! ```
//!
//! A sweep applies the step to every row once, in order; the sweep is
//! sequential by construction because step `i+1` reads what step `i`
//! wrote. A [`Coloring`] breaks exactly that
//! chain: within one phase, the parallel blocks touch pairwise-disjoint
//! column sets (proved by `Coloring::validate`), so the projections of
//! concurrent blocks read and write *disjoint* entries of `x` — any
//! thread interleaving produces **bitwise** the result of the
//! sequential sweep in the same permuted order. That makes the
//! verification contract exact, not approximate: the parallel sweep
//! here — [`SweepMat::sweep_ctx`], over CSR ([`sweep_csr_ctx`]) or
//! SELL-C-σ ([`ColoredSell::sweep_ctx`]), run inside the caller's
//! region — is tested bitwise against [`sweep_seq`] on the matching
//! order ([`SweepMat::sweep_order`]).
//!
//! The same argument, one level down, is what lets a *single thread*
//! go faster: rows with disjoint columns commute bitwise, so `C` of
//! them can be projected in **lockstep** — all dots first, as
//! independent accumulation chains, then the scales, then the updates
//! — instead of one latency-bound row after another. SELL tiles run
//! that way wherever [`ColoredSell::build`] proved the chunk's lanes
//! disjoint (and lane by lane where it could not); the in-region CSR
//! sweep does it for groups of rows of one color.
//!
//! The worksharing loops are named `site("kacz")` and CARP-CG runs
//! them `schedule(runtime)`, so with `OMP_SCHEDULE=auto` the romp-tune
//! learner picks the chunking per phase shape — the GHOST
//! `sell_kacz_rb` kernels' `#pragma omp parallel for schedule(runtime)`
//! made adaptive.

use crate::color::Coloring;
use crate::csr::Csr;
use crate::sell::{lockstep_lanes, Sell, PAD};
use romp_core::prelude::*;
use romp_core::slice::SharedSlice;

/// Sweep direction. A backward sweep visits rows in exactly the
/// reverse of the forward order (phases, blocks-in-unit and
/// rows-in-block all reversed), which is what makes the double sweep
/// (DKSWP) operator symmetric for CARP-CG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Sweep rows in the coloring's order.
    Forward,
    /// Sweep rows in the exact reverse order.
    Backward,
}

/// The tuned-site name every KACZ worksharing loop carries.
pub const KACZ_SITE: &str = "kacz";

/// Project `x` onto row `row`'s hyperplane (serial `&mut` variant).
#[inline]
pub fn project_row(mat: &Csr, norms: &[f64], row: usize, x: &mut [f64], b: &[f64], omega: f64) {
    let nrm = norms[row];
    if nrm == 0.0 {
        return;
    }
    let (cols, vals) = mat.row(row);
    let mut dot = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        dot += v * x[c];
    }
    let scale = omega * (b[row] - dot) / nrm;
    for (&c, &v) in cols.iter().zip(vals) {
        x[c] += scale * v;
    }
}

/// [`project_row`] against a shared view of `x`.
///
/// # Safety
///
/// No other thread may concurrently access any column of `row` — the
/// obligation a validated [`Coloring`] discharges for rows of
/// concurrent blocks within one phase.
#[inline]
unsafe fn project_row_shared(
    mat: &Csr,
    norms: &[f64],
    row: usize,
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    omega: f64,
) {
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
    let scale = omega * (b[row] - dot) / nrm;
    for (&c, &v) in cols.iter().zip(vals) {
        // SAFETY: as above.
        unsafe {
            let slot = x.get_mut(c);
            *slot += scale * v;
        }
    }
}

/// The sequential reference: one Kaczmarz sweep over `order` (reversed
/// for [`Direction::Backward`]). Every parallel sweep in this module
/// is bitwise-equal to this on its matching order.
pub fn sweep_seq(
    mat: &Csr,
    norms: &[f64],
    order: &[usize],
    x: &mut [f64],
    b: &[f64],
    omega: f64,
    dir: Direction,
) {
    match dir {
        Direction::Forward => {
            for &row in order {
                project_row(mat, norms, row, x, b, omega);
            }
        }
        Direction::Backward => {
            for &row in order.iter().rev() {
                project_row(mat, norms, row, x, b, omega);
            }
        }
    }
}

/// Sweep one coloring block sequentially (rows reversed when going
/// backward).
///
/// # Safety
///
/// Same column-exclusivity obligation as [`project_row_shared`], for
/// every row of the block.
unsafe fn project_block(
    mat: &Csr,
    norms: &[f64],
    rows: &[usize],
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    omega: f64,
    dir: Direction,
) {
    match dir {
        Direction::Forward => {
            for &row in rows {
                // SAFETY: forwarded obligation.
                unsafe { project_row_shared(mat, norms, row, x, b, omega) };
            }
        }
        Direction::Backward => {
            for &row in rows.iter().rev() {
                // SAFETY: forwarded obligation.
                unsafe { project_row_shared(mat, norms, row, x, b, omega) };
            }
        }
    }
}

/// Rows the CSR sweep projects in lockstep per worksharing iteration
/// when a phase's blocks are single rows.
const CSR_LANES: usize = 4;

/// Project `CSR_LANES` rows in lockstep: the dot products advance
/// together as independent accumulation chains (each still strictly in
/// its row's stored order), then the scales, then the updates.
///
/// Bitwise equal to projecting the rows one after another, in either
/// order, **because** their column footprints are pairwise disjoint —
/// no row reads what another writes.
///
/// # Safety
///
/// The rows must be pairwise column-disjoint, and no other thread may
/// concurrently access any of their columns.
unsafe fn project_rows_lockstep(
    mat: &Csr,
    norms: &[f64],
    rows: &[usize; CSR_LANES],
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    omega: f64,
) {
    let lanes = rows.map(|row| mat.row(row));
    let full = lanes.iter().map(|(cols, _)| cols.len()).min().unwrap_or(0);
    let mut dot = [0.0f64; CSR_LANES];
    for j in 0..full {
        for (acc, (cols, vals)) in dot.iter_mut().zip(&lanes) {
            // SAFETY: caller guarantees exclusivity of the columns.
            *acc += vals[j] * unsafe { x.read(cols[j]) };
        }
    }
    for (k, (cols, vals)) in lanes.iter().enumerate() {
        for (&c, &v) in cols[full..].iter().zip(&vals[full..]) {
            // SAFETY: as above.
            dot[k] += v * unsafe { x.read(c) };
        }
        let nrm = norms[rows[k]];
        if nrm == 0.0 {
            continue;
        }
        let scale = omega * (b[rows[k]] - dot[k]) / nrm;
        for (&c, &v) in cols.iter().zip(*vals) {
            // SAFETY: as above; lane k's columns are its own, so this
            // update is invisible to the later lanes' tails.
            unsafe {
                let slot = x.get_mut(c);
                *slot += scale * v;
            }
        }
    }
}

/// In-region colored sweep over CSR: one worksharing loop per phase
/// (blocks are the parallel units), `site("kacz")` named, construct
/// barriers separating phases. This is the building block CARP-CG
/// calls from inside its single long-lived region.
///
/// A phase whose blocks are single rows (a multicoloring color) is
/// workshared in groups of four (`CSR_LANES`) consecutive rows projected in
/// lockstep — same-phase blocks are column-disjoint, so the result is
/// bitwise the row-by-row one.
#[allow(clippy::too_many_arguments)] // mirrors the OpenMP kernel signature
pub fn sweep_csr_ctx(
    ctx: &ThreadCtx,
    mat: &Csr,
    norms: &[f64],
    coloring: &Coloring,
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    omega: f64,
    dir: Direction,
    sched: Schedule,
) {
    let phases = coloring.nphases();
    for i in 0..phases {
        let p = match dir {
            Direction::Forward => i,
            Direction::Backward => phases - 1 - i,
        };
        let blocks = coloring.phase_blocks(p);
        let phase_rows = coloring.block_ptr[blocks.end] - coloring.block_ptr[blocks.start];
        // As many rows as blocks: single-row blocks, unless some are
        // empty — which the per-group check below catches.
        let group = if phase_rows == blocks.len() {
            CSR_LANES
        } else {
            1
        };
        let _site = romp_core::runtime::tune::site_override(KACZ_SITE);
        ctx.ws_for(0..blocks.len().div_ceil(group), sched, false, |u| {
            let b0 = blocks.start + u * group;
            let b1 = (b0 + group).min(blocks.end);
            let ptr = &coloring.block_ptr[b0..=b1];
            let single_rows = ptr.windows(2).all(|w| w[1] - w[0] == 1);
            match <&[usize; CSR_LANES]>::try_from(&coloring.order[ptr[0]..ptr[b1 - b0]]) {
                // SAFETY: the rows are whole blocks of one phase, so
                // pairwise column-disjoint and untouched by every
                // concurrent iteration (Coloring::validate); the
                // construct barrier orders phases.
                Ok(rows) if single_rows => unsafe {
                    project_rows_lockstep(mat, norms, rows, x, b, omega)
                },
                _ => {
                    let each = |blk: usize| {
                        // SAFETY: as above, block by block.
                        unsafe {
                            project_block(mat, norms, coloring.block_rows(blk), x, b, omega, dir)
                        }
                    };
                    match dir {
                        Direction::Forward => (b0..b1).for_each(each),
                        Direction::Backward => (b0..b1).rev().for_each(each),
                    }
                }
            }
        });
    }
}

/// A SELL-C-σ matrix paired with the coloring that laid it out: the
/// chunks of each parallel unit are contiguous and never mix rows of
/// different units, so a unit sweep is a dense run of tiles.
///
/// A tile whose lanes are pairwise column-disjoint is projected in
/// **lockstep** — `C` dots in one column-major walk, `C` scales, `C`
/// scatter-updates — which is bitwise the lane-by-lane result because
/// disjoint rows commute exactly. Whether a chunk qualifies is
/// **proved per chunk** at build time ([`Sell::lanes_disjoint`]) and
/// recorded; a chunk that fails (or a chunk height without a lockstep
/// kernel) is walked one lane at a time.
#[derive(Debug, Clone)]
pub struct ColoredSell {
    /// The SELL-C-σ storage (rows laid out in coloring order, chunks
    /// aligned to unit boundaries).
    pub sell: Sell,
    /// Parallel units as `(first_chunk, end_chunk)` ranges, grouped by
    /// phase through `phase_unit_ptr`.
    unit_chunks: Vec<(usize, usize)>,
    /// Phase `p` owns units `phase_unit_ptr[p]..phase_unit_ptr[p+1]`.
    phase_unit_ptr: Vec<usize>,
    /// Per chunk: lanes proven pairwise column-disjoint.
    lockstep: Vec<bool>,
}

/// Lay one block's rows out stride-interleaved for chunk height `c`:
/// the block is cut into `c` contiguous runs and chunk `k` takes the
/// `k`-th row of every run, so a chunk's lanes sit a whole run apart —
/// column-disjoint on a banded matrix once a run is wider than the
/// band. The runs that are one row short come last, so all filler
/// lanes land in the block's final chunk, as [`Sell`] pads.
fn interleave_block(rows: &[usize], c: usize, out: &mut Vec<usize>) {
    let nchunks = rows.len().div_ceil(c);
    // Lanes `0..long` run `nchunks` rows, the rest one fewer.
    let long = rows.len() - nchunks.saturating_sub(1) * c;
    for k in 0..nchunks {
        for lane in 0..c {
            let (start, len) = if lane < long {
                (lane * nchunks, nchunks)
            } else {
                (lane * nchunks - (lane - long), nchunks - 1)
            };
            if k < len {
                out.push(rows[start + k]);
            }
        }
    }
}

impl ColoredSell {
    /// Lay `mat` out in SELL-C-σ form aligned to `coloring`:
    /// multicolorings (singleton blocks) segment by *phase* — any chunk
    /// of a phase is a parallel unit, since all its rows share a color
    /// — while zonings segment by *block* (a unit is a zone's chunk
    /// run, swept sequentially inside), each zone laid out
    /// stride-interleaved (`interleave_block`) so that its chunks'
    /// lanes are independent too. σ-sorting stays within a segment, so
    /// it can only reorder rows that are already interchangeable.
    ///
    /// Nothing about lockstep is *assumed* from the construction: every
    /// chunk's lanes are checked against the matrix afterwards.
    pub fn build(mat: &Csr, coloring: &Coloring, c: usize, sigma: usize) -> ColoredSell {
        debug_assert_eq!(coloring.validate(mat), Ok(()));
        let c = c.max(1);
        let singleton = coloring.singleton_blocks();
        let sell = if singleton {
            let boundaries = coloring.phase_boundaries();
            Sell::from_csr_ordered(mat, c, sigma, &coloring.order, &boundaries)
        } else {
            let mut order = Vec::with_capacity(coloring.order.len());
            for blk in 0..coloring.nblocks() {
                interleave_block(coloring.block_rows(blk), c, &mut order);
            }
            Sell::from_csr_ordered(mat, c, sigma, &order, coloring.block_boundaries())
        };
        let mut unit_chunks = Vec::new();
        let mut phase_unit_ptr = vec![0usize];
        if singleton {
            // Segment s == phase s: every chunk is its own unit.
            for s in 0..coloring.nphases() {
                let (c0, c1) = (sell.segment_chunk_ptr[s], sell.segment_chunk_ptr[s + 1]);
                for ch in c0..c1 {
                    unit_chunks.push((ch, ch + 1));
                }
                phase_unit_ptr.push(unit_chunks.len());
            }
        } else {
            // Segment b == block b: a unit is the block's chunk run.
            for p in 0..coloring.nphases() {
                for blk in coloring.phase_blocks(p) {
                    unit_chunks
                        .push((sell.segment_chunk_ptr[blk], sell.segment_chunk_ptr[blk + 1]));
                }
                phase_unit_ptr.push(unit_chunks.len());
            }
        }
        let lockstep = sell.lanes_disjoint();
        ColoredSell {
            sell,
            unit_chunks,
            phase_unit_ptr,
            lockstep,
        }
    }

    /// Number of barrier phases.
    pub fn nphases(&self) -> usize {
        self.phase_unit_ptr.len() - 1
    }

    /// The order a sequential reference must sweep in to match this
    /// layout bitwise (slot order, padding skipped).
    pub fn sweep_order(&self) -> Vec<usize> {
        self.sell.sweep_order()
    }

    /// Per chunk: did the lane-disjointness proof pass (the chunk is
    /// projected in lockstep where its height has a kernel)?
    pub fn lockstep_chunks(&self) -> &[bool] {
        &self.lockstep
    }

    /// Project the single row in `(ch, lane)`: the one-lane walk.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently access any column of the row.
    unsafe fn project_lane(
        &self,
        ch: usize,
        lane: usize,
        norms: &[f64],
        x: &SharedSlice<'_, f64>,
        b: &[f64],
        omega: f64,
    ) {
        let s = &self.sell;
        let row = s.slot_row[ch * s.c + lane];
        if row == PAD {
            return;
        }
        let nrm = norms[row];
        if nrm == 0.0 {
            return;
        }
        // SAFETY: forwarded obligation (unit exclusivity).
        let dot = s.lane_dot(ch, lane, |col| unsafe { x.read(col) });
        let scale = omega * (b[row] - dot) / nrm;
        let (cols, vals) = s.tile(ch);
        for j in 0..s.slot_len[ch * s.c + lane] {
            let idx = j * s.c + lane;
            // SAFETY: as above.
            unsafe {
                let cell = x.get_mut(cols[idx] as usize);
                *cell += scale * vals[idx];
            }
        }
    }

    /// Sweep one unit's chunk run sequentially (everything reversed
    /// when going backward).
    ///
    /// # Safety
    ///
    /// No other thread may concurrently access any column touched by
    /// the unit's rows.
    unsafe fn project_unit(
        &self,
        unit: usize,
        norms: &[f64],
        x: &SharedSlice<'_, f64>,
        b: &[f64],
        omega: f64,
        dir: Direction,
    ) {
        let (c0, c1) = self.unit_chunks[unit];
        let c = self.sell.c;
        let chunk = |ch: usize| {
            let lanes = |lane: usize| {
                // SAFETY: forwarded obligation.
                unsafe { self.project_lane(ch, lane, norms, x, b, omega) }
            };
            let lane_walk = || match dir {
                Direction::Forward => (0..c).for_each(lanes),
                Direction::Backward => (0..c).rev().for_each(lanes),
            };
            if !self.lockstep[ch] {
                return lane_walk();
            }
            // Disjoint lanes commute, so the tile needs no direction.
            // SAFETY: forwarded obligation; lanes proven disjoint; the
            // macro instantiates `project_tile::<C>` with `C == c`.
            unsafe { lockstep_lanes!(c, project_tile(self, ch, norms, x, b, omega), lane_walk()) }
        };
        match dir {
            Direction::Forward => (c0..c1).for_each(chunk),
            Direction::Backward => (c0..c1).rev().for_each(chunk),
        }
    }

    /// In-region colored sweep over the SELL tiles: one `site("kacz")`
    /// worksharing loop per phase, units as iterations.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_ctx(
        &self,
        ctx: &ThreadCtx,
        norms: &[f64],
        x: &SharedSlice<'_, f64>,
        b: &[f64],
        omega: f64,
        dir: Direction,
        sched: Schedule,
    ) {
        let phases = self.nphases();
        for i in 0..phases {
            let p = match dir {
                Direction::Forward => i,
                Direction::Backward => phases - 1 - i,
            };
            let units = self.phase_unit_ptr[p]..self.phase_unit_ptr[p + 1];
            let base = units.start;
            let _site = romp_core::runtime::tune::site_override(KACZ_SITE);
            ctx.ws_for(0..units.len(), sched, false, |u| {
                // SAFETY: units of one phase cover column-disjoint row
                // sets (Coloring::validate on the layout's coloring);
                // the construct barrier orders phases.
                unsafe { self.project_unit(base + u, norms, x, b, omega, dir) };
            });
        }
    }
}

/// Project all `C` rows of chunk `ch` in lockstep: `C` dots in one
/// column-major walk over the tile, `C` scales, then one walk of
/// scatter-updates, each lane masked to its true length (filler lanes
/// and zero-norm rows to 0, i.e. skipped).
///
/// # Safety
///
/// `C == cs.sell.c`, the chunk's lanes must be pairwise
/// column-disjoint (`cs.lockstep[ch]`), and no other thread may
/// concurrently access any column of the chunk's rows — padding
/// columns included, which is why [`Sell`] pads with the chunk's own.
#[inline(always)]
unsafe fn project_tile<const C: usize>(
    cs: &ColoredSell,
    ch: usize,
    norms: &[f64],
    x: &SharedSlice<'_, f64>,
    b: &[f64],
    omega: f64,
) {
    let s = &cs.sell;
    let slots = ch * C..(ch + 1) * C;
    let rows: &[usize; C] = s.slot_row[slots.clone()].try_into().expect("C == sell.c");
    let lens: &[usize; C] = s.slot_len[slots].try_into().expect("C == sell.c");
    // SAFETY: caller guarantees exclusivity of the chunk's columns.
    let dots = s.tile_dots::<C>(ch, lens, |col| unsafe { x.read(col) });
    let mut scale = [0.0f64; C];
    let mut live = [0usize; C];
    for l in 0..C {
        if rows[l] == PAD {
            continue;
        }
        let nrm = norms[rows[l]];
        if nrm != 0.0 {
            scale[l] = omega * (b[rows[l]] - dots[l]) / nrm;
            live[l] = lens[l];
        }
    }
    let update = |l: usize, col: u32, val: f64| {
        // SAFETY: as above; only called for real entries of lane l.
        unsafe {
            let cell = x.get_mut(col as usize);
            *cell += scale[l] * val;
        }
    };
    let (cols, vals) = s.tile(ch);
    // As in `tile_dots`: no mask below the shortest live lane.
    let full = live.iter().copied().min().unwrap_or(0);
    let (cols_full, cols_rest) = cols.split_at(full * C);
    let (vals_full, vals_rest) = vals.split_at(full * C);
    for (cj, vj) in cols_full.chunks_exact(C).zip(vals_full.chunks_exact(C)) {
        for l in 0..C {
            update(l, cj[l], vj[l]);
        }
    }
    for (j, (cj, vj)) in cols_rest
        .chunks_exact(C)
        .zip(vals_rest.chunks_exact(C))
        .enumerate()
    {
        for l in 0..C {
            if full + j < live[l] {
                update(l, cj[l], vj[l]);
            }
        }
    }
}

/// A sweepable operator: CSR + coloring, or a coloring-aligned
/// SELL-C-σ layout. CARP-CG is format-generic through this (and the
/// variant registry picks the format at run time).
#[derive(Debug, Clone, Copy)]
pub enum SweepMat<'a> {
    /// Sweep the CSR storage in coloring order.
    Csr {
        /// The matrix.
        mat: &'a Csr,
        /// Its proven row partition.
        coloring: &'a Coloring,
    },
    /// Sweep the SELL-C-σ tiles.
    Sell(&'a ColoredSell),
}

impl SweepMat<'_> {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        match self {
            SweepMat::Csr { mat, .. } => mat.n,
            SweepMat::Sell(cs) => cs.sell.n,
        }
    }

    /// The sequential-reference sweep order matching this operator
    /// bitwise.
    pub fn sweep_order(&self) -> Vec<usize> {
        match self {
            SweepMat::Csr { coloring, .. } => coloring.order.clone(),
            SweepMat::Sell(cs) => cs.sweep_order(),
        }
    }

    /// Serial `A·x` (for residual checks; format-dispatched).
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        match self {
            SweepMat::Csr { mat, .. } => mat.mul(x),
            SweepMat::Sell(cs) => {
                let mut y = vec![0.0; cs.sell.n];
                cs.sell.spmv_serial(x, &mut y);
                y
            }
        }
    }

    /// In-region colored sweep (dispatches to the format's kernel).
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_ctx(
        &self,
        ctx: &ThreadCtx,
        norms: &[f64],
        x: &SharedSlice<'_, f64>,
        b: &[f64],
        omega: f64,
        dir: Direction,
        sched: Schedule,
    ) {
        match self {
            SweepMat::Csr { mat, coloring } => {
                sweep_csr_ctx(ctx, mat, norms, coloring, x, b, omega, dir, sched)
            }
            SweepMat::Sell(cs) => cs.sweep_ctx(ctx, norms, x, b, omega, dir, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::{greedy_multicolor, red_black_zones};
    use crate::matgen;

    fn setup(n: usize) -> (Csr, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mat = matgen::banded(n, 3);
        let norms = mat.row_norms_sq();
        let xt = matgen::x_true(n);
        let b = mat.mul(&xt);
        let x0: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.25).collect();
        (mat, norms, b, x0)
    }

    #[test]
    fn colored_csr_sweep_is_bitwise_sequential() {
        let (mat, norms, b, x0) = setup(97);
        let coloring = greedy_multicolor(&mat);
        let op = SweepMat::Csr {
            mat: &mat,
            coloring: &coloring,
        };
        for dir in [Direction::Forward, Direction::Backward] {
            let mut want = x0.clone();
            sweep_seq(&mat, &norms, &coloring.order, &mut want, &b, 0.9, dir);
            for threads in [1, 2, 4] {
                for sched in [Schedule::dynamic_chunk(1), Schedule::static_block()] {
                    let got = sweep_in_region(&op, &norms, &x0, &b, dir, threads, sched);
                    assert_eq!(bits(&got), bits(&want), "threads={threads} {sched} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn zoned_sell_sweep_is_bitwise_sequential() {
        let (mat, norms, b, x0) = setup(128);
        let coloring = red_black_zones(&mat, 4).expect("banded zones");
        let cs = ColoredSell::build(&mat, &coloring, 4, 8);
        let order = cs.sweep_order();
        for dir in [Direction::Forward, Direction::Backward] {
            let mut want = x0.clone();
            sweep_seq(&mat, &norms, &order, &mut want, &b, 0.9, dir);
            for threads in [1, 3] {
                let op = SweepMat::Sell(&cs);
                let got = sweep_in_region(&op, &norms, &x0, &b, dir, threads, Schedule::guided());
                assert_eq!(bits(&got), bits(&want), "threads={threads} dir={dir:?}");
            }
        }
    }

    #[test]
    fn multicolored_sell_matches_its_reference() {
        let (mat, norms, b, x0) = setup(75);
        let coloring = greedy_multicolor(&mat);
        let cs = ColoredSell::build(&mat, &coloring, 4, 16);
        let order = cs.sweep_order();
        let mut want = x0.clone();
        sweep_seq(&mat, &norms, &order, &mut want, &b, 0.9, Direction::Forward);
        let got = sweep_in_region(
            &SweepMat::Sell(&cs),
            &norms,
            &x0,
            &b,
            Direction::Forward,
            4,
            Schedule::dynamic_chunk(1),
        );
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn sweeps_converge_toward_the_solution() {
        let (mat, norms, b, mut x) = setup(60);
        let xt = matgen::x_true(60);
        let coloring = greedy_multicolor(&mat);
        let op = SweepMat::Csr {
            mat: &mat,
            coloring: &coloring,
        };
        let r0: f64 = {
            let ax = mat.mul(&x);
            ax.iter().zip(&b).map(|(a, bi)| (bi - a) * (bi - a)).sum()
        };
        let view = SharedSlice::new(&mut x);
        parallel().num_threads(2).run(|ctx| {
            for _ in 0..50 {
                op.sweep_ctx(
                    ctx,
                    &norms,
                    &view,
                    &b,
                    1.0,
                    Direction::Forward,
                    Schedule::static_block(),
                );
            }
        });
        let r1: f64 = {
            let ax = mat.mul(&x);
            ax.iter().zip(&b).map(|(a, bi)| (bi - a) * (bi - a)).sum()
        };
        assert!(r1 < r0 * 1e-3, "residual {r0} -> {r1} did not drop");
        // And it is heading toward the generating solution.
        let err: f64 = x
            .iter()
            .zip(&xt)
            .map(|(a, t)| (a - t).abs())
            .fold(0.0, f64::max);
        assert!(err < 1.0, "max err {err}");
    }

    /// One in-region sweep of `op` from `x0`.
    fn sweep_in_region(
        op: &SweepMat<'_>,
        norms: &[f64],
        x0: &[f64],
        b: &[f64],
        dir: Direction,
        threads: usize,
        sched: Schedule,
    ) -> Vec<f64> {
        let mut x = x0.to_vec();
        let view = SharedSlice::new(&mut x);
        parallel()
            .num_threads(threads)
            .run(|ctx| op.sweep_ctx(ctx, norms, &view, b, 0.9, dir, sched));
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Random sparsity with rows 4 and 9 empty and row 6 explicit
    /// zeros only (nonzero length, zero norm).
    fn holey(n: usize) -> Csr {
        let base = matgen::random_sparse(n, 4, 99);
        let mut t = Vec::new();
        for i in (0..n).filter(|i| ![4, 9].contains(i)) {
            let (cols, vals) = base.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                t.push((i, c, if i == 6 { 0.0 } else { v }));
            }
        }
        Csr::from_triplets(n, &t)
    }

    #[test]
    fn lockstep_skips_filler_empty_and_zero_norm_rows() {
        let mat = holey(45);
        let norms = mat.row_norms_sq();
        assert_eq!((norms[4], norms[6], norms[9]), (0.0, 0.0, 0.0));
        let b: Vec<f64> = (0..mat.n).map(|i| 1.0 + (i % 3) as f64).collect();
        let x0: Vec<f64> = (0..mat.n).map(|i| (i % 7) as f64 * 0.25 - 0.5).collect();
        let coloring = greedy_multicolor(&mat);
        for c in [1, 2, 3, 4, 8, 16] {
            let cs = ColoredSell::build(&mat, &coloring, c, 8);
            // Multicolored chunks are disjoint by construction, and
            // the proof agrees; most phases end in filler lanes.
            assert!(cs.lockstep_chunks().iter().all(|&ok| ok));
            assert!(cs.sell.slot_row.contains(&PAD) || c == 1);
            let ops = [
                SweepMat::Sell(&cs),
                SweepMat::Csr {
                    mat: &mat,
                    coloring: &coloring,
                },
            ];
            for op in &ops {
                for dir in [Direction::Forward, Direction::Backward] {
                    let mut want = x0.clone();
                    sweep_seq(&mat, &norms, &op.sweep_order(), &mut want, &b, 0.9, dir);
                    let got =
                        sweep_in_region(op, &norms, &x0, &b, dir, 3, Schedule::dynamic_chunk(1));
                    assert_eq!(bits(&got), bits(&want), "C={c} {dir:?} {op:?}");
                }
            }
        }
    }

    #[test]
    fn interleave_is_a_permutation_with_trailing_short_runs() {
        let rows: Vec<usize> = (100..110).collect();
        let mut out = Vec::new();
        interleave_block(&rows, 4, &mut out);
        // Runs 100..103, 103..106, 106..108, 108..110: chunk k takes
        // the k-th row of each, the two short runs sit out the last.
        assert_eq!(out, [100, 103, 106, 108, 101, 104, 107, 109, 102, 105]);
        for (len, c) in [(0, 4), (1, 8), (7, 8), (8, 8), (9, 8), (31, 2), (5, 1)] {
            let rows: Vec<usize> = (0..len).collect();
            let mut out = Vec::new();
            interleave_block(&rows, c, &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, rows, "len={len} c={c}");
        }
    }

    #[test]
    fn banded_zones_interleave_into_lockstep_chunks() {
        let (mat, norms, b, x0) = setup(512);
        let coloring = red_black_zones(&mat, 2).expect("banded zones");
        let cs = ColoredSell::build(&mat, &coloring, 8, 1);
        // 128-row zones in 8 runs of 16 rows, band 3: every chunk's
        // lanes are 16 rows apart — all proven disjoint.
        assert!(cs.lockstep_chunks().iter().all(|&ok| ok));
        for dir in [Direction::Forward, Direction::Backward] {
            let mut want = x0.clone();
            sweep_seq(&mat, &norms, &cs.sweep_order(), &mut want, &b, 0.9, dir);
            let got = sweep_in_region(
                &SweepMat::Sell(&cs),
                &norms,
                &x0,
                &b,
                dir,
                2,
                Schedule::static_block(),
            );
            assert_eq!(bits(&got), bits(&want), "{dir:?}");
        }
    }

    #[test]
    fn chunk_with_a_shared_column_falls_back_to_the_lane_walk() {
        // Zones of 8 tridiagonal-ish rows at C = 4: the interleave puts
        // rows 2 apart in one chunk, and with half-bandwidth 3 those
        // share columns — the coloring is valid, the chunks are not
        // lockstep-safe.
        let (mat, norms, b, x0) = setup(32);
        let coloring = red_black_zones(&mat, 2).expect("banded zones");
        assert_eq!(coloring.validate(&mat), Ok(()));
        let cs = ColoredSell::build(&mat, &coloring, 4, 1);
        assert!(cs.lockstep_chunks().iter().all(|&ok| !ok));
        for dir in [Direction::Forward, Direction::Backward] {
            let mut want = x0.clone();
            sweep_seq(&mat, &norms, &cs.sweep_order(), &mut want, &b, 0.9, dir);
            for threads in [1, 2] {
                let got = sweep_in_region(
                    &SweepMat::Sell(&cs),
                    &norms,
                    &x0,
                    &b,
                    dir,
                    threads,
                    Schedule::guided(),
                );
                assert_eq!(bits(&got), bits(&want), "threads={threads} {dir:?}");
            }
            // Had the chunks run in lockstep, the result would differ:
            // the proof is what keeps the sweep exact.
            let mut forced = cs.clone();
            forced.lockstep.fill(true);
            let wrong = sweep_in_region(
                &SweepMat::Sell(&forced),
                &norms,
                &x0,
                &b,
                dir,
                1,
                Schedule::static_block(),
            );
            assert_ne!(
                bits(&wrong),
                bits(&want),
                "{dir:?}: lockstep on shared columns"
            );
        }
    }
}
