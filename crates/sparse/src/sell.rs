//! SELL-C-σ: the sliced-ELLPACK format the paper's kernels run on.
//!
//! Rows are grouped into *chunks* of height `C`; within a chunk the
//! nonzeros are stored column-major (`vals[chunk_ptr[ch] + j*C + lane]`
//! is the `j`-th nonzero of the chunk's `lane`-th row), every row
//! padded to the chunk's widest row so a chunk is a dense `C ×
//! chunk_len` tile — the unit SIMD/streaming kernels want. To keep the
//! padding small, rows are sorted by descending length within *sorting
//! windows* of `σ` rows before chunking (full-matrix sorting would
//! destroy locality; `σ = 1` is plain SELL-C).
//!
//! ## The lockstep contract
//!
//! The kernels walk a tile the way it is stored: one pass over the `j`
//! columns of the tile, all `C` lanes advancing together with one
//! accumulator each (`Sell::tile_dots`, monomorphized for `C ∈ {2, 4,
//! 8, 16}`; any other height runs the one-lane-at-a-time
//! `Sell::lane_dot` walk). That turns `C` serial floating-point add
//! chains into `C` independent ones — the reason the format pays for
//! its padding. Three properties keep it exact:
//!
//! * **Within-row nonzero order is preserved** from the source CSR and
//!   every lane accumulates strictly in that order, *masked* by its
//!   true row length ([`Sell::slot_len`]): a padding term is computed
//!   and discarded, never added — so per-row dots are *bitwise* equal
//!   to the CSR ones, which is what makes cross-format Kaczmarz
//!   verification exact.
//! * **Padding is readable but inert.** The lockstep walk *reads*
//!   padding slots before the mask drops them, so a padding slot holds
//!   value `0.0` and a column of the chunk's own footprint (the lane's
//!   first column; for an empty or filler lane the chunk's first) —
//!   never a foreign column such as 0, which another thread's Kaczmarz
//!   unit could be writing at that moment.
//! * **Chunks never cross segment boundaries** passed to
//!   [`Sell::from_csr_ordered`]. The Kaczmarz layer passes coloring
//!   block/phase boundaries there, so a chunk never mixes rows from
//!   different parallel units ([`crate::color`]); each segment is
//!   padded up to a multiple of `C` independently ([`Sell::slot_row`]
//!   holds [`PAD`] in the filler lanes).
//!
//! Column indices are stored as `u32` (construction asserts `n <
//! 2³²`): the index stream is half the size of CSR's.

use crate::csr::Csr;
use romp_core::prelude::*;
use romp_core::slice::SharedSlice;

/// Sentinel in [`Sell::slot_row`] for padding lanes (no source row).
pub const PAD: usize = usize::MAX;

/// Run `$kernel::<C>($args)` for the chunk heights that have a
/// monomorphized lockstep kernel, `$fallback` for every other height.
macro_rules! lockstep_lanes {
    ($c:expr, $kernel:ident ( $($arg:expr),* ), $fallback:expr) => {
        match $c {
            2 => $kernel::<2>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            16 => $kernel::<16>($($arg),*),
            _ => $fallback,
        }
    };
}
pub(crate) use lockstep_lanes;

/// A sparse matrix in SELL-C-σ form. See the module docs for layout.
#[derive(Debug, Clone)]
pub struct Sell {
    /// Matrix dimension.
    pub n: usize,
    /// Chunk height.
    pub c: usize,
    /// Sorting-window size (in rows).
    pub sigma: usize,
    /// Stored nonzeros (excluding padding).
    pub nnz: usize,
    /// Slot → source row (`slot = chunk * c + lane`), [`PAD`] for
    /// padding lanes. This is the row-permutation map.
    pub slot_row: Vec<usize>,
    /// Chunk `ch`'s tile starts at `chunk_ptr[ch]` in `cols`/`vals`.
    pub chunk_ptr: Vec<usize>,
    /// Width (longest row) of each chunk.
    pub chunk_len: Vec<usize>,
    /// True row length of each slot (0 for padding lanes): the
    /// accumulation mask that keeps kernels bitwise-equal to CSR.
    pub slot_len: Vec<usize>,
    /// Column index per tile entry (in padding positions: a column of
    /// the chunk's own footprint, see the module docs).
    pub cols: Vec<u32>,
    /// Value per tile entry (0.0 in padding positions).
    pub vals: Vec<f64>,
    /// Chunk index at which each input segment starts (one entry per
    /// segment boundary, `segment_chunk_ptr.last() == nchunks`).
    pub segment_chunk_ptr: Vec<usize>,
}

impl Sell {
    /// Convert from CSR with identity row order and a single segment.
    pub fn from_csr(mat: &Csr, c: usize, sigma: usize) -> Sell {
        let order: Vec<usize> = (0..mat.n).collect();
        Sell::from_csr_ordered(mat, c, sigma, &order, &[0, mat.n])
    }

    /// Convert from CSR laying rows out in `order`, σ-sorting and
    /// chunking independently within each segment
    /// `order[boundaries[s]..boundaries[s+1]]` (each segment padded to
    /// a multiple of `c`, so chunks never straddle a boundary).
    ///
    /// `boundaries` must be ascending positions into `order` starting
    /// at 0 and ending at `order.len()`; `order` must be a permutation
    /// of `0..mat.n`.
    pub fn from_csr_ordered(
        mat: &Csr,
        c: usize,
        sigma: usize,
        order: &[usize],
        boundaries: &[usize],
    ) -> Sell {
        let n = mat.n;
        let c = c.max(1);
        let sigma = sigma.max(1);
        assert!(
            n <= u32::MAX as usize,
            "SELL stores 32-bit column indices (n = {n})"
        );
        assert_eq!(order.len(), n, "order must cover every row");
        assert!(
            boundaries.first() == Some(&0) && boundaries.last() == Some(&n),
            "boundaries must span 0..=n"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be ascending"
        );

        let rowlen = |r: usize| mat.rowptr[r + 1] - mat.rowptr[r];
        // Per segment: σ-window sort (stable, by descending row length,
        // window by window so locality survives), then the chunk
        // geometry — groups of C, the last one padded. Geometry comes
        // before any tile is written so the tile arrays are allocated
        // once, exactly.
        let mut rows = order.to_vec();
        let mut chunk_ptr = vec![0usize];
        let mut chunk_len = Vec::new();
        let mut segment_chunk_ptr = vec![0usize];
        for seg in boundaries.windows(2) {
            let seg_rows = &mut rows[seg[0]..seg[1]];
            for w in seg_rows.chunks_mut(sigma) {
                w.sort_by_key(|&r| std::cmp::Reverse(rowlen(r)));
            }
            for chunk in seg_rows.chunks(c) {
                let width = chunk.iter().map(|&r| rowlen(r)).max().unwrap_or(0);
                chunk_ptr.push(chunk_ptr[chunk_len.len()] + width * c);
                chunk_len.push(width);
            }
            segment_chunk_ptr.push(chunk_len.len());
        }
        let nchunks = chunk_len.len();
        let mut slot_row = Vec::with_capacity(nchunks * c);
        let mut slot_len = Vec::with_capacity(nchunks * c);
        let mut cols = vec![0u32; chunk_ptr[nchunks]];
        let mut vals = vec![0.0f64; chunk_ptr[nchunks]];
        let chunks = boundaries
            .windows(2)
            .flat_map(|seg| rows[seg[0]..seg[1]].chunks(c));
        for (ch, chunk) in chunks.enumerate() {
            let (base, width) = (chunk_ptr[ch], chunk_len[ch]);
            // Padding column for lanes with no nonzero of their own
            // (some lane has one whenever `width > 0`).
            let chunk_fill = chunk
                .iter()
                .find_map(|&r| mat.row(r).0.first().copied())
                .unwrap_or(0);
            for lane in 0..c {
                let (rcols, rvals): (&[usize], &[f64]) = match chunk.get(lane) {
                    Some(&r) => {
                        slot_row.push(r);
                        mat.row(r)
                    }
                    None => {
                        slot_row.push(PAD);
                        (&[], &[])
                    }
                };
                slot_len.push(rcols.len());
                let fill = rcols.first().copied().unwrap_or(chunk_fill);
                for j in 0..width {
                    let (col, val) = match rcols.get(j) {
                        Some(&col) => (col, rvals[j]),
                        None => (fill, 0.0),
                    };
                    // Lossless: col < n < 2³² (asserted above).
                    cols[base + j * c + lane] = col as u32;
                    vals[base + j * c + lane] = val;
                }
            }
        }

        Sell {
            n,
            c,
            sigma,
            nnz: mat.nnz(),
            slot_row,
            chunk_ptr,
            chunk_len,
            slot_len,
            cols,
            vals,
            segment_chunk_ptr,
        }
    }

    /// Number of chunks.
    pub fn nchunks(&self) -> usize {
        self.chunk_len.len()
    }

    /// Stored entries including padding (`β⁻¹ · nnz` in SELL papers).
    pub fn padded_nnz(&self) -> usize {
        *self.chunk_ptr.last().expect("chunk_ptr non-empty")
    }

    /// Padding overhead: stored entries (incl. padding) over true nnz
    /// (1.0 = no fill; the acceptance bar for class S is < 2.0).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_nnz() as f64 / self.nnz as f64
        }
    }

    /// Chunk `ch`'s tile as `(cols, vals)`, `chunk_len[ch] * c` entries
    /// each, column-major.
    #[inline]
    pub(crate) fn tile(&self, ch: usize) -> (&[u32], &[f64]) {
        let span = self.chunk_ptr[ch]..self.chunk_ptr[ch + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// The lockstep kernel: `⟨a_row, x⟩` for all `C` lanes of chunk
    /// `ch` in one column-major walk over the tile, `x` read through
    /// `load`. Lane `l` adds exactly its first `lens[l]` products, in
    /// stored order, so each result is bitwise equal to
    /// [`Csr::row_dot`] on the lane's row (0.0 for empty and padding
    /// lanes); products past a lane's length are computed on padding
    /// and dropped by the mask.
    ///
    /// `C` must equal `self.c` and `lens` be the chunk's `slot_len`
    /// window (callers may shorten a lane to exclude it).
    #[inline(always)]
    pub(crate) fn tile_dots<const C: usize>(
        &self,
        ch: usize,
        lens: &[usize; C],
        load: impl Fn(usize) -> f64,
    ) -> [f64; C] {
        let (cols, vals) = self.tile(ch);
        // Every lane is live below the shortest row: no mask needed.
        let full = lens.iter().copied().min().unwrap_or(0);
        let (cols_full, cols_rest) = cols.split_at(full * C);
        let (vals_full, vals_rest) = vals.split_at(full * C);
        let mut acc = [0.0f64; C];
        for (cj, vj) in cols_full.chunks_exact(C).zip(vals_full.chunks_exact(C)) {
            for l in 0..C {
                acc[l] += vj[l] * load(cj[l] as usize);
            }
        }
        for (j, (cj, vj)) in cols_rest
            .chunks_exact(C)
            .zip(vals_rest.chunks_exact(C))
            .enumerate()
        {
            for l in 0..C {
                let sum = acc[l] + vj[l] * load(cj[l] as usize);
                acc[l] = if full + j < lens[l] { sum } else { acc[l] };
            }
        }
        acc
    }

    /// `⟨a_row, x⟩` for the single row in `(chunk, lane)`, accumulated
    /// in stored order over its true length (bitwise equal to
    /// [`Csr::row_dot`]). The one-lane walk behind chunk heights
    /// without a lockstep kernel and Kaczmarz chunks whose lanes are
    /// not provably independent.
    #[inline]
    pub(crate) fn lane_dot(&self, ch: usize, lane: usize, load: impl Fn(usize) -> f64) -> f64 {
        let (cols, vals) = self.tile(ch);
        let mut acc = 0.0;
        for j in 0..self.slot_len[ch * self.c + lane] {
            let idx = j * self.c + lane;
            acc += vals[idx] * load(cols[idx] as usize);
        }
        acc
    }

    /// Rows in slot order skipping padding: the sweep order a
    /// sequential Kaczmarz reference must use to match the SELL
    /// kernels bitwise.
    pub fn sweep_order(&self) -> Vec<usize> {
        self.slot_row
            .iter()
            .copied()
            .filter(|&r| r != PAD)
            .collect()
    }

    /// For every chunk: are the column footprints of its lanes pairwise
    /// disjoint? The same exact column-stamp pass as
    /// [`Coloring::validate`](crate::color::Coloring::validate), one
    /// level down (lanes of a chunk instead of blocks of a phase), over
    /// real entries only. It is what licenses projecting a chunk's rows
    /// in lockstep: disjoint rows commute *bitwise*.
    pub fn lanes_disjoint(&self) -> Vec<bool> {
        // Column → the last slot seen touching it.
        let mut stamp = vec![usize::MAX; self.n];
        (0..self.nchunks())
            .map(|ch| {
                let (cols, _) = self.tile(ch);
                let slots = ch * self.c..(ch + 1) * self.c;
                let mut disjoint = true;
                for (lane, slot) in slots.clone().enumerate() {
                    for j in 0..self.slot_len[slot] {
                        let col = cols[j * self.c + lane] as usize;
                        let prev = std::mem::replace(&mut stamp[col], slot);
                        disjoint &= prev == slot || !slots.contains(&prev);
                    }
                }
                disjoint
            })
            .collect()
    }

    /// `y[row] = ⟨a_row, x⟩` for every row of chunk `ch`, handed to
    /// `write` (lockstep where the chunk height has a kernel).
    #[inline]
    fn chunk_spmv(&self, ch: usize, x: &[f64], mut write: impl FnMut(usize, f64)) {
        let rows = &self.slot_row[ch * self.c..(ch + 1) * self.c];
        lockstep_lanes!(
            self.c,
            chunk_spmv_lockstep(self, ch, rows, x, &mut write),
            for (lane, &row) in rows.iter().enumerate() {
                if row != PAD {
                    write(row, self.lane_dot(ch, lane, |col| x[col]));
                }
            }
        )
    }

    /// Sequential `y = A·x` (y indexed by original row numbers).
    pub fn spmv_serial(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for ch in 0..self.nchunks() {
            self.chunk_spmv(ch, x, |row, dot| y[row] = dot);
        }
    }

    /// Parallel `y = A·x` over `threads`, one chunk tile per
    /// worksharing iteration. The σ-sort scatters each chunk's rows, so
    /// the writes go through a [`SharedSlice`]; the permutation map
    /// guarantees each `y[row]` has exactly one writer.
    pub fn spmv(&self, x: &[f64], y: &mut [f64], threads: usize, sched: Schedule) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let view = SharedSlice::new(y);
        par_for(0..self.nchunks())
            .num_threads(threads)
            .schedule(sched)
            .run(|ch| {
                self.chunk_spmv(ch, x, |row, dot| {
                    assert!(row < view.len());
                    // SAFETY: in bounds (checked above); slot_row is a
                    // permutation of rows (plus PAD), so no other
                    // iteration writes row.
                    unsafe { view.write(row, dot) }
                });
            });
    }
}

/// [`Sell::chunk_spmv`] for a chunk height with a lockstep kernel.
#[inline(always)]
fn chunk_spmv_lockstep<const C: usize>(
    sell: &Sell,
    ch: usize,
    rows: &[usize],
    x: &[f64],
    write: &mut impl FnMut(usize, f64),
) {
    let lens: &[usize; C] = sell.slot_len[ch * C..(ch + 1) * C]
        .try_into()
        .expect("C == sell.c");
    let dots = sell.tile_dots::<C>(ch, lens, |col| x[col]);
    for (&row, dot) in rows.iter().zip(dots) {
        if row != PAD {
            write(row, dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ragged(n: usize) -> Csr {
        // Row i has 1 + i % 5 nonzeros spread around the diagonal.
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0 + i as f64));
            for k in 1..=(i % 5) {
                t.push((i, (i + 3 * k) % n, 1.0 / k as f64));
            }
        }
        Csr::from_triplets(n, &t)
    }

    #[test]
    fn layout_roundtrips_every_row() {
        let m = ragged(37);
        let s = Sell::from_csr(&m, 4, 8);
        assert_eq!(s.sweep_order().len(), m.n);
        let mut seen = vec![false; m.n];
        for &r in &s.sweep_order() {
            assert!(!seen[r]);
            seen[r] = true;
        }
        // Chunk count covers padded rows; padded nnz ≥ nnz.
        assert_eq!(s.nchunks(), m.n.div_ceil(4));
        assert!(s.padded_nnz() >= m.nnz());
        assert!(s.fill_ratio() >= 1.0);
    }

    #[test]
    fn spmv_matches_csr_bitwise() {
        let m = ragged(53);
        let x: Vec<f64> = (0..m.n).map(|i| 0.1 + (i as f64).sin()).collect();
        let want = m.mul(&x);
        for (c, sigma) in [(1, 1), (4, 1), (4, 16), (8, 53), (16, 8)] {
            let s = Sell::from_csr(&m, c, sigma);
            let mut y = vec![0.0; m.n];
            s.spmv_serial(&x, &mut y);
            assert_eq!(y, want, "serial C={c} sigma={sigma}");
            let mut y2 = vec![0.0; m.n];
            s.spmv(&x, &mut y2, 4, Schedule::dynamic_chunk(2));
            assert_eq!(y2, want, "parallel C={c} sigma={sigma}");
        }
    }

    #[test]
    fn segments_never_share_chunks() {
        let m = ragged(20);
        let order: Vec<usize> = (0..20).collect();
        let s = Sell::from_csr_ordered(&m, 4, 4, &order, &[0, 7, 13, 20]);
        // Segment sizes 7, 6, 7 each pad to a multiple of C=4.
        assert_eq!(s.segment_chunk_ptr, vec![0, 2, 4, 6]);
        for (seg, w) in s.segment_chunk_ptr.windows(2).enumerate() {
            let rows: Vec<usize> = (w[0] * 4..w[1] * 4)
                .map(|slot| s.slot_row[slot])
                .filter(|&r| r != PAD)
                .collect();
            let want: std::collections::BTreeSet<usize> = order[[0, 7, 13][seg]..[7, 13, 20][seg]]
                .iter()
                .copied()
                .collect();
            assert_eq!(
                rows.iter()
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>(),
                want
            );
        }
    }

    #[test]
    fn sigma_sorting_reduces_fill() {
        let m = ragged(200);
        let plain = Sell::from_csr(&m, 8, 1);
        let sorted = Sell::from_csr(&m, 8, 64);
        assert!(sorted.fill_ratio() <= plain.fill_ratio());
    }

    /// Rows 2 and 5 empty, row 3 explicit zeros only (zero norm), the
    /// rest ragged: every masking case in one matrix.
    fn holey(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            match i {
                2 | 5 => {}
                3 => t.extend([(3, 1, 0.0), (3, 4, 0.0)]),
                _ => {
                    t.push((i, i, 1.5 + i as f64));
                    for k in 1..=(i % 4) {
                        t.push((i, (i + 2 * k) % n, -0.5 / k as f64));
                    }
                }
            }
        }
        Csr::from_triplets(n, &t)
    }

    #[test]
    fn padding_stays_inside_the_chunk_footprint() {
        let m = holey(19);
        // Segments of 3, 9 and 7 rows: the first is shorter than C = 4,
        // and every segment ends in filler lanes.
        let order: Vec<usize> = (0..19).rev().collect();
        let s = Sell::from_csr_ordered(&m, 4, 4, &order, &[0, 3, 12, 19]);
        assert_eq!(s.segment_chunk_ptr, vec![0, 1, 4, 6]);
        assert!(s.slot_row.contains(&PAD));
        for ch in 0..s.nchunks() {
            let (cols, vals) = s.tile(ch);
            // Columns the chunk's real entries touch.
            let mut own = std::collections::BTreeSet::new();
            for lane in 0..s.c {
                for j in 0..s.slot_len[ch * s.c + lane] {
                    own.insert(cols[j * s.c + lane]);
                }
            }
            for lane in 0..s.c {
                let slot = ch * s.c + lane;
                assert_eq!(
                    s.slot_len[slot] == 0,
                    matches!(s.slot_row[slot], PAD | 2 | 5)
                );
                for j in s.slot_len[slot]..s.chunk_len[ch] {
                    let idx = j * s.c + lane;
                    assert_eq!(vals[idx].to_bits(), 0.0f64.to_bits(), "pad value");
                    assert!(own.contains(&cols[idx]), "chunk {ch}: foreign pad column");
                    if s.slot_len[slot] > 0 {
                        assert_eq!(cols[idx], cols[lane], "lane's own first column");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_lanes_never_leak_into_a_dot() {
        let m = holey(23);
        // Non-finite operands: a padding product is NaN (0·∞), so any
        // unmasked padding term would poison its lane's result.
        let x: Vec<f64> = (0..m.n)
            .map(|i| {
                if i % 3 == 0 {
                    f64::INFINITY
                } else {
                    0.25 * i as f64
                }
            })
            .collect();
        let want: Vec<u64> = m.mul(&x).iter().map(|v| v.to_bits()).collect();
        let order: Vec<usize> = (0..m.n).collect();
        for c in [1, 2, 3, 4, 8, 16] {
            for sigma in [1, 8, 32] {
                let s = Sell::from_csr_ordered(&m, c, sigma, &order, &[0, 2, 2, 13, 23]);
                let mut y = vec![f64::NAN; m.n];
                s.spmv_serial(&x, &mut y);
                let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "C={c} sigma={sigma}");
            }
        }
    }

    #[test]
    fn lane_proof_accepts_disjoint_and_rejects_shared_columns() {
        // Tridiagonal: rows i and i+1 share columns, i and i+3 do not.
        let n = 12;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let m = Csr::from_triplets(n, &t);
        // Chunks {0,3,6,9} {1,4,7,10} {2,5,8,11}: all disjoint.
        let strided: Vec<usize> = (0..3)
            .flat_map(|k| (0..4).map(move |l| k + 3 * l))
            .collect();
        let s = Sell::from_csr_ordered(&m, 4, 1, &strided, &[0, n]);
        assert_eq!(s.lanes_disjoint(), vec![true; 3]);
        // Natural order: every chunk holds neighbours.
        let s = Sell::from_csr(&m, 4, 1);
        assert_eq!(s.lanes_disjoint(), vec![false; 3]);
        // Trade rows 9 and 11 between the outer chunks: {0,3,6,11} is
        // still disjoint, {2,5,8,9} now holds neighbours — and only
        // that chunk is rejected.
        let traded = [0, 3, 6, 11, 1, 4, 7, 10, 2, 5, 8, 9];
        let s = Sell::from_csr_ordered(&m, 4, 1, &traded, &[0, n]);
        assert_eq!(s.lanes_disjoint(), vec![true, true, false]);
    }

    #[test]
    #[should_panic(expected = "32-bit column indices")]
    fn rejects_dimensions_past_u32() {
        let m = Csr {
            n: u32::MAX as usize + 1,
            rowptr: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        };
        Sell::from_csr_ordered(&m, 4, 1, &[], &[0, 0]);
    }
}
