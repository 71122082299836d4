//! SW — a blocked Smith-Waterman-style wavefront, the task-graph
//! workload.
//!
//! Local-alignment scoring of two NPB-`randlc`-generated pseudo-random
//! sequences: `H[i][j] = max(0, H[i-1][j-1] + s(a_i, b_j),
//! H[i-1][j] - GAP, H[i][j-1] - GAP)`. Every cell depends on its north,
//! west and north-west neighbours, so the matrix can only be filled
//! along anti-diagonal wavefronts — the canonical *irregular*
//! parallelism that flat worksharing loops cannot express and
//! dependent tasks can: the matrix is carved into rectangular blocks
//! and block `(bi, bj)` becomes one task with
//! `depend(in: tok[bi-1][bj], tok[bi][bj-1]) depend(out: tok[bi][bj])`.
//! The runtime's dependence graph then discovers the wavefront by
//! itself, keeping every anti-diagonal's blocks runnable in parallel
//! while successive diagonals pipeline through the work-stealing
//! deques.
//!
//! The parallel variants write the shared `H` matrix through
//! [`SharedSlice`]; the exclusivity obligation is discharged by the
//! dependence graph (a block's task is the unique writer of its cells,
//! and every cross-block read targets a predecessor block). Integer
//! scores make the result bit-exact, so verification is equality of a
//! position-weighted checksum with the sequential reference.
//!
//! One timed run ([`romp::run`]) contains three phases: input
//! generation (the two sequences, two bits per `randlc` state), the
//! task-graph fill of `H`, and the [`checksum`] that reduces `H` to the
//! verification value. `H` itself is lent from run to run, zeroed only
//! when first allocated (the halo is never written and the fill writes
//! every other cell), as NPB allocates its arrays once outside the
//! timer. The generation and the checksum are serial, so both are kept
//! short: the fill carries each row's west and north-west cells in
//! registers, and the checksum is chain-free — it folds the `mod P`
//! once per 8191-cell weight period instead of once per cell. Comparing
//! against the memoized [`expected_checksum`] is outside the timing.
//!
//! Three front ends produce the task graph — the `omp_task!` macro
//! ([`compute_tasks_macro`]), the [`romp_core::builder::task`] builder
//! ([`compute_tasks_builder`]), and the `//#omp` translator (the
//! `wavefront` fixture under `tests/fixtures/`) — and must agree
//! exactly; `tests/task_graph.rs` and the NPB verification matrix pin
//! that down.

use crate::classes::{Class, PerClass};
use crate::rng::{Randlc, SEED_CG};
use crate::verify::{KernelResult, Variant};
use romp_core::prelude::*;
use romp_core::slice::SharedSlice;
use std::sync::Mutex;

/// Match reward of the scoring function.
pub const MATCH: i64 = 3;
/// Mismatch penalty (applied as `+ MISMATCH`).
pub const MISMATCH: i64 = -1;
/// Gap penalty (applied as `- GAP`).
pub const GAP: i64 = 2;

/// Problem dimensions per class: `(rows, cols, block)`.
pub fn dims(class: Class) -> (usize, usize, usize) {
    match class {
        Class::S => (256, 256, 32),
        Class::W => (512, 512, 32),
        Class::A => (1024, 1024, 64),
        Class::B => (2048, 2048, 64),
        Class::C => (4096, 4096, 128),
    }
}

/// The two sequences over a 4-letter alphabet, from the NPB `randlc`
/// stream (seeded like CG, two bits per state through
/// [`Randlc::fill_symbols`]; `b` continues where `a` ends) —
/// deterministic across threads and variants.
pub fn sequences(class: Class) -> (Vec<u8>, Vec<u8>) {
    let (n, m, _) = dims(class);
    let mut rng = Randlc::new(SEED_CG);
    let (mut a, mut b) = (vec![0u8; n], vec![0u8; m]);
    rng.fill_symbols(2, &mut a);
    rng.fill_symbols(2, &mut b);
    (a, b)
}

/// Score one cell pair.
#[inline]
fn score(x: u8, y: u8) -> i64 {
    if x == y {
        MATCH
    } else {
        MISMATCH
    }
}

/// Fill the block `rows × cols = [i0, i1) × [j0, j1)` of the `H` matrix
/// (1-based cells over a `(len(a)+1) × (len(b)+1)` row-major grid).
///
/// The writes go through a [`SharedSlice`]; exclusivity is discharged
/// by the task dependence graph: this block's task is the sole writer
/// of its cells, and every read outside the block (row `i0 - 1`, column
/// `j0 - 1`) targets cells of the north/west/north-west predecessor
/// blocks, whose tasks completed before this one was released (the
/// diagonal is ordered transitively through either neighbour).
///
/// Along a row the west and north-west cells are carried in registers:
/// the cell just computed becomes the next west, the north just read
/// the next north-west. Only the north cell is loaded per step, so the
/// row's dependency chain is the `max` arithmetic, not a store
/// forwarded back into the next load; the west term is taken last, so
/// the chain is one subtract and one `max`. Scores are integers, so the
/// `max` order cannot change a bit: the cells are exactly those of
/// `process_block_serial`'s three reads.
pub fn process_block(
    h: &SharedSlice<i64>,
    a: &[u8],
    b: &[u8],
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    let stride = b.len() + 1;
    let b = &b[j0 - 1..j1 - 1];
    for i in i0..i1 {
        let (up, row) = ((i - 1) * stride, i * stride);
        let ai = a[i - 1];
        // SAFETY: see the function docs — the dependence graph
        // guarantees the north row and the west cell are final, and the
        // row segment `[j0, j1)` is this block's alone.
        let (north, out, mut west) = unsafe {
            (
                h.slice(up + j0..up + j1),
                h.slice_mut(row + j0..row + j1),
                h.read(row + j0 - 1),
            )
        };
        // SAFETY: as above (the north-west corner of the row).
        let mut nw = unsafe { h.read(up + j0 - 1) };
        for ((cell, &n), &bj) in out.iter_mut().zip(north).zip(b) {
            *cell = (nw + score(ai, bj)).max(n - GAP).max(0).max(west - GAP);
            nw = n;
            west = *cell;
        }
    }
}

/// Serial reference fill of one block (plain `&mut` access, three reads
/// per cell — the recurrence as written).
fn process_block_serial(
    h: &mut [i64],
    a: &[u8],
    b: &[u8],
    range_i: (usize, usize),
    range_j: (usize, usize),
) {
    let stride = b.len() + 1;
    for i in range_i.0..range_i.1 {
        for j in range_j.0..range_j.1 {
            let diag = h[(i - 1) * stride + (j - 1)] + score(a[i - 1], b[j - 1]);
            let up = h[(i - 1) * stride + j] - GAP;
            let left = h[i * stride + (j - 1)] - GAP;
            h[i * stride + j] = diag.max(up).max(left).max(0);
        }
    }
}

/// Weight period of [`checksum`]: cell `k` weighs `k % WEIGHT_PERIOD + 1`.
const WEIGHT_PERIOD: usize = 8191;

/// Position-weighted checksum of the scoring matrix: sensitive to any
/// misplaced, lost or reordered cell, and exactly reproducible (integer
/// arithmetic, below 2^53 so the `KernelResult` field is lossless).
///
/// The value is `max(h) · P + (Σ_k h[k] · (k % 8191 + 1)) mod P`. The
/// sum is chain-free: each 8191-cell weight period is summed without
/// reduction and folded into the running residue once. `H` cells are
/// non-negative, so the fold equals reducing after every term; a
/// period's sum is below `8191² · max(h)`, about 8.2e11 for class C's
/// largest possible cell (`3 · 4096`), far inside `i64`.
pub fn checksum(h: &[i64]) -> i64 {
    const P: i64 = 1_000_000_007;
    let mut best = 0i64;
    let mut acc = 0i64;
    for period in h.chunks(WEIGHT_PERIOD) {
        let mut sum = 0i64;
        for (w, &v) in (1i64..).zip(period) {
            best = best.max(v);
            sum += v * w;
        }
        acc = (acc + sum) % P;
    }
    best * P + acc
}

/// The score matrix of the last run, lent to the next one.
///
/// A run needs the whole `(n+1) × (m+1)` matrix (8.4 MB at class A).
/// Allocated afresh per run it is carved from the allocator's heap
/// beside whatever else the process grows, and a later run's matrix can
/// land on fresh pages while the old ones stay resident, so the
/// process's peak RSS grows by a second matrix. Lending one buffer from
/// run to run keeps one, and takes the zeroing out of the timed run.
///
/// Reuse needs no clearing: every fill writes every interior cell
/// before any read of it, and nothing writes the zero halo (row 0 and
/// column 0), which stays as the first allocation zeroed it.
static MATRIX: Mutex<Vec<i64>> = Mutex::new(Vec::new());

/// Run `f` on a zero-haloed `(n+1) × (m+1)` matrix: the lent one when
/// it has that size, else a fresh one, which is kept for the next run.
/// Concurrent runs each get their own (only one is kept).
fn with_matrix<R>(n: usize, m: usize, f: impl FnOnce(&mut [i64]) -> R) -> R {
    let len = (n + 1) * (m + 1);
    let mut h = std::mem::take(&mut *MATRIX.lock().unwrap());
    if h.len() != len {
        h = vec![0i64; len];
    }
    let out = f(&mut h);
    *MATRIX.lock().unwrap() = h;
    out
}

/// Serial wavefront: fill the whole matrix row-major and checksum it.
pub fn compute_serial(class: Class) -> i64 {
    let (n, m, _) = dims(class);
    let (a, b) = sequences(class);
    with_matrix(n, m, |h| {
        process_block_serial(h, &a, &b, (1, n + 1), (1, m + 1));
        checksum(h)
    })
}

/// Expected checksum per class, memoized (the analogue of the official
/// NPB verification values; computed from the sequential reference).
pub fn expected_checksum(class: Class) -> i64 {
    static MEMO: PerClass<i64> = PerClass::new();
    *MEMO.get_or_init(class, || compute_serial(class))
}

/// Block-task geometry shared by all parallel variants: block bounds
/// and the halo-padded dependence-token index (`(bi+1, bj+1)` in a
/// `(nbi+1) × (nbj+1)` grid, so edge blocks depend on never-written
/// halo tokens — no edges, no special cases).
struct Blocking {
    nbi: usize,
    nbj: usize,
    block: usize,
}

impl Blocking {
    fn new(class: Class) -> (Self, usize, usize) {
        let (n, m, block) = dims(class);
        (
            Blocking {
                nbi: n.div_ceil(block),
                nbj: m.div_ceil(block),
                block,
            },
            n,
            m,
        )
    }

    fn token_grid(&self) -> Vec<u8> {
        vec![0u8; (self.nbi + 1) * (self.nbj + 1)]
    }

    /// Token index of block `(bi, bj)` in the halo-padded grid.
    fn tok(&self, bi: usize, bj: usize) -> usize {
        (bi + 1) * (self.nbj + 1) + (bj + 1)
    }

    /// Cell bounds of block `(bi, bj)` for an `n × m` problem.
    fn bounds(&self, bi: usize, bj: usize, n: usize, m: usize) -> ((usize, usize), (usize, usize)) {
        let i0 = 1 + bi * self.block;
        let j0 = 1 + bj * self.block;
        (
            (i0, (i0 + self.block).min(n + 1)),
            (j0, (j0 + self.block).min(m + 1)),
        )
    }
}

/// Task-graph wavefront through the `omp_task!` macro front end.
pub fn compute_tasks_macro(class: Class, threads: usize) -> i64 {
    let (bl, n, m) = Blocking::new(class);
    let (a, b) = sequences(class);
    let tokens = bl.token_grid();
    with_matrix(n, m, |h| {
        let view = SharedSlice::new(h);
        let (view, a, b, bl, tokens) = (&view, &a, &b, &bl, &tokens);
        omp_parallel!(num_threads(threads), |ctx| {
            omp_single!(ctx, nowait, {
                for bi in 0..bl.nbi {
                    for bj in 0..bl.nbj {
                        let (ri, rj) = bl.bounds(bi, bj, n, m);
                        let (up, left, me) = (
                            bl.tok(bi, bj) - (bl.nbj + 1),
                            bl.tok(bi, bj) - 1,
                            bl.tok(bi, bj),
                        );
                        omp_task!(
                            ctx,
                            depend(in: tokens[up], tokens[left]; out: tokens[me]),
                            { process_block(view, a, b, ri, rj); }
                        );
                    }
                }
            });
            // The implicit region-end barrier drains the task graph.
        });
        checksum(h)
    })
}

/// Task-graph wavefront through the typed [`task`] builder front end.
pub fn compute_tasks_builder(class: Class, threads: usize) -> i64 {
    let (bl, n, m) = Blocking::new(class);
    let (a, b) = sequences(class);
    let tokens = bl.token_grid();
    with_matrix(n, m, |h| {
        let view = SharedSlice::new(h);
        let (view, a, b, bl, tokens) = (&view, &a, &b, &bl, &tokens);
        parallel().num_threads(threads).run(|ctx| {
            ctx.single(true, || {
                for bi in 0..bl.nbi {
                    for bj in 0..bl.nbj {
                        let (ri, rj) = bl.bounds(bi, bj, n, m);
                        let me = bl.tok(bi, bj);
                        task(ctx)
                            .depend_in(&tokens[me - (bl.nbj + 1)])
                            .depend_in(&tokens[me - 1])
                            .depend_out(&tokens[me])
                            .spawn(move || process_block(view, a, b, ri, rj));
                    }
                }
            });
        });
        checksum(h)
    })
}

fn result(class: Class, variant: Variant, threads: usize, secs: f64, sum: i64) -> KernelResult {
    let (n, m, _) = dims(class);
    KernelResult {
        name: "SW",
        class,
        variant,
        threads,
        time_s: secs,
        // "Operations" = cell updates of the scoring recurrence.
        mops: (n as f64 * m as f64) / secs / 1e6,
        verified: sum == expected_checksum(class),
        checksum: sum as f64,
    }
}

/// Serial run with NPB-style timing and verification.
pub fn run_serial(class: Class) -> KernelResult {
    let (sum, secs) = romp_runtime::wtime::timed(|| compute_serial(class));
    result(class, Variant::Serial, 1, secs, sum)
}

/// The romp configuration: the dependence-graph wavefront.
pub mod romp {
    use super::*;

    /// Run the macro-front-end task graph on `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        let (sum, secs) = romp_runtime::wtime::timed(|| compute_tasks_macro(class, threads));
        result(class, Variant::Romp, threads, secs, sum)
    }

    /// Run on the ICV-resolved default team size (`OMP_NUM_THREADS`) —
    /// what the CI env-pinned jobs exercise.
    pub fn run_env(class: Class) -> KernelResult {
        run(class, romp_runtime::omp_get_max_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum as first written: `mod P` after every cell, one
    /// dependent step per cell. The oracle for the chain-free form.
    fn checksum_chained(h: &[i64]) -> i64 {
        const P: i64 = 1_000_000_007;
        let mut best = 0i64;
        let mut acc = 0i64;
        for (k, &v) in h.iter().enumerate() {
            best = best.max(v);
            acc = (acc + v * ((k % 8191) as i64 + 1)) % P;
        }
        best * P + acc
    }

    #[test]
    fn expected_checksums_are_pinned() {
        // Literals, not a second computation through `checksum`: a
        // rewrite of the fill, the sequences or the checksum that moves
        // a bit fails here even if every variant agrees with it.
        assert_eq!(expected_checksum(Class::S), 272_242_684_619);
        assert_eq!(expected_checksum(Class::W), 525_728_600_392);
        assert_eq!(expected_checksum(Class::A), 1_046_076_586_666);
    }

    #[test]
    fn lent_matrix_gives_the_pinned_values_across_sizes() {
        // Reuse at one size, a resize, and reuse after it, through all
        // three fills: a cell left over from the previous run, or a
        // dirtied halo, would move the checksum.
        let (s, w) = (272_242_684_619, 525_728_600_392);
        assert_eq!(compute_tasks_macro(Class::S, 2), s);
        assert_eq!(compute_tasks_builder(Class::S, 2), s);
        assert_eq!(compute_serial(Class::W), w);
        assert_eq!(compute_tasks_macro(Class::W, 3), w);
        assert_eq!(compute_tasks_builder(Class::S, 1), s);
        assert_eq!(compute_serial(Class::S), s);
    }

    #[test]
    fn chain_free_checksum_equals_the_chained_one() {
        // Largest cell any class up to C can hold: a full-length match
        // run scores MATCH per cell.
        const MAX_CELL: i64 = MATCH * 4096;
        let mut rng = Randlc::new(SEED_CG);
        let mut grids: Vec<Vec<i64>> = [0, 1, 8190, 8192, 3 * 8191 + 17, 100_003]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| (rng.next_f64() * (MAX_CELL + 1) as f64) as i64)
                    .collect()
            })
            .collect();
        // Every period at the maximum: the largest sum a period can hold.
        grids.push(vec![MAX_CELL; 5 * 8191 + 4095]);
        // Sparse maxima over zeros, like a matrix with few alignments.
        grids.push(
            (0..50_000)
                .map(|k| if k % 997 == 0 { MAX_CELL } else { 0 })
                .collect(),
        );
        for h in &grids {
            assert_eq!(checksum(h), checksum_chained(h), "len {}", h.len());
        }
    }

    #[test]
    fn register_carried_fill_equals_the_serial_fill() {
        // Whole matrix in uneven blocks, in wavefront-legal row-major
        // block order, against the three-read reference.
        let (n, m, _) = dims(Class::S);
        let (a, b) = sequences(Class::S);
        let mut want = vec![0i64; (n + 1) * (m + 1)];
        process_block_serial(&mut want, &a, &b, (1, n + 1), (1, m + 1));
        let mut got = vec![0i64; (n + 1) * (m + 1)];
        {
            let view = SharedSlice::new(&mut got);
            let cuts = |len: usize| [1, 2, 37, 100, len / 2 + 1, len + 1];
            for ri in cuts(n).windows(2) {
                for rj in cuts(m).windows(2) {
                    process_block(&view, &a, &b, (ri[0], ri[1]), (rj[0], rj[1]));
                }
            }
        }
        assert!(got == want, "block fill differs from the serial fill");
    }

    #[test]
    fn serial_checksum_is_stable() {
        assert_eq!(compute_serial(Class::S), compute_serial(Class::S));
        // Matrix has nonzero content (the sequences do align somewhere).
        assert!(expected_checksum(Class::S) > 0);
    }

    #[test]
    fn macro_variant_matches_serial_at_various_thread_counts() {
        let want = expected_checksum(Class::S);
        for threads in [1, 2, 4, 16] {
            assert_eq!(compute_tasks_macro(Class::S, threads), want, "t={threads}");
        }
    }

    #[test]
    fn builder_variant_matches_serial() {
        let want = expected_checksum(Class::S);
        for threads in [1, 4] {
            assert_eq!(
                compute_tasks_builder(Class::S, threads),
                want,
                "t={threads}"
            );
        }
    }

    #[test]
    fn kernel_result_verifies() {
        let r = romp::run(Class::S, 4);
        assert!(r.verified, "{r}");
        assert_eq!(r.name, "SW");
    }

    #[test]
    fn dependence_stalls_actually_happen() {
        // The wavefront must exercise the dependence table: with one
        // spawner racing ahead of the workers, later blocks stall.
        let before = romp_runtime::stats::stats().snapshot();
        compute_tasks_macro(Class::S, 4);
        let d = before.delta(&romp_runtime::stats::stats().snapshot());
        assert!(d.tasks_spawned >= 64, "64 blocks = 64 tasks: {d:?}");
        assert!(
            d.tasks_dep_stalled > 0,
            "a wavefront without stalls did not test the graph: {d:?}"
        );
    }
}
