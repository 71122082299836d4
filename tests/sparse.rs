//! Property coverage of the coloring and layout invariants the sparse
//! solvers stand on. `Coloring::validate` re-proves disjointness
//! exactly, but these tests re-derive the claims *independently* (set
//! arithmetic over the raw structures, not the validator), so a bug
//! shared by the construction and the validator cannot hide:
//!
//! * no two rows sharing a column receive the same color;
//! * the colors cover all rows exactly once;
//! * the permuted SELL-C-σ layout visits exactly the same row set as
//!   the CSR reference within every color phase;
//! * the parallel colored sweep stays bitwise equal to the sequential
//!   reference under arbitrary matrices, schedules and team sizes —
//!   including the lockstep chunk kernels, across chunk heights,
//!   sorting windows, both colorings and both directions;
//! * SELL spmv is bitwise the CSR product.

use proptest::prelude::*;
use romp::prelude::*;
use romp_core::slice::SharedSlice;
use romp_sparse::prelude::*;
use romp_sparse::sell::PAD;
use std::collections::{HashMap, HashSet};

/// Number of distinct occurrences of every row index in `order`.
fn occurrence_counts(order: &[usize]) -> HashMap<usize, usize> {
    let mut counts = HashMap::new();
    for &row in order {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Multicoloring invariant #1, re-proved by hand: within one color
    /// phase no column is touched by two different rows (which is
    /// exactly "rows sharing a column never share a color").
    #[test]
    fn no_two_rows_sharing_a_column_get_one_color(
        n in 8usize..96,
        extra in 0usize..6,
        seed in 1u64..1_000_000,
    ) {
        let mat = matgen::random_sparse(n, extra, seed);
        let coloring = greedy_multicolor(&mat);
        prop_assert_eq!(coloring.validate(&mat), Ok(()));
        prop_assert!(coloring.singleton_blocks());
        let bounds = coloring.phase_boundaries();
        for p in 0..coloring.nphases() {
            // column → the row of this phase that claimed it.
            let mut owner: HashMap<usize, usize> = HashMap::new();
            for &row in &coloring.order[bounds[p]..bounds[p + 1]] {
                let (cols, _) = mat.row(row);
                for &c in cols {
                    if let Some(&other) = owner.get(&c) {
                        prop_assert_eq!(
                            other, row,
                            "rows {} and {} share column {} in color {}",
                            other, row, c, p
                        );
                    }
                    owner.insert(c, row);
                }
            }
        }
    }

    /// Multicoloring invariant #2: the colors partition the rows — every
    /// row of `0..n` appears in exactly one color, and the phase spans
    /// tile the order exactly.
    #[test]
    fn colors_cover_all_rows_exactly_once(
        n in 8usize..96,
        extra in 0usize..6,
        seed in 1u64..1_000_000,
    ) {
        let mat = matgen::random_sparse(n, extra, seed);
        let coloring = greedy_multicolor(&mat);
        let counts = occurrence_counts(&coloring.order);
        prop_assert_eq!(counts.len(), n, "some row is missing");
        prop_assert!(counts.values().all(|&c| c == 1), "some row repeats");
        prop_assert!(counts.keys().all(|&r| r < n), "out-of-range row");
        let bounds = coloring.phase_boundaries();
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(*bounds.last().unwrap(), n);
        prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "empty color");
    }

    /// Zoning on banded matrices: when `red_black_zones` accepts a zone
    /// count it validates exactly and still covers every row once; when
    /// it rejects, `auto` falls back to a multicoloring that validates.
    #[test]
    fn zoning_validates_or_auto_falls_back(
        n in 8usize..96,
        half_bw in 1usize..6,
        pairs in 1usize..5,
    ) {
        let mat = matgen::banded(n, half_bw);
        if let Ok(zoned) = red_black_zones(&mat, pairs) {
            prop_assert_eq!(zoned.validate(&mat), Ok(()));
            prop_assert!(zoned.nphases() <= 2);
            let counts = occurrence_counts(&zoned.order);
            prop_assert_eq!(counts.len(), n);
            prop_assert!(counts.values().all(|&c| c == 1));
        }
        let coloring = color::auto(&mat, pairs);
        prop_assert_eq!(coloring.validate(&mat), Ok(()));
    }

    /// SELL-C-σ layout invariant: per color phase, the permuted SELL
    /// sweep visits exactly the same row set as the CSR reference — the
    /// σ-sort may reorder rows *within* a phase segment but can never
    /// move a row across a phase boundary or drop/duplicate one; the
    /// padding lanes account for every slot the rows do not.
    #[test]
    fn sell_visits_the_same_row_set_per_color(
        n in 8usize..96,
        extra in 0usize..6,
        seed in 1u64..1_000_000,
        c_pick in 0usize..4,
        sigma_pick in 0usize..4,
    ) {
        let c = [1usize, 2, 4, 8][c_pick];
        let sigma = [1usize, 4, 16, 64][sigma_pick];
        let mat = matgen::random_sparse(n, extra, seed);
        let coloring = greedy_multicolor(&mat);
        let cs = ColoredSell::build(&mat, &coloring, c, sigma);
        let sell_order = cs.sweep_order();
        let bounds = coloring.phase_boundaries();
        // Whole-matrix cover first: the SELL sweep order is itself a
        // permutation of 0..n.
        let counts = occurrence_counts(&sell_order);
        prop_assert_eq!(counts.len(), n);
        prop_assert!(counts.values().all(|&k| k == 1));
        // Then phase by phase against the CSR reference order.
        for p in 0..coloring.nphases() {
            let span = bounds[p]..bounds[p + 1];
            let csr_rows: HashSet<usize> =
                coloring.order[span.clone()].iter().copied().collect();
            let sell_rows: HashSet<usize> =
                sell_order[span.clone()].iter().copied().collect();
            prop_assert_eq!(
                &sell_rows, &csr_rows,
                "color {} row sets diverge between SELL and CSR", p
            );
            // The same claim read off the raw tiles: the phase's chunk
            // run holds exactly these rows plus padding.
            let (c0, c1) = (
                cs.sell.segment_chunk_ptr[p],
                cs.sell.segment_chunk_ptr[p + 1],
            );
            let mut tile_rows = HashSet::new();
            let mut pad_slots = 0usize;
            for slot in (c0 * cs.sell.c)..(c1 * cs.sell.c) {
                match cs.sell.slot_row[slot] {
                    PAD => pad_slots += 1,
                    row => {
                        prop_assert!(tile_rows.insert(row), "row {} tiled twice", row);
                    }
                }
            }
            prop_assert_eq!(&tile_rows, &csr_rows);
            prop_assert_eq!(tile_rows.len() + pad_slots, (c1 - c0) * cs.sell.c);
        }
    }

    /// The payoff of the invariants above: a colored parallel sweep is
    /// bitwise the sequential sweep, for arbitrary matrices, schedules
    /// and team sizes, forward and backward, CSR and SELL.
    #[test]
    fn colored_sweeps_stay_bitwise_sequential(
        n in 8usize..80,
        extra in 0usize..5,
        seed in 1u64..1_000_000,
        threads in 1usize..5,
        sched_pick in 0usize..4,
        backward in proptest::bool::ANY,
    ) {
        let sched = [
            Schedule::static_block(),
            Schedule::static_chunk(2),
            Schedule::dynamic_chunk(1),
            Schedule::guided(),
        ][sched_pick];
        let dir = if backward { Direction::Backward } else { Direction::Forward };
        let mat = matgen::random_sparse(n, extra, seed);
        let coloring = greedy_multicolor(&mat);
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        let x0: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();

        let mut want = x0.clone();
        sweep_seq(&mat, &norms, &coloring.order, &mut want, &b, 1.0, dir);
        let mut got = x0.clone();
        sweep_csr_builder(&mat, &norms, &coloring, &mut got, &b, 1.0, dir, threads, sched);
        prop_assert_eq!(got, want, "CSR sweep diverged");

        let cs = ColoredSell::build(&mat, &coloring, 4, 8);
        let mut want_sell = x0.clone();
        sweep_seq(&mat, &norms, &cs.sweep_order(), &mut want_sell, &b, 1.0, dir);
        let mut got_sell = x0.clone();
        cs.sweep_builder(&norms, &mut got_sell, &b, 1.0, dir, threads, sched);
        prop_assert_eq!(got_sell, want_sell, "SELL sweep diverged");
    }
}

/// One in-region sweep through `op` (the path CARP-CG takes: lockstep
/// chunk kernels for SELL, lockstep row groups for multicolored CSR).
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
        .run(|ctx| op.sweep_ctx(ctx, norms, &view, b, 1.0, dir, sched));
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The lockstep contract: whatever the chunk height, sorting
    /// window, coloring, direction, team size and schedule, an
    /// in-region sweep is bitwise `sweep_seq` on `sweep_order()` —
    /// chunks run in lockstep only where their lanes were proven
    /// disjoint, and disjoint rows commute exactly.
    #[test]
    fn lockstep_sweeps_stay_bitwise_sequential(
        n in 24usize..200,
        seed in 1u64..1_000_000,
        banded in proptest::bool::ANY,
        density in 1usize..6,
        c_pick in 0usize..5,
        sigma_pick in 0usize..3,
        threads_pick in 0usize..3,
        sched_pick in 0usize..3,
        backward in proptest::bool::ANY,
    ) {
        let c = [1usize, 2, 4, 8, 16][c_pick];
        let sigma = [1usize, 8, 32][sigma_pick];
        let threads = [1usize, 2, 4][threads_pick];
        let sched = [
            Schedule::static_block(),
            Schedule::dynamic_chunk(1),
            Schedule::guided(),
        ][sched_pick];
        let dir = if backward { Direction::Backward } else { Direction::Forward };
        // Banded → red-black zones (interleaved units; `auto` falls
        // back to colors when the zones are too narrow for the band),
        // random → multicoloring (chunk units).
        let (mat, coloring) = if banded {
            let mat = matgen::banded(n, density);
            let coloring = color::auto(&mat, 2);
            (mat, coloring)
        } else {
            let mat = matgen::random_sparse(n, density, seed);
            let coloring = greedy_multicolor(&mat);
            (mat, coloring)
        };
        let norms = mat.row_norms_sq();
        let b = matgen::consistent_rhs(&mat);
        let x0: Vec<f64> = (0..n).map(|i| ((i as u64 ^ seed) % 9) as f64 * 0.25 - 1.0).collect();

        let cs = ColoredSell::build(&mat, &coloring, c, sigma);
        prop_assert_eq!(cs.lockstep_chunks().len(), cs.sell.nchunks());
        if coloring.singleton_blocks() {
            prop_assert!(cs.lockstep_chunks().iter().all(|&ok| ok), "one color, shared column");
        }
        let ops = [SweepMat::Sell(&cs), SweepMat::Csr { mat: &mat, coloring: &coloring }];
        for op in &ops {
            let mut want = x0.clone();
            sweep_seq(&mat, &norms, &op.sweep_order(), &mut want, &b, 1.0, dir);
            let got = sweep_in_region(op, &norms, &x0, &b, dir, threads, sched);
            prop_assert_eq!(bits(&got), bits(&want), "{:?} diverged", op);
        }
    }

    /// SELL spmv inherits CSR's per-row accumulation order through the
    /// lockstep mask: serial and parallel products are bitwise
    /// `Csr::mul`, ragged rows, empty rows and filler lanes included.
    #[test]
    fn sell_spmv_is_bitwise_the_csr_product(
        n in 8usize..200,
        extra in 0usize..9,
        seed in 1u64..1_000_000,
        c_pick in 0usize..6,
        sigma_pick in 0usize..3,
        threads in 1usize..5,
        sched_pick in 0usize..3,
    ) {
        let c = [1usize, 2, 3, 4, 8, 16][c_pick];
        let sigma = [1usize, 8, 32][sigma_pick];
        let sched = [
            Schedule::static_block(),
            Schedule::dynamic_chunk(1),
            Schedule::guided(),
        ][sched_pick];
        // Knock out every seventh row so empty rows are always present.
        let full = matgen::random_sparse(n, extra, seed);
        let mut triplets = Vec::new();
        for i in (0..n).filter(|i| i % 7 != 3) {
            let (cols, vals) = full.row(i);
            triplets.extend(cols.iter().zip(vals).map(|(&col, &v)| (i, col, v)));
        }
        let mat = Csr::from_triplets(n, &triplets);
        let x: Vec<f64> = (0..n).map(|i| 0.1 + ((i as u64 * 31 + seed) % 101) as f64 / 7.0).collect();
        let want = bits(&mat.mul(&x));
        let sell = Sell::from_csr(&mat, c, sigma);
        let mut y = vec![f64::NAN; n];
        sell.spmv_serial(&x, &mut y);
        prop_assert_eq!(bits(&y), want.clone(), "serial C={} sigma={}", c, sigma);
        let mut y = vec![f64::NAN; n];
        sell.spmv(&x, &mut y, threads, sched);
        prop_assert_eq!(bits(&y), want, "parallel C={} sigma={}", c, sigma);
    }
}
