//! The Mandelbrot set benchmark from the paper's Table 1.
//!
//! Escape-time iteration over the rectangle `[-2, 0.5] × [-1.25, 1.25]`
//! (the classic framing). Work per pixel varies wildly — points inside
//! the set burn the full iteration budget — which makes this the
//! paper's showcase for the `schedule` clause: rows near the set's
//! interior are much more expensive than rows near the edge, so
//! `schedule(dynamic)` beats `schedule(static)` (ablation A1).
//!
//! The checksum (total iteration count over all pixels) is exactly
//! reproducible across thread counts and schedules, so verification is
//! equality with a once-computed expected value.
//!
//! [`row_work`] iterates `LANES` (4) neighbouring pixels of a row in
//! lockstep (`[f64; LANES]` state, a per-lane live mask, per-lane
//! counts), so the compiler can keep several independent `z ← z² + c`
//! chains in flight instead of one. Each lane performs exactly
//! [`escape_time`]'s operations on its own pixel — Rust never fuses
//! them into FMAs — so every pixel's count, and the checksum, are
//! bitwise those of the one-pixel loop; a lane that has escaped, or
//! that lies past the end of the row, keeps computing but no longer
//! counts.

use crate::classes::{Class, PerClass};
use crate::verify::{KernelResult, Variant};
use romp_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Render all rows into a fresh per-row work buffer — the `a[i] = …`
/// scatter of the C original, expressed through the safe
/// [`write_into`](romp_core::ParFor::write_into) API (each row slot is
/// an exclusive `&mut`; no atomics, no `unsafe`).
pub fn render_rows(class: Class, threads: Option<usize>, sched: Schedule) -> Vec<u64> {
    let (w, h, it) = class.mandelbrot_size();
    let mut rows = vec![0u64; h];
    let mut pf = par_for(0..h).schedule(sched);
    if let Some(t) = threads {
        pf = pf.num_threads(t);
    }
    pf.write_into(&mut rows, |row, slot| *slot = row_work(row, w, h, it));
    rows
}

/// Viewport of the classic Mandelbrot framing.
pub const X_MIN: f64 = -2.0;
/// See [`X_MIN`].
pub const X_MAX: f64 = 0.5;
/// See [`X_MIN`].
pub const Y_MIN: f64 = -1.25;
/// See [`X_MIN`].
pub const Y_MAX: f64 = 1.25;

/// Escape-time iterations for one point, up to `max_iter` — the
/// one-pixel definition. [`row_work`] runs exactly this sequence in
/// `LANES` lanes at once; this form stays as the specification the
/// lane kernel is tested against.
#[inline]
pub fn escape_time(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let mut zx = 0.0f64;
    let mut zy = 0.0f64;
    let mut i = 0;
    while i < max_iter {
        let zx2 = zx * zx;
        let zy2 = zy * zy;
        if zx2 + zy2 > 4.0 {
            break;
        }
        zy = 2.0 * zx * zy + cy;
        zx = zx2 - zy2 + cx;
        i += 1;
    }
    i
}

/// Pixels of a row advanced together by [`row_work`] (chosen by
/// measurement on class W: 2 lanes ran 1.6× slower, 8 no faster).
const LANES: usize = 4;

/// Iteration count for one row of the grid: the sum of [`escape_time`]
/// over the row's pixels, computed `LANES` pixels at a time.
pub fn row_work(row: usize, width: usize, height: usize, max_iter: u32) -> u64 {
    let cy = Y_MIN + (Y_MAX - Y_MIN) * (row as f64 + 0.5) / height as f64;
    let cx = |col: usize| X_MIN + (X_MAX - X_MIN) * (col as f64 + 0.5) / width as f64;
    (0..width)
        .step_by(LANES)
        .map(|col0| {
            let n = LANES.min(width - col0);
            let cxs = std::array::from_fn(|l| if l < n { cx(col0 + l) } else { 0.0 });
            lanes_escape_sum(cxs, n, cy, max_iter)
        })
        .sum()
}

/// `Σ escape_time(cx[l], cy, max_iter)` over the first `n` lanes,
/// iterated in lockstep. Every lane runs [`escape_time`]'s arithmetic on
/// its own point; a lane whose point has escaped — or that is one of the
/// `LANES − n` unused ones, dead from the start — keeps computing but is
/// masked out of the count, and the loop ends when no lane is live.
fn lanes_escape_sum(cx: [f64; LANES], n: usize, cy: f64, max_iter: u32) -> u64 {
    let mut live: [bool; LANES] = std::array::from_fn(|l| l < n);
    let mut zx = [0.0f64; LANES];
    let mut zy = [0.0f64; LANES];
    let mut count = [0u64; LANES];
    for _ in 0..max_iter {
        for l in 0..LANES {
            let zx2 = zx[l] * zx[l];
            let zy2 = zy[l] * zy[l];
            // A live lane's z is finite (|z|² was ≤ 4 one step ago), so
            // `<=` is exactly the negation of escape_time's `> 4.0`.
            live[l] &= zx2 + zy2 <= 4.0;
            count[l] += live[l] as u64;
            zy[l] = 2.0 * zx[l] * zy[l] + cy;
            zx[l] = zx2 - zy2 + cx[l];
        }
        if !live.contains(&true) {
            break;
        }
    }
    count.iter().sum()
}

/// Serial render; returns `(checksum, seconds)`.
pub fn run_serial(class: Class) -> (u64, f64) {
    let (w, h, it) = class.mandelbrot_size();
    romp_runtime::wtime::timed(|| (0..h).map(|r| row_work(r, w, h, it)).sum())
}

/// Expected checksum for verification, memoized per class. The C
/// reference verifies against a stored value; ours is computed once
/// (in parallel — the sum of per-row integers is order-independent, so
/// the value is exact).
pub fn expected_checksum(class: Class) -> u64 {
    static MEMO: PerClass<u64> = PerClass::new();
    *MEMO.get_or_init(class, || {
        render_rows(class, None, Schedule::dynamic_chunk(1))
            .iter()
            .sum()
    })
}

fn result(
    class: Class,
    variant: Variant,
    threads: usize,
    secs: f64,
    checksum: u64,
) -> KernelResult {
    KernelResult {
        name: "Mandelbrot",
        class,
        variant,
        threads,
        time_s: secs,
        // "Operations" = iterations counted (live lanes only).
        mops: checksum as f64 / secs / 1e6,
        verified: checksum == expected_checksum(class),
        checksum: checksum as f64,
    }
}

/// Render with an explicit schedule, thread count and variant tag —
/// shared by both configurations and by the A1 schedule ablation.
pub fn run_with_schedule(
    class: Class,
    threads: usize,
    sched: Schedule,
    variant: Variant,
) -> KernelResult {
    let (rows, secs) = romp_runtime::wtime::timed(|| render_rows(class, Some(threads), sched));
    result(class, variant, threads, secs, rows.iter().sum())
}

/// The romp directive-layer implementation: `parallel for` over rows in
/// pragma-text form, `schedule(dynamic, 4)` against the load imbalance.
pub mod romp {
    use super::*;

    /// Render with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        let (w, h, it) = class.mandelbrot_size();
        let total = AtomicU64::new(0);
        let total_ref = &total;
        let (_, secs) = romp_runtime::wtime::timed(|| {
            omp_parallel_for!(
                num_threads(threads),
                schedule(dynamic, 4),
                for row in 0..(h) {
                    total_ref.fetch_add(row_work(row, w, h, it), Ordering::Relaxed);
                }
            );
        });
        result(class, Variant::Romp, threads, secs, total.into_inner())
    }
}

/// The reference implementation: direct translation of the C+OpenMP
/// original — same row decomposition, `schedule(dynamic)`.
pub mod reference {
    use super::*;

    /// Render with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        run_with_schedule(
            class,
            threads,
            Schedule::dynamic_chunk(4),
            Variant::Reference,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_time_known_points() {
        // Origin is in the set: full budget.
        assert_eq!(escape_time(0.0, 0.0, 500), 500);
        // Far outside: escapes immediately.
        assert!(escape_time(2.0, 2.0, 500) <= 1);
        // Near the boundary, somewhere in between.
        let t = escape_time(-0.75, 0.3, 500);
        assert!(t > 5 && t < 500, "t={t}");
    }

    /// The one-pixel definition summed over a row.
    fn row_by_pixels(row: usize, width: usize, height: usize, max_iter: u32) -> u64 {
        let cy = Y_MIN + (Y_MAX - Y_MIN) * (row as f64 + 0.5) / height as f64;
        (0..width)
            .map(|col| {
                let cx = X_MIN + (X_MAX - X_MIN) * (col as f64 + 0.5) / width as f64;
                escape_time(cx, cy, max_iter) as u64
            })
            .sum()
    }

    #[test]
    fn lanes_equal_pixels_on_every_row_of_s_and_w() {
        for class in [Class::S, Class::W] {
            let (w, h, it) = class.mandelbrot_size();
            for row in 0..h {
                assert_eq!(
                    row_work(row, w, h, it),
                    row_by_pixels(row, w, h, it),
                    "{class:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn lanes_equal_pixels_on_ragged_widths_and_tiny_budgets() {
        for width in [1, 3, LANES - 1, LANES, LANES + 1, 513] {
            for max_iter in [0, 1, 2, 50] {
                for row in [0, 7, 15] {
                    assert_eq!(
                        row_work(row, width, 16, max_iter),
                        row_by_pixels(row, width, 16, max_iter),
                        "width {width}, max_iter {max_iter}, row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn points_exactly_on_the_escape_radius() {
        // c = 2 + 0i: z₁ = 2 lies exactly on |z|² = 4 and keeps
        // iterating (the test is `> 4`); z₂ = 6 escapes. c = -2 stays on
        // the radius forever (z = -2, 2, 2, …).
        assert_eq!(escape_time(2.0, 0.0, 100), 2);
        assert_eq!(escape_time(-2.0, 0.0, 100), 100);
        let cx = [2.0, -2.0, 0.3, -0.75];
        for n in 0..=LANES {
            let cxs = std::array::from_fn(|l| cx[l % cx.len()]);
            let by_pixels: u64 = (0..n).map(|l| escape_time(cxs[l], 0.0, 100) as u64).sum();
            assert_eq!(lanes_escape_sum(cxs, n, 0.0, 100), by_pixels, "n={n}");
        }
    }

    #[test]
    fn class_w_checksum_is_pinned() {
        let (serial, _) = run_serial(Class::W);
        assert_eq!(serial, 191_472_856);
        assert_eq!(expected_checksum(Class::W), 191_472_856);
    }

    #[test]
    fn parallel_checksum_equals_serial() {
        let (serial, _) = run_serial(Class::S);
        for sched in [
            Schedule::static_block(),
            Schedule::dynamic_chunk(4),
            Schedule::guided(),
        ] {
            let r = run_with_schedule(Class::S, 4, sched, Variant::Romp);
            assert_eq!(r.checksum as u64, serial, "schedule {sched}");
            assert!(r.verified);
        }
    }

    #[test]
    fn reference_and_romp_agree() {
        let a = reference::run(Class::S, 2);
        let b = romp::run(Class::S, 2);
        assert_eq!(a.checksum, b.checksum);
        assert!(a.verified && b.verified);
    }

    #[test]
    fn rows_have_imbalanced_work() {
        // The benchmark premise: interior rows cost far more than edge
        // rows. Check a 4x spread exists at class S.
        let (w, h, it) = Class::S.mandelbrot_size();
        let edge = row_work(0, w, h, it);
        let middle = row_work(h / 2, w, h, it);
        assert!(
            middle > 4 * edge,
            "expected strong imbalance: edge={edge} middle={middle}"
        );
    }
}
