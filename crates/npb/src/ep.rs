//! NPB EP — the Embarrassingly Parallel benchmark.
//!
//! Generates `2^(M+1)` uniform pseudorandom numbers, forms pairs
//! `(2r₁−1, 2r₂−1)` in the unit square, applies the Marsaglia polar
//! acceptance test, and accumulates the resulting Gaussian deviates:
//! their sums `(sx, sy)` and counts per concentric square annulus
//! `q[0..10]`. Verification compares `(sx, sy)` against the official
//! constants with relative tolerance `1e-8`.
//!
//! The structure mirrors `ep.f`: the stream is processed in blocks of
//! `NK = 2^16` pairs; block `k` starts at stream offset `2·NK·k`,
//! reached in O(log) steps with [`crate::rng::skip_ahead`] — the same
//! leapfrogging `ep.f` does with its `randlc(t2, t2)` doubling loop.
//! That makes every block independent, which is the whole point of the
//! benchmark ("embarrassingly parallel").
//!
//! Inside a block, [`accumulate_blocks`] works in stack batches of
//! pairs rather than pair by pair, so independent work is no longer
//! queued behind one dependency chain: the batch's uniforms come from
//! the multi-chain [`Randlc::fill`]; the acceptance test is applied
//! without a branch, compacting the accepted pairs to a dense prefix;
//! `ln`/`sqrt` run over that prefix with nothing waiting on them; and
//! only then are the deviates added into `sx`, `sy` and `q`. Every pair
//! is evaluated with the same expressions as `ep.f`, and the last pass
//! adds the accepted pairs in stream order into the same single
//! accumulators, so `sx`, `sy` and `q` are bitwise those of the
//! pair-at-a-time loop (pinned by a test for classes S and W).

use crate::classes::Class;
use crate::rng::{skip_ahead, Randlc, SEED_EP};
use crate::verify::{close, KernelResult, Variant};
use romp_core::prelude::*;
use romp_fortran::{global_registry, ArgRef, ArgVal};
use std::sync::Mutex;
use std::sync::Once;

/// Pairs per block (`NK = 2^MK`, `MK = 16` in `ep.f`).
pub const MK: u32 = 16;
/// Verification tolerance (`ep.f` uses 1e-8 relative).
pub const EPSILON: f64 = 1e-8;

/// Raw EP accumulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpOutput {
    /// Sum of the Gaussian X deviates.
    pub sx: f64,
    /// Sum of the Gaussian Y deviates.
    pub sy: f64,
    /// Pair counts per annulus `max(|X|,|Y|) ∈ [l, l+1)`.
    pub q: [u64; 10],
}

impl EpOutput {
    fn zero() -> Self {
        EpOutput {
            sx: 0.0,
            sy: 0.0,
            q: [0; 10],
        }
    }

    /// Total accepted pairs (`gc` in `ep.f`).
    pub fn gc(&self) -> u64 {
        self.q.iter().sum()
    }
}

/// Official verification constants per class: `(sx, sy)`.
#[allow(clippy::excessive_precision)] // constants copied verbatim from ep.f
pub fn verify_values(class: Class) -> (f64, f64) {
    match class {
        Class::S => (-3.247_834_652_034_740e3, -6.958_407_078_382_297e3),
        Class::W => (-2.863_319_731_645_753e3, -6.320_053_679_109_499e3),
        Class::A => (-4.295_875_165_629_892e3, -1.580_732_573_678_431e4),
        Class::B => (4.033_815_542_441_498e4, -2.660_669_192_809_235e4),
        Class::C => (4.764_367_927_995_374e4, -8.084_072_988_043_731e4),
    }
}

/// Run the official verification test.
pub fn verify(class: Class, out: &EpOutput) -> bool {
    let (sx_ref, sy_ref) = verify_values(class);
    close(out.sx, sx_ref, EPSILON) && close(out.sy, sy_ref, EPSILON)
}

/// Pairs per batch of [`accumulate_blocks`]: the batch's uniforms and
/// accepted pairs live on the stack (`2·B + 3·B` doubles = 10 KB).
const BATCH: usize = 256;

/// Process blocks `[block_lo, block_hi)` of `NK` pairs each, with
/// `ep.f`'s arithmetic and accumulation order, one batch of `BATCH` pairs
/// at a time in three passes: fill the batch's uniforms
/// ([`Randlc::fill`], the `vranlc` call), keep the pairs that pass the
/// acceptance test and transform them, then accumulate them in stream
/// order into the one running `sx`/`sy`/`q`.
pub fn accumulate_blocks(block_lo: u64, block_hi: u64) -> EpOutput {
    let nk_pairs = 1u64 << MK;
    let mut acc = EpOutput::zero();
    let mut u = [0.0f64; 2 * BATCH];
    let mut x1s = [0.0f64; BATCH];
    let mut x2s = [0.0f64; BATCH];
    let mut ts = [0.0f64; BATCH];
    for k in block_lo..block_hi {
        let mut rng = Randlc::new(skip_ahead(SEED_EP, 2 * nk_pairs * k));
        for _ in 0..nk_pairs / BATCH as u64 {
            rng.fill(&mut u);
            // Branch-free compaction: every pair is written at slot `n`,
            // which only advances past an accepted one.
            let mut n = 0;
            for pair in u.chunks_exact(2) {
                let x1 = 2.0 * pair[0] - 1.0;
                let x2 = 2.0 * pair[1] - 1.0;
                let t = x1 * x1 + x2 * x2;
                x1s[n] = x1;
                x2s[n] = x2;
                ts[n] = t;
                n += (t <= 1.0) as usize;
            }
            for t in &mut ts[..n] {
                *t = (-2.0 * t.ln() / *t).sqrt();
            }
            for ((&x1, &x2), &t2) in x1s[..n].iter().zip(&x2s[..n]).zip(&ts[..n]) {
                let t3 = x1 * t2;
                let t4 = x2 * t2;
                let l = t3.abs().max(t4.abs()) as usize;
                acc.q[l] += 1;
                acc.sx += t3;
                acc.sy += t4;
            }
        }
    }
    acc
}

/// Number of `NK`-pair blocks for a class (`NN` in `ep.f`).
pub fn blocks(class: Class) -> u64 {
    1u64 << (class.ep_m() - MK)
}

fn mops(class: Class, secs: f64) -> f64 {
    // ep.f: Mop/s counts the 2^(M+1) random numbers generated.
    2f64.powi(class.ep_m() as i32 + 1) / secs / 1e6
}

/// Serial EP (the single-thread baseline for speedup figures).
pub fn run_serial(class: Class) -> (EpOutput, f64) {
    let (out, secs) = romp_runtime::wtime::timed(|| accumulate_blocks(0, blocks(class)));
    (out, secs)
}

/// The romp directive-layer implementation, structured like the
/// OpenMP-annotated `ep.f`: a worksharing loop over blocks with a
/// `reduction(+ : sx, sy)` clause and a critical section merging the
/// per-thread annulus counts.
pub mod romp {
    use super::*;

    /// Run EP with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        let (out, secs) = run_output(class, threads);
        KernelResult {
            name: "EP",
            class,
            variant: Variant::Romp,
            threads,
            time_s: secs,
            mops: mops(class, secs),
            verified: verify(class, &out),
            checksum: out.sx,
        }
    }

    /// The accumulators of a [`run`] and its seconds.
    pub(crate) fn run_output(class: Class, threads: usize) -> (EpOutput, f64) {
        let nn = blocks(class) as usize;
        let q_total: Mutex<[u64; 10]> = Mutex::new([0; 10]);
        let ((sx, sy), secs) = romp_runtime::wtime::timed(|| {
            omp_parallel_for!(
                num_threads(threads),
                schedule(static),
                reduction(+ : sx = 0.0f64, sy = 0.0f64),
                for k in 0..(nn) {
                    let acc = accumulate_blocks(k as u64, k as u64 + 1);
                    sx += acc.sx;
                    sy += acc.sy;
                    // Annulus counts: merged under a critical section the
                    // way ep.f's OpenMP version merges its q array.
                    omp_critical!(ep_q_merge, {
                        let mut q = q_total.lock().unwrap();
                        for l in 0..10 {
                            q[l] += acc.q[l];
                        }
                    });
                }
            )
        });
        let out = EpOutput {
            sx,
            sy,
            q: q_total.into_inner().unwrap(),
        };
        (out, secs)
    }
}

/// The reference implementation: the Fortran `ep.f` structure, invoked
/// through the Fortran-interop bridge the way the paper calls Fortran
/// from Zig (mangled name, every argument by reference).
pub mod reference {
    use super::*;

    fn register() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // "Fortran" EP: EP(M, NTHREADS, SX, SY, Q(10))
            global_registry().register("EP", |args| {
                let (head, tail) = args.split_at_mut(2);
                let m = head[0].as_i64() as u32;
                let threads = head[1].as_i64() as usize;
                let nn = (1u64 << (m - MK)) as usize;
                // The Fortran reference parallelizes its block loop with
                // an OpenMP worksharing-loop + reductions; same lowering
                // here, via the builder (no macros in "Fortran" land).
                // The whole accumulator — sums *and* annulus counts —
                // reduces as one value, so no critical section or lock
                // is needed for the q merge.
                let out = romp_core::par_for(0..nn)
                    .num_threads(threads)
                    .schedule(Schedule::static_block())
                    .reduce(super::EpSum, EpOutput::zero(), |k, acc: &mut EpOutput| {
                        let a = accumulate_blocks(k as u64, k as u64 + 1);
                        acc.sx += a.sx;
                        acc.sy += a.sy;
                        for l in 0..10 {
                            acc.q[l] += a.q[l];
                        }
                    });
                let (out_sx, rest) = tail.split_first_mut().expect("sx argument");
                let (out_sy, rest) = rest.split_first_mut().expect("sy argument");
                out_sx.set_f64(out.sx);
                out_sy.set_f64(out.sy);
                let q_out = rest[0].as_i64_slice_mut();
                for (dst, &src) in q_out.iter_mut().zip(out.q.iter()) {
                    *dst = src as i64;
                }
            });
        });
    }

    /// Run the reference EP with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        register();
        let m_arg = ArgVal::I64(class.ep_m() as i64);
        let t_arg = ArgVal::I64(threads as i64);
        let mut sx = ArgVal::F64(0.0);
        let mut sy = ArgVal::F64(0.0);
        let mut q = vec![0i64; 10];
        let (_, secs) = romp_runtime::wtime::timed(|| {
            global_registry()
                .call(
                    "ep_",
                    &mut [
                        m_arg.by_ref(),
                        t_arg.by_ref(),
                        sx.by_ref_mut(),
                        sy.by_ref_mut(),
                        ArgRef::I64SliceMut(&mut q),
                    ],
                )
                .expect("Fortran EP resolves");
        });
        let out = EpOutput {
            sx: match sx {
                ArgVal::F64(v) => v,
                _ => unreachable!(),
            },
            sy: match sy {
                ArgVal::F64(v) => v,
                _ => unreachable!(),
            },
            q: std::array::from_fn(|i| q[i] as u64),
        };
        KernelResult {
            name: "EP",
            class,
            variant: Variant::Reference,
            threads,
            time_s: secs,
            mops: mops(class, secs),
            verified: verify(class, &out),
            checksum: out.sx,
        }
    }
}

/// Componentwise sum over the whole [`EpOutput`] accumulator (deviate
/// sums and annulus counts) for the reference path's builder reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpSum;

impl ReduceOp<EpOutput> for EpSum {
    fn identity(&self) -> EpOutput {
        EpOutput::zero()
    }
    fn combine(&self, a: EpOutput, b: EpOutput) -> EpOutput {
        let mut out = a;
        out.sx += b.sx;
        out.sy += b.sy;
        for l in 0..10 {
            out.q[l] += b.q[l];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_serial_verifies_against_official_constants() {
        let (out, _) = run_serial(Class::S);
        assert!(
            verify(Class::S, &out),
            "sx={:.15e} sy={:.15e} (expected {:?})",
            out.sx,
            out.sy,
            verify_values(Class::S)
        );
    }

    #[test]
    fn class_s_romp_verifies_and_matches_serial() {
        let (serial, _) = run_serial(Class::S);
        let r = romp::run(Class::S, 4);
        assert!(r.verified, "romp EP failed verification");
        assert!(
            close(r.checksum, serial.sx, 1e-12),
            "parallel sx {} vs serial {}",
            r.checksum,
            serial.sx
        );
    }

    #[test]
    fn class_s_reference_verifies() {
        let r = reference::run(Class::S, 4);
        assert!(r.verified, "reference EP failed verification");
    }

    #[test]
    fn thread_counts_agree_exactly_on_gc() {
        let (serial, _) = run_serial(Class::S);
        for threads in [1, 2, 3, 8] {
            let (out, _) = romp::run_output(Class::S, threads);
            assert!(verify(Class::S, &out), "threads={threads}");
            assert_eq!(out.q, serial.q, "threads={threads}");
            assert!(close(out.sx, serial.sx, 1e-12), "threads={threads}");
            assert!(close(out.sy, serial.sy, 1e-12), "threads={threads}");
        }
    }

    /// The batched kernel against the values the pair-at-a-time loop
    /// produced: every bit of `sx`/`sy` and every annulus count.
    #[test]
    fn accumulators_are_pinned_bitwise() {
        let pins = [
            (
                Class::S,
                0xc0a9_5fab_5782_f17c_u64,
                0xc0bb_2e68_3649_f2e2_u64,
                [
                    6_140_517, 5_865_300, 1_100_361, 68_546, 1_648, 17, 0, 0, 0, 0,
                ],
            ),
            (
                Class::W,
                0xc0a6_5ea3_b3dd_c402,
                0xc0b8_b00d_bdea_0365,
                [
                    12_281_576, 11_729_692, 2_202_726, 137_368, 3_371, 36, 0, 0, 0, 0,
                ],
            ),
        ];
        for (class, sx, sy, q) in pins {
            let out = accumulate_blocks(0, blocks(class));
            assert_eq!(out.sx.to_bits(), sx, "{class:?} sx={:e}", out.sx);
            assert_eq!(out.sy.to_bits(), sy, "{class:?} sy={:e}", out.sy);
            assert_eq!(out.q, q, "{class:?}");
        }
    }

    #[test]
    fn block_decomposition_is_exact() {
        // Summing disjoint block ranges must equal one big range —
        // including the annulus counts, which are integers (exact).
        let whole = accumulate_blocks(0, 4);
        let mut parts = EpOutput::zero();
        for k in 0..4 {
            let p = accumulate_blocks(k, k + 1);
            parts.sx += p.sx;
            parts.sy += p.sy;
            for l in 0..10 {
                parts.q[l] += p.q[l];
            }
        }
        assert_eq!(whole.q, parts.q);
        assert!((whole.sx - parts.sx).abs() < 1e-9);
        assert!((whole.sy - parts.sy).abs() < 1e-9);
    }

    #[test]
    fn annulus_counts_decay() {
        // The Gaussian annulus histogram must be strongly decreasing.
        let (out, _) = run_serial(Class::S);
        assert!(out.q[0] > out.q[1] && out.q[1] > out.q[2]);
        assert!(out.gc() > (1u64 << 24) / 2, "acceptance rate near π/4");
    }
}
