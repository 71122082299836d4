//! FS — first-match search: the cancellation workload.
//!
//! A parallel early-exit scan that exists *because of* `cancel`: find
//! the first position of a 4-byte needle in a haystack generated from
//! the NPB `randlc` stream. Without cancellation a worksharing loop
//! must visit every window even after the answer is known; with
//! `cancel for`, the thread that finds a match records it and stops the
//! whole team from dispatching further chunks.
//!
//! ## Why the early exit is still *exact*
//!
//! The loop runs under a **dynamic** schedule, whose shared dispatcher
//! hands chunks out in monotonically increasing index order. When a
//! thread finds a match at index `k` and cancels:
//!
//! * every chunk containing an index `< k` was dispatched *before*
//!   `k`'s chunk (monotone dispatch), so it is either finished or
//!   in flight — and cancellation is chunk-granular, so in-flight
//!   chunks run to completion and record any earlier match into the
//!   shared `fetch_min`;
//! * every chunk never dispatched holds only indices `> k`.
//!
//! Hence after the loop's rendezvous the `fetch_min` cell holds the
//! true first match — bit-equal to the sequential scan — while the
//! team visits only `O(first_match)` windows instead of `O(n)`. (A
//! *static* schedule would not give this guarantee: a lagging thread's
//! undispatched early chunks could be skipped. The kernel therefore
//! pins `schedule(dynamic, CHUNK)`.)
//!
//! The kernel is also correct with cancellation *disarmed*
//! (`OMP_CANCELLATION` unset): `cancel` degrades to a no-op and the
//! loop scans everything — same answer, no early exit. The variants
//! arm cancellation for their own fork with a task-local `cancel-var`
//! set ([`ArmCancellation`]) so the workload always exercises the
//! feature.
//!
//! One timed run ([`romp::run`]) contains the cancelled scan and no
//! further verification work: the first-match index is itself the
//! verification value, compared against the memoized
//! [`expected_index`] outside the timing. As in NPB, input generation is
//! not timed: the haystack is generated once per class per process
//! ([`input`]).
//!
//! Three front ends express the same loop — the `omp_cancel!` macro
//! ([`search_macro`]), the typed builder ([`search_builder`]), and the
//! `//#omp` translator (the `search` fixture under `tests/fixtures/`)
//! — and must agree exactly; `tests/cancellation.rs` pins that.

use crate::classes::{Class, PerClass};
use crate::rng::{Randlc, SEED_EP};
use crate::verify::{KernelResult, Variant};
use romp_core::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Needle width in bytes.
pub const NEEDLE: usize = 4;
/// Dispatch granularity of the parallel scan (also the cancellation
/// granularity: at most one extra in-flight chunk per thread runs after
/// the cancelling chunk).
pub const CHUNK: u64 = 512;

/// Haystack length per class.
pub fn dims(class: Class) -> usize {
    match class {
        Class::S => 1 << 16,
        Class::W => 1 << 18,
        Class::A => 1 << 20,
        Class::B => 1 << 22,
        Class::C => 1 << 24,
    }
}

/// The haystack: `randlc` states quantized to a 16-symbol alphabet,
/// the top four bits of each ([`Randlc::fill_symbols`]) —
/// deterministic across threads and variants, like every NPB stream.
pub fn haystack(class: Class) -> Vec<u8> {
    let mut hay = vec![0u8; dims(class)];
    Randlc::new(SEED_EP).fill_symbols(4, &mut hay);
    hay
}

/// The class's [`haystack`], generated on first use and kept for the
/// process.
pub fn input(class: Class) -> &'static [u8] {
    static MEMO: PerClass<Vec<u8>> = PerClass::new();
    MEMO.get_or_init(class, || haystack(class))
}

/// The needle: the window planted at 5/8 of the stream, so a match is
/// guaranteed to exist (an accidental earlier occurrence of the same
/// 4 symbols is fine — "first match" is whatever the serial scan says).
pub fn needle(hay: &[u8]) -> [u8; NEEDLE] {
    let p = hay.len() * 5 / 8;
    [hay[p], hay[p + 1], hay[p + 2], hay[p + 3]]
}

/// Sequential reference scan: the verification value.
pub fn find_serial(hay: &[u8], nd: &[u8; NEEDLE]) -> usize {
    let last = hay.len() - (NEEDLE - 1);
    (0..last)
        .find(|&i| hay[i..i + NEEDLE] == nd[..])
        .expect("the planted needle guarantees a match")
}

/// Expected first-match index per class, memoized.
pub fn expected_index(class: Class) -> usize {
    static MEMO: PerClass<usize> = PerClass::new();
    *MEMO.get_or_init(class, || {
        let hay = input(class);
        find_serial(hay, &needle(hay))
    })
}

/// RAII arming of `cancel-var` for the calling task and the regions it
/// forks (a task-local set leaves the process-global ICV block
/// untouched, so concurrently running code keeps its own setting). Used
/// by the kernel variants and by the front-end parity tests around the
/// translated fixture.
pub struct ArmCancellation {
    _scope: romp_runtime::icv::LocalIcvs,
}

impl ArmCancellation {
    /// Arm cancellation until the guard drops.
    pub fn new() -> Self {
        ArmCancellation {
            _scope: romp_runtime::icv::set_local(|i| i.cancellation = true),
        }
    }
}

impl Default for ArmCancellation {
    fn default() -> Self {
        Self::new()
    }
}

/// The early-exit scan through the `omp_cancel!` macro front end.
pub fn search_macro(class: Class, threads: usize) -> usize {
    let _arm = ArmCancellation::new();
    let hay = input(class);
    let nd = needle(hay);
    let found = AtomicUsize::new(usize::MAX);
    let last = hay.len() - (NEEDLE - 1);
    {
        let (nd, found) = (&nd, &found);
        omp_parallel!(num_threads(threads), |ctx| {
            omp_for!(
                ctx,
                schedule(dynamic, CHUNK),
                for i in 0..last {
                    if hay[i..i + NEEDLE] == nd[..] {
                        found.fetch_min(i, Ordering::Relaxed);
                        if omp_cancel!(ctx, for) {
                            return;
                        }
                    }
                }
            );
        });
    }
    found.load(Ordering::Relaxed)
}

/// The early-exit scan through the typed builder front end.
pub fn search_builder(class: Class, threads: usize) -> usize {
    let _arm = ArmCancellation::new();
    let hay = input(class);
    let nd = needle(hay);
    let found = AtomicUsize::new(usize::MAX);
    let last = hay.len() - (NEEDLE - 1);
    {
        let (nd, found) = (&nd, &found);
        parallel().num_threads(threads).run(|ctx| {
            ctx.ws_for(0..last, Schedule::dynamic_chunk(CHUNK), false, |i| {
                if hay[i..i + NEEDLE] == nd[..] {
                    found.fetch_min(i, Ordering::Relaxed);
                    cancel(ctx, CancelKind::For);
                }
            });
        });
    }
    found.load(Ordering::Relaxed)
}

fn result(class: Class, variant: Variant, threads: usize, secs: f64, idx: usize) -> KernelResult {
    KernelResult {
        name: "FS",
        class,
        variant,
        threads,
        time_s: secs,
        // "Operations" = the windows a perfect early-exit scan must
        // visit (everything at or before the first match).
        mops: (expected_index(class) + 1) as f64 / secs / 1e6,
        verified: idx == expected_index(class),
        checksum: idx as f64,
    }
}

/// Serial run with NPB-style timing and verification.
pub fn run_serial(class: Class) -> KernelResult {
    let hay = input(class);
    let (idx, secs) = romp_runtime::wtime::timed(|| find_serial(hay, &needle(hay)));
    result(class, Variant::Serial, 1, secs, idx)
}

/// The romp configuration: the cancellation-driven early-exit scan.
pub mod romp {
    use super::*;

    /// Run the macro-front-end scan on `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        let (idx, secs) = romp_runtime::wtime::timed(|| search_macro(class, threads));
        result(class, Variant::Romp, threads, secs, idx)
    }

    /// Run on the ICV-resolved default team size (`OMP_NUM_THREADS`).
    pub fn run_env(class: Class) -> KernelResult {
        run(class, romp_runtime::omp_get_max_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the bytes, one byte at a time.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn haystacks_and_first_matches_are_pinned() {
        // Literals, not a second computation through `haystack`: a
        // rewrite of the generator that moves a symbol fails here even
        // if the scan still finds its own needle.
        for (class, hash, index) in [
            (Class::S, 0x7ff1_71ea_f7cb_6a2d, 25_227),
            (Class::W, 0xbc79_4038_b54f_61e9, 23_100),
            (Class::A, 0x54ed_8485_db0f_1b79, 67_097),
        ] {
            assert_eq!(fnv1a(&haystack(class)), hash, "haystack {class}");
            assert_eq!(expected_index(class), index, "first match {class}");
        }
    }

    #[test]
    fn serial_scan_is_deterministic_and_bounded() {
        let hay = haystack(Class::S);
        let nd = needle(&hay);
        let idx = find_serial(&hay, &nd);
        assert_eq!(idx, expected_index(Class::S));
        // The planted position is an upper bound on the first match.
        assert!(idx <= hay.len() * 5 / 8);
        assert_eq!(hay[idx..idx + NEEDLE], nd[..]);
    }

    #[test]
    fn parallel_variants_match_serial_at_various_thread_counts() {
        let want = expected_index(Class::S);
        for threads in [1, 2, 4, 7] {
            assert_eq!(search_macro(Class::S, threads), want, "macro t={threads}");
            assert_eq!(
                search_builder(Class::S, threads),
                want,
                "builder t={threads}"
            );
        }
    }

    #[test]
    fn cancellation_actually_cuts_the_scan_short() {
        // The whole point of the kernel: with cancellation armed, the
        // team visits only windows at-or-near the first match, not the
        // whole haystack. Single-threaded the count is deterministic:
        // every chunk up to and including the cancelling one runs in
        // full, nothing after.
        let _arm = ArmCancellation::new();
        let hay = haystack(Class::S);
        let nd = needle(&hay);
        let idx = expected_index(Class::S);
        let last = hay.len() - (NEEDLE - 1);
        let visited = AtomicUsize::new(0);
        let found = AtomicUsize::new(usize::MAX);
        {
            let (hay, nd, visited, found) = (&hay, &nd, &visited, &found);
            omp_parallel!(num_threads(1), |ctx| {
                omp_for!(
                    ctx,
                    schedule(dynamic, CHUNK),
                    for i in 0..last {
                        visited.fetch_add(1, Ordering::Relaxed);
                        if hay[i..i + NEEDLE] == nd[..] {
                            found.fetch_min(i, Ordering::Relaxed);
                            if omp_cancel!(ctx, for) {
                                return;
                            }
                        }
                    }
                );
            });
        }
        assert_eq!(found.load(Ordering::Relaxed), idx);
        // Chunk-granular early exit: exactly the chunks through the
        // cancelling one were visited.
        let want = (((idx / CHUNK as usize) + 1) * CHUNK as usize).min(last);
        assert_eq!(visited.load(Ordering::Relaxed), want);
        assert!(want < last, "class S must actually exit early");
    }

    #[test]
    fn disarmed_cancellation_still_verifies() {
        // Force cancel-var off for this task: the kernel's own
        // ArmCancellation::new() then... still arms (it overrides). So
        // drive the builder loop shape manually, disarmed.
        let disarm = romp_runtime::icv::set_local(|i| i.cancellation = false);
        let hay = haystack(Class::S);
        let nd = needle(&hay);
        let found = AtomicUsize::new(usize::MAX);
        let last = hay.len() - (NEEDLE - 1);
        {
            let (hay, nd, found) = (&hay, &nd, &found);
            parallel().num_threads(2).run(|ctx| {
                ctx.ws_for(0..last, Schedule::dynamic_chunk(CHUNK), false, |i| {
                    if hay[i..i + NEEDLE] == nd[..] {
                        found.fetch_min(i, Ordering::Relaxed);
                        assert!(!cancel(ctx, CancelKind::For), "cancel-var=false is a no-op");
                    }
                });
            });
        }
        drop(disarm);
        assert_eq!(found.load(Ordering::Relaxed), expected_index(Class::S));
    }

    #[test]
    fn kernel_result_verifies() {
        let r = romp::run(Class::S, 4);
        assert!(r.verified, "{r}");
        assert_eq!(r.name, "FS");
        assert_eq!(r.checksum as usize, expected_index(Class::S));
    }
}
