//! Worksharing-loop schedules.
//!
//! This module contains the *pure* scheduling mathematics: given an
//! iteration space, a team size and a schedule kind, which iterations does
//! each thread run? The shared cursor that `dynamic` and `guided` claim
//! from lives in a [`crate::team`] slot; the one claim loop that serves
//! both kinds is in [`crate::loops`].
//!
//! The semantics follow OpenMP 5.2 §11.5.3 (the paper implements the
//! `schedule` clause on its worksharing-loop directive):
//!
//! * `static` (no chunk): the iteration space is divided into
//!   near-equal contiguous blocks, at most one per thread; the first
//!   `rem` threads receive one extra iteration.
//! * `static,c`: chunks of size `c` are assigned round-robin,
//!   thread `t` gets chunks `t, t+n, t+2n, …`.
//! * `dynamic[,c]`: chunks of size `c` (default 1) are handed out
//!   first-come-first-served from a shared counter.
//! * `guided[,c]`: chunk sizes start large and decay exponentially —
//!   each grab takes `⌈remaining / (2·nthreads)⌉` iterations, never less
//!   than `c` (except the final chunk).
//! * `runtime`: whatever the `run-sched-var` ICV says (`OMP_SCHEDULE`).
//! * `auto`: implementation choice; we map it to `static`.

use std::fmt;
use std::ops::Range;

/// A worksharing-loop schedule, mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static)` / `schedule(static, chunk)`.
    Static {
        /// `None` = one contiguous block per thread; `Some(c)` = round-robin
        /// chunks of `c` iterations.
        chunk: Option<u64>,
    },
    /// `schedule(dynamic, chunk)`; chunk defaults to 1.
    Dynamic {
        /// Iterations per grab from the shared counter.
        chunk: u64,
    },
    /// `schedule(guided, chunk)`; chunk is the minimum grab size.
    Guided {
        /// Minimum iterations per grab (except the last chunk).
        chunk: u64,
    },
    /// `schedule(runtime)` — resolved against the `run-sched-var` ICV at
    /// the loop entry.
    Runtime,
    /// `schedule(auto)` — the implementation chooses; we use `static`.
    Auto,
}

impl Default for Schedule {
    /// OpenMP leaves the scheduleless default implementation-defined;
    /// like libomp we use block `static`.
    fn default() -> Self {
        Schedule::Static { chunk: None }
    }
}

impl Schedule {
    /// `schedule(static)`.
    pub const fn static_block() -> Self {
        Schedule::Static { chunk: None }
    }

    /// `schedule(static, c)`.
    pub const fn static_chunk(c: u64) -> Self {
        Schedule::Static { chunk: Some(c) }
    }

    /// `schedule(dynamic)` with the spec-default chunk of 1.
    pub const fn dynamic() -> Self {
        Schedule::Dynamic { chunk: 1 }
    }

    /// `schedule(dynamic, c)`.
    pub const fn dynamic_chunk(c: u64) -> Self {
        Schedule::Dynamic { chunk: c }
    }

    /// `schedule(guided)` with the spec-default minimum chunk of 1.
    pub const fn guided() -> Self {
        Schedule::Guided { chunk: 1 }
    }

    /// `schedule(guided, c)`.
    pub const fn guided_chunk(c: u64) -> Self {
        Schedule::Guided { chunk: c }
    }

    /// Parse the `OMP_SCHEDULE` syntax: `kind[,chunk]` with optional
    /// `monotonic:`/`nonmonotonic:` modifier (accepted and ignored — all
    /// our dispatchers are monotonic per thread).
    pub fn parse(s: &str) -> Result<Self, ScheduleParseError> {
        let s = s.trim();
        let s = s
            .strip_prefix("monotonic:")
            .or_else(|| s.strip_prefix("nonmonotonic:"))
            .unwrap_or(s)
            .trim();
        let (kind, chunk) = match s.split_once(',') {
            Some((k, c)) => {
                let c: u64 = c
                    .trim()
                    .parse()
                    .map_err(|_| ScheduleParseError::BadChunk(c.trim().to_string()))?;
                if c == 0 {
                    return Err(ScheduleParseError::ZeroChunk);
                }
                (k.trim(), Some(c))
            }
            None => (s, None),
        };
        match kind {
            "static" => Ok(Schedule::Static { chunk }),
            "dynamic" => Ok(Schedule::Dynamic {
                chunk: chunk.unwrap_or(1),
            }),
            "guided" => Ok(Schedule::Guided {
                chunk: chunk.unwrap_or(1),
            }),
            "auto" | "runtime" if chunk.is_some() => {
                Err(ScheduleParseError::ChunkOnAuto(kind.to_string()))
            }
            "auto" => Ok(Schedule::Auto),
            "runtime" => Ok(Schedule::Runtime),
            other => Err(ScheduleParseError::UnknownKind(other.to_string())),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::Static { chunk: None } => write!(f, "static"),
            Schedule::Static { chunk: Some(c) } => write!(f, "static,{c}"),
            Schedule::Dynamic { chunk } => write!(f, "dynamic,{chunk}"),
            Schedule::Guided { chunk } => write!(f, "guided,{chunk}"),
            Schedule::Runtime => write!(f, "runtime"),
            Schedule::Auto => write!(f, "auto"),
        }
    }
}

/// Errors from [`Schedule::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleParseError {
    /// The kind was not one of static/dynamic/guided/auto/runtime.
    UnknownKind(String),
    /// The chunk was not a positive integer.
    BadChunk(String),
    /// A chunk of zero is invalid.
    ZeroChunk,
    /// `auto` and `runtime` do not take a chunk size.
    ChunkOnAuto(String),
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleParseError::UnknownKind(k) => write!(f, "unknown schedule kind `{k}`"),
            ScheduleParseError::BadChunk(c) => write!(f, "invalid chunk size `{c}`"),
            ScheduleParseError::ZeroChunk => write!(f, "chunk size must be >= 1"),
            ScheduleParseError::ChunkOnAuto(k) => {
                write!(f, "schedule kind `{k}` does not take a chunk size")
            }
        }
    }
}

impl std::error::Error for ScheduleParseError {}

/// Iterator over the chunks a given thread runs under a **static**
/// schedule of a normalized iteration space `0..trip`.
///
/// Static scheduling needs no shared state: every thread derives its
/// chunks independently from `(trip, nthreads, thread_num, chunk)`. This is
/// exactly the contract of libomp's `__kmpc_for_static_init`.
#[derive(Debug, Clone)]
pub struct StaticChunks {
    trip: u64,
    stride: u64,
    next: u64,
    chunk: u64,
    block_mode: bool,
    exhausted: bool,
}

impl StaticChunks {
    /// Plan the chunks thread `thread_num` of `nthreads` runs for a loop
    /// with `trip` iterations.
    pub fn new(trip: u64, nthreads: usize, thread_num: usize, chunk: Option<u64>) -> Self {
        assert!(nthreads > 0, "team size must be positive");
        assert!(thread_num < nthreads, "thread_num out of range");
        let n = nthreads as u64;
        let t = thread_num as u64;
        match chunk {
            None => {
                // Block distribution: first `rem` threads get q+1 iterations.
                let q = trip / n;
                let rem = trip % n;
                let (lo, size) = if t < rem {
                    (t * (q + 1), q + 1)
                } else {
                    (rem * (q + 1) + (t - rem) * q, q)
                };
                StaticChunks {
                    trip,
                    stride: 0,
                    next: lo,
                    chunk: size,
                    block_mode: true,
                    exhausted: size == 0,
                }
            }
            Some(c) => {
                assert!(c > 0, "chunk must be positive");
                // A chunk past the trip count names the same partition
                // (thread 0 runs everything). Clamping it and saturating
                // keeps `t * c` and the stride from wrapping onto
                // another thread's indices.
                let c = c.min(trip.max(1));
                let next = t.saturating_mul(c);
                StaticChunks {
                    trip,
                    stride: n.saturating_mul(c),
                    next,
                    chunk: c,
                    block_mode: false,
                    exhausted: next >= trip,
                }
            }
        }
    }
}

impl Iterator for StaticChunks {
    type Item = Range<u64>;

    fn next(&mut self) -> Option<Range<u64>> {
        if self.exhausted {
            return None;
        }
        let lo = self.next;
        let hi = lo.saturating_add(self.chunk).min(self.trip);
        if self.block_mode {
            self.exhausted = true;
        } else {
            self.next = lo.saturating_add(self.stride);
            if self.next >= self.trip {
                self.exhausted = true;
            }
        }
        Some(lo..hi)
    }
}

/// Next chunk size for a **guided** schedule: `⌈remaining / (2·nthreads)⌉`
/// clamped below by `min_chunk` and above by `remaining`.
#[inline]
pub fn guided_grab(remaining: u64, nthreads: usize, min_chunk: u64) -> u64 {
    if remaining == 0 {
        return 0;
    }
    let n = 2 * nthreads as u64;
    let sz = remaining.div_ceil(n).max(min_chunk);
    sz.min(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_all(trip: u64, nthreads: usize, chunk: Option<u64>) -> Vec<Vec<Range<u64>>> {
        (0..nthreads)
            .map(|t| StaticChunks::new(trip, nthreads, t, chunk).collect())
            .collect()
    }

    fn assert_exact_cover(trip: u64, per_thread: &[Vec<Range<u64>>]) {
        let mut seen = vec![0u32; trip as usize];
        for chunks in per_thread {
            for r in chunks {
                assert!(r.start < r.end, "empty chunk emitted: {r:?}");
                assert!(r.end <= trip);
                for i in r.clone() {
                    seen[i as usize] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "iterations not covered exactly once"
        );
    }

    #[test]
    fn static_block_covers_exactly() {
        for trip in [0u64, 1, 2, 7, 64, 100, 101] {
            for nth in [1usize, 2, 3, 4, 7, 8, 16] {
                assert_exact_cover(trip, &collect_all(trip, nth, None));
            }
        }
    }

    #[test]
    fn static_chunked_covers_exactly() {
        for trip in [0u64, 1, 5, 64, 100, 101, 1000] {
            for nth in [1usize, 2, 3, 8] {
                for c in [1u64, 2, 3, 16, 1000, 1 << 63, u64::MAX] {
                    assert_exact_cover(trip, &collect_all(trip, nth, Some(c)));
                }
            }
        }
    }

    #[test]
    fn static_block_is_balanced() {
        let per = collect_all(103, 4, None);
        let sizes: Vec<u64> = per
            .iter()
            .map(|c| c.iter().map(|r| r.end - r.start).sum())
            .collect();
        assert_eq!(sizes, vec![26, 26, 26, 25]);
    }

    #[test]
    fn static_block_single_contiguous_chunk_per_thread() {
        for t in collect_all(1000, 8, None) {
            assert!(t.len() <= 1);
        }
    }

    #[test]
    fn static_chunk_round_robin_order() {
        // 10 iterations, 2 threads, chunk 2: t0 -> [0,2) [4,6) [8,10); t1 -> [2,4) [6,8)
        let per = collect_all(10, 2, Some(2));
        assert_eq!(per[0], vec![0..2, 4..6, 8..10]);
        assert_eq!(per[1], vec![2..4, 6..8]);
    }

    #[test]
    fn zero_trip_loop_yields_nothing() {
        assert!(StaticChunks::new(0, 4, 0, None).next().is_none());
        assert!(StaticChunks::new(0, 4, 2, Some(8)).next().is_none());
    }

    #[test]
    fn guided_grab_decays_and_terminates() {
        let mut remaining = 10_000u64;
        let mut grabs = vec![];
        while remaining > 0 {
            let g = guided_grab(remaining, 4, 1);
            assert!(g >= 1 && g <= remaining);
            grabs.push(g);
            remaining -= g;
        }
        // Sizes never increase.
        for w in grabs.windows(2) {
            assert!(w[1] <= w[0], "guided chunks grew: {grabs:?}");
        }
        assert_eq!(grabs.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn guided_grab_respects_min_chunk() {
        let g = guided_grab(100, 16, 50);
        assert_eq!(g, 50);
        // Final partial chunk may undercut the minimum.
        assert_eq!(guided_grab(30, 16, 50), 30);
    }

    #[test]
    fn parse_all_kinds() {
        assert_eq!(
            Schedule::parse("static").unwrap(),
            Schedule::Static { chunk: None }
        );
        assert_eq!(
            Schedule::parse("static,16").unwrap(),
            Schedule::Static { chunk: Some(16) }
        );
        assert_eq!(
            Schedule::parse("dynamic").unwrap(),
            Schedule::Dynamic { chunk: 1 }
        );
        assert_eq!(
            Schedule::parse(" dynamic , 8 ").unwrap(),
            Schedule::Dynamic { chunk: 8 }
        );
        assert_eq!(
            Schedule::parse("guided,4").unwrap(),
            Schedule::Guided { chunk: 4 }
        );
        assert_eq!(Schedule::parse("auto").unwrap(), Schedule::Auto);
        assert_eq!(Schedule::parse("runtime").unwrap(), Schedule::Runtime);
        assert_eq!(
            Schedule::parse("nonmonotonic:dynamic,4").unwrap(),
            Schedule::Dynamic { chunk: 4 }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            Schedule::parse("fair"),
            Err(ScheduleParseError::UnknownKind(_))
        ));
        assert!(matches!(
            Schedule::parse("dynamic,zero"),
            Err(ScheduleParseError::BadChunk(_))
        ));
        assert!(matches!(
            Schedule::parse("dynamic,0"),
            Err(ScheduleParseError::ZeroChunk)
        ));
        // Empty input and a bare modifier both fall through to the kind
        // match with an empty kind string.
        assert!(matches!(
            Schedule::parse(""),
            Err(ScheduleParseError::UnknownKind(_))
        ));
        assert!(matches!(
            Schedule::parse("monotonic:"),
            Err(ScheduleParseError::UnknownKind(_))
        ));
        // The chunk is validated before the kind, even for bad kinds.
        assert!(matches!(
            Schedule::parse("fair,nope"),
            Err(ScheduleParseError::BadChunk(_))
        ));
    }

    #[test]
    fn parse_rejects_chunk_on_auto_and_runtime() {
        for kind in ["auto", "runtime"] {
            let e = Schedule::parse(&format!("{kind},4")).unwrap_err();
            assert_eq!(e, ScheduleParseError::ChunkOnAuto(kind.to_string()));
            assert!(e.to_string().contains("does not take a chunk size"), "{e}");
        }
        // The modifier prefix does not change the rule.
        assert!(matches!(
            Schedule::parse("monotonic:auto,8"),
            Err(ScheduleParseError::ChunkOnAuto(_))
        ));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            Schedule::static_block(),
            Schedule::static_chunk(4),
            Schedule::dynamic_chunk(2),
            Schedule::guided_chunk(8),
            Schedule::Auto,
            Schedule::Runtime,
        ] {
            assert_eq!(Schedule::parse(&s.to_string()).unwrap(), s);
        }
    }
}
