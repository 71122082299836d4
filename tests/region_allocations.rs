//! Allocation pin for the region path: once warm, a hot fork allocates
//! nothing, and neither do the barrier, `single` and a worksharing loop
//! of each schedule inside it. A fork reads the encountering task's
//! ICVs in place and its hot team keeps its place partition while the
//! partition's inputs are unchanged, so this holds under any `OMP_*`
//! environment, binding and places included (CI runs it under
//! `OMP_NUM_THREADS=2,1 OMP_PROC_BIND=spread,close OMP_PLACES=cores
//! OMP_MAX_ACTIVE_LEVELS=2` too).
//!
//! Not pinned: reductions (`reduce_value`) and `copyprivate`, which
//! still box their value per construct.
//!
//! The counting allocator counts on every thread, the team's workers
//! included, so this binary holds one test: nothing else runs while it
//! counts.

use romp::runtime::{fork, icv, ForkSpec, Schedule, ThreadCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards to the system allocator; the counter is a plain
// static atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A region body.
type Region = dyn Fn(&ThreadCtx<'_>) + Sync;

const THREADS: usize = 2;
const FORKS: u64 = 200;
const ROUNDS: usize = 5;

/// Allocations per fork of a region running `body`, after warming the
/// hot team up with the same region: the fewest over a few rounds, so
/// a one-time cost (the first park on a wait's sleeper list grows that
/// list) that lands in a timed round is not read as a per-fork one.
fn per_fork(body: impl Fn(&ThreadCtx<'_>) + Sync) -> f64 {
    let region = || fork(ForkSpec::with_num_threads(THREADS), &body);
    for _ in 0..FORKS {
        region();
    }
    let round = || {
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..FORKS {
            region();
        }
        ALLOCS.load(Ordering::SeqCst) - before
    };
    let fewest = (0..ROUNDS).map(|_| round()).min().expect("ROUNDS > 0");
    fewest as f64 / FORKS as f64
}

#[test]
fn a_warm_region_allocates_nothing() {
    // This test's own task keeps its lease, whatever ROMP_HOT_TEAMS says.
    let _hot = icv::set_local(|i| i.hot_teams = true);
    fn loop_body(i: usize) {
        std::hint::black_box(i);
    }
    let cases: [(&str, &Region); 6] = [
        ("empty fork", &|_| {}),
        ("barrier", &|ctx| ctx.barrier()),
        ("single", &|ctx| {
            ctx.single(false, || ());
        }),
        ("static loop", &|ctx| {
            ctx.ws_for(0..256, Schedule::static_block(), false, loop_body)
        }),
        ("dynamic loop", &|ctx| {
            ctx.ws_for(0..256, Schedule::dynamic_chunk(4), false, loop_body)
        }),
        ("guided loop", &|ctx| {
            ctx.ws_for(0..256, Schedule::guided(), false, loop_body)
        }),
    ];
    let mut failures = Vec::new();
    for (name, body) in cases {
        let n = per_fork(body);
        if n != 0.0 {
            failures.push(format!("{name}: {n:.2} allocations per fork"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
