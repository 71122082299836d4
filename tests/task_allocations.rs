//! Allocation pin for the task path: a task costs its closure box and
//! nothing else. A capture-free closure boxes without allocating, so
//! such a task allocates nothing; a capturing one allocates once; a
//! `taskgroup` adds its one group record.
//!
//! The counting allocator counts per thread, and a team of one runs
//! every task on the test's own thread, so concurrent tests in this
//! binary do not disturb the count.

use romp::runtime::{fork, ForkSpec, ThreadCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards to the system allocator; the counter is a const
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const TASKS: u64 = 1_000;

fn spawn_capture_free(ctx: &ThreadCtx<'_>) {
    for _ in 0..TASKS {
        ctx.task(|| {});
    }
}

fn spawn_capturing<'s>(ctx: &ThreadCtx<'s>, hits: &'s AtomicU64) {
    for _ in 0..TASKS {
        ctx.task(move || {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
}

#[test]
fn a_task_allocates_only_its_closure() {
    let hits = AtomicU64::new(0);
    let hits = &hits;
    fork(ForkSpec::with_num_threads(1), |ctx| {
        // Warm up: grow the deque to hold every task and take each
        // path once, so only per-task costs are left to count.
        for _ in 0..2 {
            spawn_capturing(ctx, hits);
            ctx.taskwait();
            ctx.taskgroup(|| spawn_capturing(ctx, hits));
        }
        let per_task = |n: u64| n as f64 / TASKS as f64;
        let free = allocations(|| {
            spawn_capture_free(ctx);
            ctx.taskwait();
        });
        assert_eq!(
            free,
            0,
            "{:.2} allocations per capture-free task",
            per_task(free)
        );
        let capturing = allocations(|| {
            spawn_capturing(ctx, hits);
            ctx.taskwait();
        });
        assert_eq!(
            capturing,
            TASKS,
            "{:.2} allocations per capturing task",
            per_task(capturing)
        );
        let free_in_group = allocations(|| ctx.taskgroup(|| spawn_capture_free(ctx)));
        assert_eq!(
            free_in_group,
            1,
            "{:.2} allocations per capture-free task in a taskgroup, plus the group",
            per_task(free_in_group.saturating_sub(1))
        );
        let capturing_in_group = allocations(|| ctx.taskgroup(|| spawn_capturing(ctx, hits)));
        assert_eq!(
            capturing_in_group,
            TASKS + 1,
            "{:.2} allocations per capturing task in a taskgroup, plus the group",
            per_task(capturing_in_group.saturating_sub(1))
        );
    });
    assert_eq!(hits.load(Ordering::Relaxed), 6 * TASKS);
}
