//! Cancellation conformance: `cancel` / `cancellation point` across
//! construct kinds, schedules, team shapes and cancelling threads.
//!
//! The load-bearing invariants, in the order the suite pins them:
//!
//! * the three directive front ends (macro, builder, `//#omp`
//!   translator) agree bit-exactly on the early-exit search result at
//!   every team shape;
//! * cancellation of a worksharing construct is **chunk-granular**: a
//!   chunk already claimed runs to completion, and after the request
//!   is visible each sibling can start at most the one chunk whose
//!   flag check raced ahead — no chunk starts after the cancelling
//!   construct's closing rendezvous (the region would have to re-enter
//!   the construct, and the generation-scoped flag has expired by
//!   then);
//! * `cancel taskgroup` discards exactly the member tasks that have
//!   not started: bodies of discarded tasks never run, tasks already
//!   running complete, and the group wait still drains;
//! * with `cancel-var=false` (the `OMP_CANCELLATION` default) `cancel`
//!   is a no-op returning `false`, `cancellation point` reports
//!   `false`, and loops execute in full;
//! * the region end is an arrival point: a sibling that finished its
//!   body early is still there to run the tasks a late member spawns
//!   (the task-based tests here rely on it).
//!
//! Every test arms/disarms `cancel-var` for its own task
//! (`icv::set_local`), so the suite is hermetic under any
//! `OMP_CANCELLATION` environment — CI runs it both ways.

// `rustfmt::skip`: the golden file must stay byte-identical to rompcc
// output; formatting it would break `search_translation_matches_golden`.
#[rustfmt::skip]
#[path = "fixtures/search_translated.rs"]
mod translated;

use proptest::prelude::*;
use romp::prelude::*;
use romp_npb::search::{self, ArmCancellation};
use romp_npb::Class;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Bound on the spin-waits below: long enough for any sibling that is
/// there to act, short enough that a missing one fails the test rather
/// than wedging the suite.
const DEADLINE: Duration = Duration::from_secs(10);

const ANNOTATED: &str = include_str!("fixtures/search_annotated.rs");
const GOLDEN: &str = include_str!("fixtures/search_translated.rs");

#[test]
fn search_translation_matches_golden() {
    let out = romp_pragma::translate(ANNOTATED).expect("search fixture translates cleanly");
    assert_eq!(
        out, GOLDEN,
        "rompcc output drifted from tests/fixtures/search_translated.rs; \
         regenerate with `cargo run -p romp-pragma --bin rompcc -- \
         tests/fixtures/search_annotated.rs -o tests/fixtures/search_translated.rs`"
    );
}

/// The acceptance bar of the cancellation feature: macro, builder and
/// translator front ends produce bit-identical, serially-verified
/// early-exit search results at 1/2/4/oversubscribed threads.
#[test]
fn search_front_ends_agree_at_every_team_shape() {
    let want = search::expected_index(Class::S);
    let hay = search::haystack(Class::S);
    let nd = search::needle(&hay);
    let oversubscribed = 2 * romp::runtime::omp_get_num_procs().max(2);
    for threads in [1, 2, 4, oversubscribed] {
        assert_eq!(
            search::search_macro(Class::S, threads),
            want,
            "macro front end diverged at {threads} threads"
        );
        assert_eq!(
            search::search_builder(Class::S, threads),
            want,
            "builder front end diverged at {threads} threads"
        );
        let _arm = ArmCancellation::new();
        assert_eq!(
            translated::first_match(&hay, &nd, threads),
            want,
            "translated front end diverged at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Worksharing cancellation over (schedule × threads × cancelling
    /// thread × cancel position): after the cancel request is visible,
    /// each sibling starts at most one further chunk (the one whose
    /// pre-grab flag check raced the request), the cancelling thread
    /// none — and the construct's rendezvous still completes (the test
    /// returning at all proves no thread hung).
    #[test]
    fn no_chunk_starts_after_the_cancelling_episode(
        sched_idx in 0usize..5,
        threads in 1usize..5,
        canceller in 0usize..4,
        cancel_at_chunk in 0usize..6,
        use_point in proptest::bool::ANY,
    ) {
        let _arm = ArmCancellation::new();
        let scheds = [
            Schedule::static_block(),
            Schedule::static_chunk(7),
            Schedule::dynamic_chunk(16),
            Schedule::guided_chunk(8),
            Schedule::dynamic(),
        ];
        let sched = scheds[sched_idx];
        let canceller = canceller % threads;
        let trip = 4096usize;
        let clock = AtomicUsize::new(1);
        let cancel_event = AtomicUsize::new(usize::MAX);
        let late_chunks = AtomicUsize::new(0);
        let my_chunks: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
        parallel().num_threads(threads).run(|ctx| {
            let t = ctx.thread_num();
            ctx.ws_for_chunks(0..trip, sched, false, |r| {
                let start = clock.fetch_add(1, Ordering::SeqCst);
                if start > cancel_event.load(Ordering::SeqCst) {
                    late_chunks.fetch_add(1, Ordering::SeqCst);
                }
                let k = my_chunks[t].fetch_add(1, Ordering::SeqCst);
                if t == canceller && k == cancel_at_chunk {
                    assert!(cancel(ctx, CancelKind::For));
                    cancel_event.store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                }
                if use_point {
                    // Smoke: a cancellation point inside the construct
                    // is callable from any thread at any time.
                    let _ = cancellation_point(ctx, CancelKind::For);
                }
                let _ = r;
            });
        });
        // One racing chunk per sibling is legal; anything more means a
        // dispatch happened after the request was globally visible.
        prop_assert!(
            late_chunks.load(Ordering::SeqCst) <= threads,
            "{} chunks started after the cancel request (threads {threads}, sched {sched})",
            late_chunks.load(Ordering::SeqCst)
        );
        // The canceller itself dispatched nothing past its cancelling
        // chunk.
        prop_assert!(my_chunks[canceller].load(Ordering::SeqCst) <= cancel_at_chunk + 1);
    }

    /// `sections` cancellation, under the loop form's contract: after
    /// the cancel request is visible (a logical clock orders section
    /// starts against it), each sibling starts at most the one section
    /// whose pre-claim flag check raced the request, the canceller
    /// none. How many sections were claimed *before* that point is not
    /// bounded (`sections_claimed_before_the_cancel_is_visible_all_run`
    /// shows why); single-threaded it is exact — the cancelling section
    /// is the last one claimed.
    #[test]
    fn cancelled_sections_stop_claiming(
        threads in 1usize..5,
        count in 1usize..24,
        cancel_at in 0usize..24,
    ) {
        let _arm = ArmCancellation::new();
        let cancel_at = cancel_at % count;
        let claimed = AtomicUsize::new(0);
        let clock = AtomicUsize::new(1);
        let cancel_event = AtomicUsize::new(usize::MAX);
        let canceller = AtomicUsize::new(usize::MAX);
        let late: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
        parallel().num_threads(threads).run(|ctx| {
            let t = ctx.thread_num();
            ctx.sections(count, false, |i| {
                let start = clock.fetch_add(1, Ordering::SeqCst);
                if start > cancel_event.load(Ordering::SeqCst) {
                    late[t].fetch_add(1, Ordering::SeqCst);
                }
                claimed.fetch_add(1, Ordering::SeqCst);
                if i == cancel_at {
                    assert!(cancel(ctx, CancelKind::Sections));
                    canceller.store(t, Ordering::SeqCst);
                    cancel_event.store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                }
            });
        });
        if threads == 1 {
            prop_assert_eq!(claimed.load(Ordering::SeqCst), cancel_at + 1);
        }
        let canceller = canceller.load(Ordering::SeqCst);
        for (t, late) in late.iter().enumerate() {
            let late = late.load(Ordering::SeqCst);
            let bound = usize::from(t != canceller);
            prop_assert!(
                late <= bound,
                "thread {t} started {late} sections after the cancel request \
                 (canceller {canceller}, threads {threads})"
            );
        }
    }

    /// `cancel taskgroup` over (threads × task count): every member
    /// task either runs exactly once or is discarded, the group wait
    /// drains, and single-threaded (nobody can steal before the cancel)
    /// exactly zero bodies run.
    #[test]
    fn taskgroup_cancel_discards_unstarted_members(
        threads in 1usize..5,
        ntasks in 1usize..24,
    ) {
        let _arm = ArmCancellation::new();
        let ran: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
        let before = romp::runtime::stats::stats().snapshot();
        {
            let ran = &ran;
            omp_parallel!(num_threads(threads), |ctx| {
                omp_single!(ctx, nowait, {
                    omp_taskgroup!(ctx, {
                        for slot in ran.iter() {
                            omp_task!(ctx, {
                                slot.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                        assert!(omp_cancel!(ctx, taskgroup));
                    });
                    // The group wait has completed: every member is
                    // retired (run or discarded) by now.
                    for r in ran.iter() {
                        assert!(r.load(Ordering::SeqCst) <= 1);
                    }
                });
            });
        }
        let executed: usize = ran.iter().map(|r| r.load(Ordering::SeqCst)).sum();
        if threads == 1 {
            prop_assert_eq!(executed, 0, "no thread could have started a member");
        }
        let d = before.delta(&romp::runtime::stats::stats().snapshot());
        // Global counter (other tests may add discards), but ours alone
        // guarantee the floor.
        prop_assert!(d.tasks_discarded as usize >= ntasks - executed);
    }

    /// `cancel-var=false` (the default): `cancel` is a no-op returning
    /// `false`, `cancellation point` reports `false`, and every
    /// construct runs to completion — for all construct kinds.
    #[test]
    fn disarmed_cancel_is_a_noop_everywhere(
        threads in 1usize..5,
        sched_idx in 0usize..3,
    ) {
        let disarmed = romp::runtime::icv::set_local(|i| i.cancellation = false);
        let scheds = [
            Schedule::static_block(),
            Schedule::dynamic_chunk(8),
            Schedule::guided(),
        ];
        let sched = scheds[sched_idx];
        let iters = AtomicUsize::new(0);
        let sections_run = AtomicUsize::new(0);
        let tasks_run = AtomicUsize::new(0);
        parallel().num_threads(threads).run(|ctx| {
            ctx.ws_for(0..512, sched, false, |_| {
                iters.fetch_add(1, Ordering::Relaxed);
                assert!(!cancel(ctx, CancelKind::For));
                assert!(!cancellation_point(ctx, CancelKind::For));
            });
            ctx.sections(6, false, |_| {
                sections_run.fetch_add(1, Ordering::Relaxed);
                assert!(!cancel(ctx, CancelKind::Sections));
            });
            if ctx.is_master() {
                ctx.taskgroup(|| {
                    for _ in 0..4 {
                        let t = &tasks_run;
                        ctx.task(move || {
                            t.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    assert!(!cancel(ctx, CancelKind::Taskgroup));
                    assert!(!cancellation_point(ctx, CancelKind::Taskgroup));
                });
            }
            assert!(!cancel(ctx, CancelKind::Parallel));
            assert!(!cancellation_point(ctx, CancelKind::Parallel));
        });
        drop(disarmed);
        prop_assert_eq!(iters.load(Ordering::Relaxed), 512);
        prop_assert_eq!(sections_run.load(Ordering::Relaxed), 6);
        prop_assert_eq!(tasks_run.load(Ordering::Relaxed), 4);
    }

    /// `cancel parallel` from an arbitrary thread: every sibling —
    /// including ones blocked at an explicit barrier — reaches the
    /// region end, unstarted tasks are discarded, and the next fork
    /// from the same master delivers a sane team.
    #[test]
    fn cancel_parallel_releases_blocked_siblings(
        threads in 2usize..6,
        canceller in 0usize..6,
        spawn_tasks in proptest::bool::ANY,
    ) {
        let _arm = ArmCancellation::new();
        let canceller = canceller % threads;
        let reached_end = AtomicUsize::new(0);
        let task_ran = AtomicUsize::new(0);
        parallel().num_threads(threads).run(|ctx| {
            if ctx.thread_num() == canceller {
                if spawn_tasks {
                    for _ in 0..8 {
                        let t = &task_ran;
                        ctx.task(move || {
                            t.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                }
                assert!(cancel(ctx, CancelKind::Parallel));
            } else {
                // Cancellation must release this wait.
                ctx.barrier();
            }
            reached_end.fetch_add(1, Ordering::SeqCst);
        });
        prop_assert_eq!(reached_end.load(Ordering::SeqCst), threads);
        // The region after a cancelled one must be fully functional.
        let sane = AtomicUsize::new(0);
        parallel().num_threads(threads).run(|ctx| {
            ctx.ws_for(0..threads * 8, Schedule::dynamic(), false, |_| {
                sane.fetch_add(1, Ordering::SeqCst);
            });
        });
        prop_assert_eq!(sane.load(Ordering::SeqCst), threads * 8);
    }
}

/// The OpenMP-canonical placement: `cancel taskgroup` from *inside a
/// member task's body*. The task closure must be `Send` and cannot
/// capture `&ThreadCtx`, so the front ends route `taskgroup` requests
/// through the context-free entry points — this test exists chiefly to
/// prove that lowering *compiles* and binds to the right group.
#[test]
fn cancel_taskgroup_from_inside_a_member_task() {
    let _arm = ArmCancellation::new();
    let cancel_seen = AtomicBool::new(false);
    let ran = AtomicUsize::new(0);
    {
        let (cancel_seen, ran) = (&cancel_seen, &ran);
        omp_parallel!(num_threads(2), |ctx| {
            omp_single!(ctx, nowait, {
                // Outside any taskgroup, a cancellation point reports
                // false (and must not panic).
                assert!(!cancellation_point_taskgroup());
                omp_taskgroup!(ctx, {
                    omp_task!(ctx, {
                        // `ctx` here is macro syntax only — the
                        // expansion is context-free, so the closure
                        // stays `Send`.
                        if omp_cancel!(ctx, taskgroup) {
                            cancel_seen.store(true, Ordering::SeqCst);
                        }
                        if omp_cancellation_point!(ctx, taskgroup) {
                            return;
                        }
                    });
                    for _ in 0..16 {
                        omp_task!(ctx, {
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
    }
    assert!(
        cancel_seen.load(Ordering::SeqCst),
        "the member task's cancel must observe the armed group"
    );
    assert!(ran.load(Ordering::SeqCst) <= 16);
}

/// A task-local ledger: the body of a task holding an [`Entry`] marks
/// it executed, and a closure dropped without running — a discarded
/// task — marks it discarded. Unlike the global stats counters, no
/// other test can touch it.
#[derive(Default)]
struct Ledger {
    executed: AtomicUsize,
    discarded: AtomicUsize,
}

struct Entry<'a> {
    ran: bool,
    ledger: &'a Ledger,
}

impl Ledger {
    fn entry(&self) -> Entry<'_> {
        Entry {
            ran: false,
            ledger: self,
        }
    }

    fn counts(&self) -> (usize, usize) {
        (
            self.executed.load(Ordering::SeqCst),
            self.discarded.load(Ordering::SeqCst),
        )
    }
}

impl Entry<'_> {
    fn run(mut self) {
        self.ran = true;
        self.ledger.executed.fetch_add(1, Ordering::SeqCst);
    }
}

impl Drop for Entry<'_> {
    fn drop(&mut self) {
        if !self.ran {
            self.ledger.discarded.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Spawn `n` tasks that each hold an entry of `ledger`.
fn spawn_members<'s>(ctx: &ThreadCtx<'s>, ledger: &'s Ledger, n: usize) {
    for _ in 0..n {
        let entry = ledger.entry();
        ctx.task(move || entry.run());
    }
}

/// Spin until `flag` is raised, or [`DEADLINE`] passes.
fn wait_for(flag: &AtomicBool) {
    let start = Instant::now();
    while !flag.load(Ordering::SeqCst) && start.elapsed() < DEADLINE {
        std::thread::yield_now();
    }
}

/// Cancelling an outer taskgroup discards the unstarted members of the
/// groups nested in it. The master's implicit task opens G and, inside
/// it, H. A G member spawned before H — the oldest task, so the one the
/// sibling steals first — waits until H's members are queued, then
/// cancels its innermost group, G. Every H member is discarded, H's
/// wait still returns, and each task is executed or discarded. Needs
/// the sibling to run the G member while the master waits, so a team
/// delivered short skips the checks.
#[test]
fn cancelling_an_outer_taskgroup_discards_nested_members() {
    const MEMBERS: usize = 8;
    let _arm = ArmCancellation::new();
    let (g, h) = (Ledger::default(), Ledger::default());
    let (h_queued, cancelled) = (AtomicBool::new(false), AtomicBool::new(false));
    let team = AtomicUsize::new(0);
    {
        let (g, h, h_queued, cancelled) = (&g, &h, &h_queued, &cancelled);
        parallel().num_threads(2).run(|ctx| {
            team.store(ctx.num_threads(), Ordering::SeqCst);
            if ctx.thread_num() != 0 || ctx.num_threads() < 2 {
                return;
            }
            ctx.taskgroup(|| {
                let entry = g.entry();
                ctx.task(move || {
                    entry.run();
                    wait_for(h_queued);
                    cancelled.store(cancel_taskgroup(), Ordering::SeqCst);
                });
                ctx.taskgroup(|| {
                    spawn_members(ctx, h, MEMBERS);
                    h_queued.store(true, Ordering::SeqCst);
                    wait_for(cancelled);
                });
                assert_eq!(h.counts(), (0, MEMBERS), "H closed with members left");
            });
        });
    }
    if team.load(Ordering::SeqCst) < 2 {
        return;
    }
    assert!(
        cancelled.load(Ordering::SeqCst),
        "the G member's cancel must see the armed group"
    );
    assert_eq!(
        h.counts(),
        (0, MEMBERS),
        "unstarted H members must be discarded"
    );
    assert_eq!(g.counts(), (1, 0));
}

/// Cancelling an inner taskgroup leaves the outer group alone: the
/// master opens G, spawns G members, opens H and spawns a canceller
/// followed by H members. The sibling steals oldest first, so it runs
/// the G members and then the canceller, which cancels H; the master
/// waits for that before it closes H. Every unstarted H member is
/// discarded, and every G member — spawned before H or after it —
/// still runs. A team delivered short skips the checks.
#[test]
fn cancelling_an_inner_taskgroup_spares_the_outer_members() {
    const MEMBERS: usize = 8;
    let _arm = ArmCancellation::new();
    let (g, h) = (Ledger::default(), Ledger::default());
    let cancelled = AtomicBool::new(false);
    let team = AtomicUsize::new(0);
    {
        let (g, h, cancelled) = (&g, &h, &cancelled);
        parallel().num_threads(2).run(|ctx| {
            team.store(ctx.num_threads(), Ordering::SeqCst);
            if ctx.thread_num() != 0 || ctx.num_threads() < 2 {
                return;
            }
            ctx.taskgroup(|| {
                spawn_members(ctx, g, MEMBERS);
                ctx.taskgroup(|| {
                    let entry = h.entry();
                    ctx.task(move || {
                        entry.run();
                        cancelled.store(cancel_taskgroup(), Ordering::SeqCst);
                    });
                    spawn_members(ctx, h, MEMBERS);
                    wait_for(cancelled);
                });
                spawn_members(ctx, g, MEMBERS);
            });
        });
    }
    if team.load(Ordering::SeqCst) < 2 {
        return;
    }
    assert!(
        cancelled.load(Ordering::SeqCst),
        "the canceller must see the armed group"
    );
    assert_eq!(
        h.counts(),
        (1, MEMBERS),
        "unstarted H members must be discarded"
    );
    assert_eq!(
        g.counts(),
        (2 * MEMBERS, 0),
        "cancelling H must not discard G's members"
    );
}

/// Why `cancelled_sections_stop_claiming` bounds the sections started
/// *after the cancel request is visible* rather than the sections
/// claimed: the canceller can be delayed for any length of time between
/// claiming its section and calling `cancel`, and meanwhile its sibling
/// legally claims every remaining section. Here the cancelling section
/// waits (bounded) until the sibling has claimed all the others, so all
/// `COUNT` run — more than the `cancel_at + 1 + 2(T − 1)` = 3 an earlier
/// form of that test asserted — while none starts after the request.
#[test]
fn sections_claimed_before_the_cancel_is_visible_all_run() {
    const COUNT: usize = 16;
    let _arm = ArmCancellation::new();
    let team = AtomicUsize::new(0);
    let claimed = AtomicUsize::new(0);
    let clock = AtomicUsize::new(1);
    let cancel_event = AtomicUsize::new(usize::MAX);
    let late = AtomicUsize::new(0);
    parallel().num_threads(2).run(|ctx| {
        team.store(ctx.num_threads(), Ordering::SeqCst);
        ctx.sections(COUNT, false, |i| {
            if clock.fetch_add(1, Ordering::SeqCst) > cancel_event.load(Ordering::SeqCst) {
                late.fetch_add(1, Ordering::SeqCst);
            }
            claimed.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                let start = Instant::now();
                while claimed.load(Ordering::SeqCst) < COUNT && start.elapsed() < DEADLINE {
                    std::thread::yield_now();
                }
                assert!(cancel(ctx, CancelKind::Sections));
                cancel_event.store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            }
        });
    });
    assert_eq!(team.load(Ordering::SeqCst), 2);
    assert_eq!(
        claimed.load(Ordering::SeqCst),
        COUNT,
        "the sibling claims every other section while the canceller stalls"
    );
    assert_eq!(late.load(Ordering::SeqCst), 0);
}

/// The region end is an arrival point for every member: a sibling that
/// finished its body before the producer spawned anything must still be
/// there to run the producer's tasks (the shape that hung
/// `running_member_completes_stalled_successors_discard`). The
/// sibling's last statement raises a flag; the master waits for it,
/// gives the sibling time to reach its region end, then spawns a task
/// and spins until some *other* thread has run it. Every wait is
/// bounded, so a runtime that lets the sibling leave early fails here
/// instead of hanging.
#[test]
fn region_end_waits_for_every_member() {
    let team = AtomicUsize::new(0);
    let sibling_done = AtomicBool::new(false);
    let ran = AtomicBool::new(false);
    let stranded = AtomicBool::new(false);
    parallel().num_threads(2).run(|ctx| {
        if ctx.thread_num() != 0 {
            sibling_done.store(true, Ordering::SeqCst);
            return;
        }
        team.store(ctx.num_threads(), Ordering::SeqCst);
        let start = Instant::now();
        while !sibling_done.load(Ordering::SeqCst) && start.elapsed() < DEADLINE {
            std::thread::yield_now();
        }
        // Not needed for a pass: it makes sure that a runtime which lets
        // the sibling leave early has let it go before the spawn.
        std::thread::sleep(Duration::from_millis(20));
        let ran = &ran;
        ctx.task(move || ran.store(true, Ordering::SeqCst));
        let start = Instant::now();
        while !ran.load(Ordering::SeqCst) {
            if start.elapsed() > DEADLINE {
                stranded.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::yield_now();
        }
    });
    assert_eq!(team.load(Ordering::SeqCst), 2);
    assert!(
        !stranded.load(Ordering::SeqCst),
        "no sibling ran the task: a member left the region before the master arrived"
    );
}

/// A member task that is already running when its group is cancelled
/// runs to completion; dependence-stalled successors are discarded
/// without ever executing.
#[test]
fn running_member_completes_stalled_successors_discard() {
    let _arm = ArmCancellation::new();
    let head_started = AtomicBool::new(false);
    let head_finished = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    let succ_ran = AtomicUsize::new(0);
    let tok = 0u8;
    {
        let (head_started, head_finished, release, succ_ran, tok) =
            (&head_started, &head_finished, &release, &succ_ran, &tok);
        omp_parallel!(num_threads(2), |ctx| {
            omp_single!(ctx, nowait, {
                omp_taskgroup!(ctx, {
                    omp_task!(ctx, depend(out: *tok), {
                        head_started.store(true, Ordering::SeqCst);
                        while !release.load(Ordering::SeqCst) {
                            std::hint::spin_loop();
                        }
                        head_finished.store(true, Ordering::SeqCst);
                    });
                    for _ in 0..6 {
                        omp_task!(ctx, depend(inout: *tok), {
                            succ_ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    // Wait until the head is provably *running* (the
                    // sibling thread picked it up), then cancel: the
                    // head must finish, the stalled chain must die.
                    while !head_started.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    assert!(omp_cancel!(ctx, taskgroup));
                    release.store(true, Ordering::SeqCst);
                });
            });
        });
    }
    assert!(
        head_finished.load(Ordering::SeqCst),
        "running member must complete"
    );
    assert_eq!(
        succ_ran.load(Ordering::SeqCst),
        0,
        "dependence-stalled members of a cancelled group must be discarded"
    );
}

/// The banner exposes the new counters, and a cancelled search bumps
/// them.
#[test]
fn cancellation_is_observable_in_stats() {
    let before = romp::runtime::stats::stats().snapshot();
    let _ = search::search_macro(Class::S, 2);
    let d = before.delta(&romp::runtime::stats::stats().snapshot());
    assert!(d.cancels_activated >= 1, "{d:?}");
    let banner = romp::runtime::stats::display_stats();
    assert!(banner.contains("cancels_activated"), "{banner}");
    assert!(banner.contains("tasks_discarded"), "{banner}");
}

/// `omp_get_cancellation` reports the team's fork-time snapshot.
#[test]
fn omp_get_cancellation_reports_the_snapshot() {
    let _arm = ArmCancellation::new();
    parallel().num_threads(2).run(|ctx| {
        let _ = ctx;
        assert!(romp::runtime::omp_get_cancellation());
    });
    let disarmed = romp::runtime::icv::set_local(|i| i.cancellation = false);
    parallel().num_threads(2).run(|ctx| {
        let _ = ctx;
        assert!(!romp::runtime::omp_get_cancellation());
    });
    drop(disarmed);
}
