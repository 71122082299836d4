//! Per-thread context inside a parallel region.
//!
//! Every team thread's copy of the outlined region closure receives a
//! [`ThreadCtx`]: the handle through which all constructs — barriers,
//! worksharing loops, `single`, `sections`, tasks — are reached. It is
//! the analogue of the `(global_tid, bound_tid)` pair libomp passes to
//! outlined functions, fattened into an actual capability object.
//!
//! The `'scope` lifetime parameter plays the same role as
//! `std::thread::Scope`'s: closures handed to [`ThreadCtx::task`] may
//! borrow anything that outlives the region, because the region's
//! implicit end barrier drains all tasks before `fork` returns.

use crate::affinity::PlaceList;
use crate::barrier::BarrierLocal;
use crate::lock::os_thread_id;
use crate::sched::Schedule;
use crate::task::{in_final, in_taskgroup, innermost_group, make_raw_task, TaskDeps};
use crate::team::{Team, WsSlot};
use crate::wait::Role;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where am I in the region nest? One entry per enclosing parallel
/// region on this OS thread.
pub(crate) struct RegionInfo {
    pub team: Arc<Team>,
    pub thread_num: usize,
}

thread_local! {
    pub(crate) static REGION_STACK: RefCell<Vec<RegionInfo>> = const { RefCell::new(Vec::new()) };
}

/// `(level, active_level)` seen by a `parallel` construct starting on
/// the current thread.
pub(crate) fn forking_position() -> (usize, usize) {
    REGION_STACK.with(|s| {
        let stack = s.borrow();
        match stack.last() {
            None => (0, 0),
            Some(top) => (top.team.level, top.team.active_level),
        }
    })
}

/// Ancestor chain for a team forked from the current position:
/// `(thread_num, team_size)` from the initial implicit task down to
/// here. Separate from [`forking_position`] so a recycled hot team never
/// pays the clone — only building a new `Team` needs the chain.
pub(crate) fn forking_ancestors() -> Vec<(usize, usize)> {
    REGION_STACK.with(|s| {
        let stack = s.borrow();
        match stack.last() {
            None => vec![(0, 1)],
            Some(top) => {
                let mut chain = top.team.ancestors.clone();
                chain.push((top.thread_num, top.team.size()));
                chain
            }
        }
    })
}

/// Read a field of the innermost region, with a default for the
/// sequential part.
pub(crate) fn with_current<R>(f: impl FnOnce(&RegionInfo) -> R, default: impl FnOnce() -> R) -> R {
    REGION_STACK.with(|s| {
        let stack = s.borrow();
        match stack.last() {
            Some(top) => f(top),
            None => default(),
        }
    })
}

/// Run `f` on the calling thread's inherited place partition: `(place
/// list, first place, place count, current place)` from the innermost
/// enclosing region that carries places. `None` outside any bound
/// region — the initial thread then partitions the full `OMP_PLACES`
/// list. Regions forked with `proc_bind(false)` build no partition of
/// their own, so the lookup walks outward past them (OpenMP inherits
/// `place-partition-var` through unbound regions).
pub(crate) fn with_place_partition<R>(
    f: impl FnOnce(Option<(&Arc<PlaceList>, usize, usize, usize)>) -> R,
) -> R {
    REGION_STACK.with(|s| {
        let stack = s.borrow();
        let inherited = stack.iter().rev().find_map(|r| {
            let p = r.team.snap().places.as_deref()?;
            let (first, count) = p.parts[r.thread_num];
            Some((&p.list, first, count, p.place_of[r.thread_num]))
        });
        f(inherited)
    })
}

/// The innermost enclosing **league** region (`teams` construct), as
/// `(num_teams, team_num)` — the league team's size and the calling
/// thread's position in it (constant through nested parallel regions
/// inside a team). `None` outside any league.
pub(crate) fn innermost_league() -> Option<(usize, usize)> {
    REGION_STACK.with(|s| {
        let stack = s.borrow();
        let r = stack.iter().rev().find(|r| r.team.snap().league)?;
        Some((r.team.size(), r.thread_num))
    })
}

/// Marker payload used to unwind sibling threads when one team member
/// panics; the master rethrows the original payload, not this one.
pub struct SiblingPanic;

/// `cancel taskgroup` as a free function, callable from inside a task
/// body — where OpenMP says the construct belongs, and where no
/// `&ThreadCtx` can be captured (task closures must be `Send`;
/// `ThreadCtx` is not `Sync`). Consults the executing thread's region
/// for the `cancel-var` snapshot and the current task's environment
/// for the innermost group. The directive front ends route `cancel
/// taskgroup` here.
///
/// # Panics
///
/// With cancellation armed, if the current task belongs to no
/// taskgroup (a constraint violation in OpenMP).
pub fn cancel_taskgroup() -> bool {
    if !current_cancellable() {
        return false;
    }
    // Deliberate user-facing panic, not a runtime-path hazard: reaching
    // this with no enclosing taskgroup is a constraint violation in the
    // *caller's* program (documented above), thrown on the caller's own
    // thread inside its region body — the catch_unwind in `run_region`
    // contains it and the master rethrows it like any user panic.
    let group = innermost_group()
        .unwrap_or_else(|| panic!("cancel(taskgroup) must be nested inside a taskgroup region"));
    if !group.cancelled.swap(true, Ordering::Release) {
        crate::stats::bump(|s| &s.cancels_activated);
    }
    true
}

/// `cancellation point taskgroup` as a free function (see
/// [`cancel_taskgroup`]): has the current task's innermost taskgroup
/// been cancelled? Always `false` while `cancel-var` is off or outside
/// any taskgroup.
pub fn cancellation_point_taskgroup() -> bool {
    if !current_cancellable() {
        return false;
    }
    innermost_group().is_some_and(|g| g.cancelled.load(Ordering::Acquire))
}

/// The calling task's `cancel-var`: inside a region, the one its team
/// inherited (what the region's `cancel` consults).
pub(crate) fn current_cancellable() -> bool {
    crate::icv::with_current(|i| i.cancellation)
}

/// Construct kind named by a `cancel` / `cancellation point` directive
/// (OpenMP 5.2 §11.2: the *construct-type-clause*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// `cancel parallel`: abandon the innermost enclosing parallel
    /// region — threads skip remaining barriers and constructs and
    /// proceed (cooperatively) to the region end; tasks that have not
    /// started are discarded.
    Parallel,
    /// `cancel for`: stop the innermost enclosing worksharing loop —
    /// no further chunks are dispatched once the request is observed
    /// (chunk-granular: a chunk already claimed runs to completion).
    For,
    /// `cancel sections`: as [`For`](CancelKind::For), for the
    /// `sections` construct (same dispatch machinery underneath).
    Sections,
    /// `cancel taskgroup`: cancel the innermost taskgroup of the
    /// current task — member tasks that have not started are discarded
    /// without executing their bodies.
    Taskgroup,
}

/// Clause record of one `task` construct: `depend(in/out/inout: …)`,
/// `if(expr)` and `final(expr)`. The directive front ends accumulate
/// clauses into this and hand it to [`ThreadCtx::task_spec`].
///
/// ```
/// use romp_runtime::{fork, ForkSpec, TaskSpec};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let stages = AtomicUsize::new(0);
/// let token = 0u8; // any storage location works as a dependence token
/// fork(ForkSpec::with_num_threads(2), |ctx| {
///     if ctx.is_master() {
///         // Writer before reader, whichever thread runs them.
///         ctx.task_spec(TaskSpec::new().output(&token), || {
///             stages.fetch_add(1, Ordering::SeqCst);
///         });
///         ctx.task_spec(TaskSpec::new().input(&token), || {
///             assert_eq!(stages.load(Ordering::SeqCst), 1);
///             stages.fetch_add(1, Ordering::SeqCst);
///         });
///     }
/// });
/// assert_eq!(stages.load(Ordering::SeqCst), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskSpec {
    /// The accumulated `depend` clauses.
    pub deps: TaskDeps,
    /// `if(expr)`: `Some(false)` makes the task undeferred (executed
    /// immediately by the encountering thread, after its dependences
    /// are satisfied).
    pub if_clause: Option<bool>,
    /// `final(expr)`: `Some(true)` makes the task final — it executes
    /// undeferred, and every task created during its execution is an
    /// included task (undeferred and itself final). The cut-off idiom:
    /// `final(depth >= CUTOFF)` stops paying deferral overhead below
    /// the cut-off.
    ///
    /// **Divergence from OpenMP**: the spec keeps the final task itself
    /// deferrable and only *descendants* included. In romp a task body
    /// cannot reach the region context (`&ThreadCtx` is not `Send`), so
    /// descendants are spawned by code running on the encountering
    /// thread — which is exactly what executing the final task inline
    /// achieves. Code that needs the spawn to stay asynchronous at the
    /// cut-off level should guard with `if` instead of `final`.
    pub final_clause: Option<bool>,
}

impl TaskSpec {
    /// Empty spec: a plain deferred task.
    pub fn new() -> Self {
        TaskSpec::default()
    }

    /// Add a `depend(in: x)` dependence.
    pub fn input<T: ?Sized>(mut self, x: &T) -> Self {
        self.deps = self.deps.input(x);
        self
    }

    /// Add a `depend(out: x)` dependence.
    pub fn output<T: ?Sized>(mut self, x: &T) -> Self {
        self.deps = self.deps.output(x);
        self
    }

    /// Add a `depend(inout: x)` dependence.
    pub fn inout<T: ?Sized>(mut self, x: &T) -> Self {
        self.deps = self.deps.inout(x);
        self
    }

    /// The `if` clause.
    pub fn if_clause(mut self, cond: bool) -> Self {
        self.if_clause = Some(cond);
        self
    }

    /// The `final` clause.
    pub fn final_clause(mut self, cond: bool) -> Self {
        self.final_clause = Some(cond);
        self
    }
}

/// Clause record of one `taskloop` construct.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskloopSpec {
    /// `grainsize(g)`: iterations per task; 0 = implementation default.
    pub grainsize: usize,
    /// `num_tasks(n)`: create (at most) `n` tasks; 0 = unset. Wins over
    /// `grainsize` when both are given.
    pub num_tasks: usize,
    /// `nogroup`: skip the implicit taskgroup (the encountering thread
    /// does not wait for the generated tasks).
    pub nogroup: bool,
}

impl TaskloopSpec {
    /// Default spec: implementation-chosen grainsize, implicit taskgroup.
    pub fn new() -> Self {
        TaskloopSpec::default()
    }

    /// The `grainsize` clause.
    pub fn grainsize(mut self, g: usize) -> Self {
        self.grainsize = g;
        self
    }

    /// The `num_tasks` clause.
    pub fn num_tasks(mut self, n: usize) -> Self {
        self.num_tasks = n;
        self
    }

    /// The `nogroup` clause.
    pub fn nogroup(mut self) -> Self {
        self.nogroup = true;
        self
    }
}

/// The per-thread handle to a parallel region.
///
/// Constructed by the runtime (one per team thread per region) and passed
/// to the outlined region closure. All methods take `&self`; the mutable
/// bookkeeping (construct generation, barrier sense, steal seed) is in
/// `Cell`s so user code can call constructs from nested helper closures.
pub struct ThreadCtx<'scope> {
    team: Arc<Team>,
    thread_num: usize,
    ws_gen: Cell<u64>,
    barrier_local: RefCell<BarrierLocal>,
    steal_seed: Cell<u64>,
    /// Per-thread count of in-region reduction constructs: picks the
    /// team's reduction cell and tags it (see
    /// [`reduce_value`](Self::reduce_value)).
    red_gen: Cell<u64>,
    /// Per-thread cancellable-construct counter: bumped at every
    /// worksharing loop / `sections` construct. Team threads encounter
    /// the same construct sequence (an OpenMP requirement), so these
    /// counters agree across the team and `Team::cancel_ws` can name a
    /// construct by generation without any end-of-construct reset.
    cancel_gen: Cell<u64>,
    /// Generation of the innermost open cancellable worksharing
    /// construct on this thread (`u64::MAX` = none): what a
    /// `cancel(For/Sections)` from the body targets.
    active_ws: Cell<u64>,
    /// Invariant over `'scope` (see module docs).
    _scope: PhantomData<Cell<&'scope ()>>,
}

impl<'scope> ThreadCtx<'scope> {
    pub(crate) fn new(team: Arc<Team>, thread_num: usize) -> Self {
        ThreadCtx {
            team,
            thread_num,
            ws_gen: Cell::new(0),
            barrier_local: RefCell::new(BarrierLocal::default()),
            steal_seed: Cell::new(os_thread_id() | 1),
            red_gen: Cell::new(0),
            cancel_gen: Cell::new(0),
            active_ws: Cell::new(u64::MAX),
            _scope: PhantomData,
        }
    }

    /// This thread's number within the team (`omp_get_thread_num`);
    /// 0 is the master.
    #[inline]
    pub fn thread_num(&self) -> usize {
        self.thread_num
    }

    /// Team size (`omp_get_num_threads`).
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.team.size()
    }

    /// Is this the master (thread 0)?
    #[inline]
    pub fn is_master(&self) -> bool {
        self.thread_num == 0
    }

    /// Nesting level of the enclosing region (`omp_get_level`).
    #[inline]
    pub fn level(&self) -> usize {
        self.team.level
    }

    /// The region's effective thread-affinity policy
    /// (`omp_get_proc_bind`): the fork's `proc_bind` clause if one was
    /// given, else the per-level `bind-var` ICV. Enforced through the
    /// team's place partition where the platform supports
    /// `sched_setaffinity`; advisory elsewhere.
    pub fn proc_bind(&self) -> crate::icv::ProcBind {
        self.team.snap().proc_bind
    }

    /// This thread's inherited place sub-partition, as place indices
    /// into the `OMP_PLACES` list (`omp_get_partition_place_nums`).
    /// Empty when the region runs unbound. Under an outer
    /// `proc_bind(spread)` team, sibling threads report **disjoint**
    /// partitions — the slice their own nested teams will stay inside.
    pub fn place_partition(&self) -> Vec<usize> {
        match self.team.snap().places.as_deref() {
            None => Vec::new(),
            Some(p) => {
                let (first, count) = p.parts[self.thread_num];
                (first..first + count).collect()
            }
        }
    }

    /// The place this thread is bound to (`omp_get_place_num`), as an
    /// index into the `OMP_PLACES` list; `None` when unbound.
    pub fn place_num(&self) -> Option<usize> {
        self.team
            .snap()
            .places
            .as_ref()
            .map(|p| p.place_of[self.thread_num])
    }

    /// League geometry (`omp_get_num_teams`, `omp_get_team_num`): when
    /// this region — or an enclosing one — is a `teams` league, the
    /// league size and this thread's team number; `(1, 0)` otherwise.
    pub fn league_position(&self) -> (usize, usize) {
        innermost_league().unwrap_or((1, 0))
    }

    pub(crate) fn team(&self) -> &Arc<Team> {
        &self.team
    }

    /// Join the slot of this thread's next worksharing construct,
    /// installing its shared state with `init` if this thread wins the
    /// installation race. `None` means the region was cancelled and the
    /// construct is skipped; a team abort unwinds.
    pub(crate) fn enter_slot(&self, init: impl FnOnce(&WsSlot)) -> Option<&WsSlot> {
        let gen = self.ws_gen.get();
        self.ws_gen.set(gen + 1);
        let team = &*self.team;
        let slot = team.slot(gen);
        if slot.enter(gen, team, init) {
            return Some(slot);
        }
        self.panic_if_aborted();
        None
    }

    fn panic_if_aborted(&self) {
        if self.team.abort.load(Ordering::Relaxed) {
            std::panic::panic_any(SiblingPanic);
        }
    }

    /// Raw team barrier (no task draining). Panics with a sibling marker
    /// if the team aborted; returns `false` (without an episode having
    /// completed) when the region was cancelled — barriers are
    /// cancellation points, so a blocked thread must be released to
    /// proceed to the region end.
    pub(crate) fn team_barrier(&self) -> bool {
        // Chaos: a spurious-but-legal cancellation request at a barrier
        // — exactly what a user's `omp_cancel!(parallel)` on a sibling
        // thread looks like. Self-gating: `cancel` is a no-op when the
        // region's cancel-var snapshot is off.
        if matches!(
            crate::chaos::chaos_point!(crate::chaos::Site::CancelCheck),
            Some(crate::chaos::Injected::Cancel)
        ) {
            self.cancel(CancelKind::Parallel);
        }
        let ok = self.team.barrier.wait(
            &mut self.barrier_local.borrow_mut(),
            &self.team.abort,
            &self.team.cancel_parallel,
            self.team.sleepers(),
        );
        if !ok {
            if self.team.abort.load(Ordering::Relaxed) {
                std::panic::panic_any(SiblingPanic);
            }
            return false;
        }
        true
    }

    /// Explicit barrier (`#pragma omp barrier`): helps execute pending
    /// explicit tasks, then synchronizes the team. No thread proceeds
    /// until all threads have arrived *and* every deferred task has
    /// completed.
    ///
    /// A barrier is a cancellation point: once `cancel parallel` is
    /// activated it returns immediately (and a thread already blocked in
    /// an episode is released), so every thread can reach the region
    /// end without waiting for siblings that skipped the barrier.
    pub fn barrier(&self) {
        // Every thread drains the task graph to empty before it
        // arrives, and only a thread that has not arrived yet can
        // create tasks, so the episode completes with nothing pending.
        // Re-checking `pending` *after* the episode would be a race,
        // not a safeguard: a released sibling may already have spawned
        // the next phase's tasks, and a thread that saw them would go
        // round again and wait in an episode nobody else joins.
        self.help_tasks_while_pending();
        let _ = self.team_barrier();
    }

    /// The end of the region body: an arrival point, not a barrier
    /// episode (`runtime.barriers` counts explicit and construct
    /// barriers only). A worker leaves once **every** member has
    /// arrived (`Team::unarrived`) and the task graph is drained,
    /// executing tasks meanwhile: a member that has not arrived yet may
    /// still spawn tasks (a `single nowait` producer), and its siblings
    /// must be there to run them. The master only drains: its join on
    /// `Team::remaining` — workers signal completion after leaving
    /// here — is the region-end rendezvous, and the next fork's
    /// doorbell ring is the release. A panicking member never arrives,
    /// so an aborted region's waiters leave on the abort flag.
    /// A team of one has no join, so unless cancelled it still closes
    /// with its barrier episode — trivial, but counted like any other.
    /// Unlike [`barrier`](Self::barrier) this never panics on abort (the
    /// region is ending anyway and the master rethrows the real payload).
    pub(crate) fn end_of_region_barrier(&self) {
        let team = &*self.team;
        if team.size == 1 {
            self.help_tasks_while_pending();
            if !team.cancel_parallel.load(Ordering::Relaxed) {
                let _ = team.barrier.wait(
                    &mut self.barrier_local.borrow_mut(),
                    &team.abort,
                    &team.cancel_parallel,
                    team.sleepers(),
                );
            }
            return;
        }
        // SeqCst here (the last arrival wakes members parked on the
        // count), Acquire below: a member spawns only before it arrives,
        // so once the count reads zero every spawn is visible to the
        // `pending` read that follows it.
        if team.unarrived.0.fetch_sub(1, Ordering::SeqCst) == 1 {
            team.sleepers().wake_all();
        }
        let master = self.thread_num == 0;
        let mut seed = self.steal_seed.get();
        team.tasks.work_until(self.thread_num, &mut seed, || {
            team.abort.load(Ordering::Relaxed)
                || ((master || team.unarrived.0.load(Ordering::Acquire) == 0)
                    && team.tasks.pending() == 0)
        });
        self.steal_seed.set(seed);
    }

    /// Help retire the team's task graph: execute (and steal) tasks
    /// while *any* task is live team-wide, not merely until our deques
    /// look empty. Waiting threads must not park in the barrier while a
    /// dependence graph is still producing work — a stalled task is
    /// released onto its *finisher's* deque, so a parked sibling would
    /// otherwise never pick it up and the graph would drain serially on
    /// one thread. (`work_until` parks on the team's task ladder when
    /// nothing is stealable, so waiting on one long task does not burn
    /// the core; a push or the last completion wakes it.) Bails out on
    /// team abort (the barrier wait reports it).
    fn help_tasks_while_pending(&self) {
        let mut seed = self.steal_seed.get();
        self.team.tasks.work_until(self.thread_num, &mut seed, || {
            self.team.tasks.pending() == 0 || self.team.abort.load(Ordering::Relaxed)
        });
        self.steal_seed.set(seed);
    }

    // ------------------------------------------------------------------
    // cancellation
    // ------------------------------------------------------------------

    /// Open a cancellable worksharing construct (loop or `sections`):
    /// advance and return this thread's cancellable-construct
    /// generation, and mark it the target of `cancel(For/Sections)`
    /// calls from the body. Paired with
    /// [`exit_cancellable_ws`](Self::exit_cancellable_ws).
    pub(crate) fn enter_cancellable_ws(&self) -> u64 {
        let g = self.cancel_gen.get();
        self.cancel_gen.set(g + 1);
        self.active_ws.set(g);
        g
    }

    /// Close the innermost cancellable worksharing construct.
    pub(crate) fn exit_cancellable_ws(&self) {
        self.active_ws.set(u64::MAX);
    }

    /// Has the worksharing construct with cancellable generation `gen`
    /// been cancelled — directly (`cancel for`/`cancel sections`) or
    /// via cancellation of the whole region (`cancel parallel`)? The
    /// dispatch loops consult this before claiming each chunk.
    pub(crate) fn ws_cancelled(&self, gen: u64) -> bool {
        self.team.cancel_parallel.load(Ordering::Relaxed)
            || self.team.cancel_ws.load(Ordering::Relaxed) == gen + 1
    }

    /// `cancel` construct: request cancellation of the innermost
    /// enclosing region of `kind`. Returns `true` when cancellation is
    /// active for the encountering thread (it should then proceed to
    /// the end of the cancelled region — `romp`'s front ends emit an
    /// early `return` on `true`); returns `false` when `cancel-var`
    /// ([`OMP_CANCELLATION`](crate::env)) is off, making the whole
    /// construct a no-op per the spec.
    ///
    /// Cancellation is **cooperative and chunk-granular**: loop chunks
    /// already claimed run to completion, and sibling threads observe
    /// the request at their next cancellation point (chunk grab,
    /// barrier, or explicit `cancellation point`). Tasks that have not
    /// started when their taskgroup or region is cancelled are
    /// discarded without executing.
    ///
    /// # Panics
    ///
    /// With cancellation armed: `CancelKind::For`/`Sections` outside a
    /// worksharing construct, or `CancelKind::Taskgroup` outside any
    /// taskgroup region (both are constraint violations in OpenMP).
    pub fn cancel(&self, kind: CancelKind) -> bool {
        // Taskgroup requests resolve everything from TLS (task
        // environment + region snapshot) and share one implementation
        // with the context-free entry the task-body front ends use.
        if kind == CancelKind::Taskgroup {
            return cancel_taskgroup();
        }
        if !self.team.snap().icvs.cancellation {
            return false;
        }
        match kind {
            CancelKind::Parallel => {
                if !self.team.cancel_parallel.swap(true, Ordering::SeqCst) {
                    self.team.tasks.cancel_all.store(true, Ordering::Release);
                    crate::stats::bump(|s| &s.cancels_activated);
                    self.team.sleepers().wake_all();
                }
            }
            CancelKind::For | CancelKind::Sections => {
                let g = self.active_ws.get();
                assert!(
                    g != u64::MAX,
                    "cancel({kind:?}) must be closely nested inside a worksharing construct"
                );
                // Monotone update: the single cell holds one request,
                // and with `nowait` two constructs can be in flight at
                // once (OpenMP forbids cancelling a nowait construct;
                // romp tolerates it) — never let an older construct's
                // request clobber a newer one already recorded, or the
                // newer construct would silently run to completion.
                if self.team.cancel_ws.fetch_max(g + 1, Ordering::SeqCst) < g + 1 {
                    crate::stats::bump(|s| &s.cancels_activated);
                    self.team.sleepers().wake_all();
                }
            }
            CancelKind::Taskgroup => unreachable!("delegated above"),
        }
        true
    }

    /// Shared entry of the `single` family: join the construct's slot
    /// and race for the claim. `None` means the region was cancelled
    /// and the construct is skipped; otherwise the caller got
    /// `(slot, winner)` and must `slot.leave()` when done.
    fn single_enter(&self) -> Option<(&WsSlot, bool)> {
        let slot = self.enter_slot(|s| s.claimed.store(false, Ordering::Relaxed))?;
        let winner = slot
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        Some((slot, winner))
    }

    /// `cancellation point` construct: has cancellation of the
    /// innermost enclosing region of `kind` been activated? Always
    /// `false` when `cancel-var` is off. On `true` the calling code
    /// should proceed to the end of the cancelled region.
    pub fn cancellation_point(&self, kind: CancelKind) -> bool {
        if kind == CancelKind::Taskgroup {
            return cancellation_point_taskgroup();
        }
        // Chaos: turn this check into a spurious (self-gating) cancel
        // request — a legal schedule, since any sibling could have
        // issued the same `cancel` a moment before we checked.
        if matches!(
            crate::chaos::chaos_point!(crate::chaos::Site::CancelCheck),
            Some(crate::chaos::Injected::Cancel)
        ) {
            self.cancel(kind);
        }
        if !self.team.snap().icvs.cancellation {
            return false;
        }
        match kind {
            CancelKind::Parallel => self.team.cancel_parallel.load(Ordering::Acquire),
            CancelKind::For | CancelKind::Sections => {
                let g = self.active_ws.get();
                assert!(
                    g != u64::MAX,
                    "cancellation_point({kind:?}) must be closely nested inside a \
                     worksharing construct"
                );
                self.team.cancel_ws.load(Ordering::Acquire) == g + 1
            }
            CancelKind::Taskgroup => unreachable!("delegated above"),
        }
    }

    // ------------------------------------------------------------------
    // single / master / sections
    // ------------------------------------------------------------------

    /// `single` construct: exactly one team thread (the first to arrive)
    /// runs `f`; the others skip it. Implies a barrier on exit unless
    /// `nowait`. Returns `Some(result)` on the executing thread.
    pub fn single<R>(&self, nowait: bool, f: impl FnOnce() -> R) -> Option<R> {
        // `None` from the shared entry = cancelled region: skip.
        let (slot, winner) = self.single_enter()?;
        let out = if winner { Some(f()) } else { None };
        slot.leave(&self.team);
        if !nowait {
            self.barrier();
        }
        out
    }

    /// `single copyprivate(...)`: one thread computes a value, every
    /// thread returns a copy of it. Always synchronizes (copyprivate
    /// forbids `nowait`).
    ///
    /// **Cancellation**: a thread that arrives after `cancel parallel`
    /// was activated skips the construct and computes `f` locally (the
    /// cancelled region's result is unspecified, but a value must still
    /// be returned and the construct must not panic). If cancellation
    /// lands *mid-construct*, the claim winner — it exists for every
    /// thread that entered and lost the claim race — still produces and
    /// publishes the value, and losers wait for it directly since the
    /// barrier no longer synchronizes; the producer then leaves the
    /// broadcast cell in place (team recycle/teardown clears it) so a
    /// racing reader can never miss it.
    pub fn single_copy<T: Clone + Send + 'static>(&self, f: impl FnOnce() -> T) -> T {
        let Some((slot, winner)) = self.single_enter() else {
            // Cancelled region: skip the construct, compute locally.
            return f();
        };
        let produced = if winner {
            let v = f();
            *self.team.copy_cell.lock() = Some(Box::new(v.clone()));
            self.team.sleepers().wake_all();
            Some(v)
        } else {
            None
        };
        slot.leave(&self.team);
        self.barrier();
        let out = match produced {
            Some(v) => v,
            None => {
                // Waits only when cancellation degenerated the barrier:
                // the winner (whose claim this thread lost) is still
                // computing — wait for the publish itself. The cell's
                // lock orders the publish against the waiter's
                // registration.
                let mut got = None;
                crate::wait::until(self.team.ladder(Role::Member), self.team.sleepers(), || {
                    got = self
                        .team
                        .copy_cell
                        .lock()
                        .as_ref()
                        .and_then(|b| b.downcast_ref::<T>())
                        .cloned();
                    got.is_some() || self.team.abort.load(Ordering::Relaxed)
                });
                self.panic_if_aborted();
                got.expect("published or aborted")
            }
        };
        // Second barrier so the producer can clear the cell only after
        // everyone has read it. In a cancelled region the barrier no
        // longer orders reads against the clear, so the cell is left
        // for recycle/teardown instead.
        self.barrier();
        if winner && !self.team.cancel_parallel.load(Ordering::Relaxed) {
            *self.team.copy_cell.lock() = None;
        }
        out
    }

    /// `master` construct: thread 0 runs `f`, no implied barrier.
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if self.is_master() {
            Some(f())
        } else {
            None
        }
    }

    /// `sections` construct: `count` independent blocks distributed over
    /// the team, each executed exactly once. `body(i)` is invoked for the
    /// section indices this thread claims. Implies a barrier unless
    /// `nowait`. As in libgomp, this is a `dynamic,1` loop over the
    /// section indices (so `cancel sections` stops it between sections).
    pub fn sections(&self, count: usize, nowait: bool, mut body: impl FnMut(usize)) {
        self.ws_for_normalized(count as u64, Schedule::dynamic(), nowait, |lo, hi| {
            for i in lo..hi {
                body(i as usize);
            }
        });
    }

    // ------------------------------------------------------------------
    // tasking
    // ------------------------------------------------------------------

    /// `task` construct: defer `f` for execution by any team thread.
    /// The closure may borrow anything outliving the region (`'scope`).
    pub fn task<F: FnOnce() + Send + 'scope>(&self, f: F) {
        self.task_spec(TaskSpec::new(), f);
    }

    /// `task if(cond)`: deferred when `cond`, undeferred (run immediately
    /// on this thread) otherwise.
    pub fn task_if<F: FnOnce() + Send + 'scope>(&self, cond: bool, f: F) {
        self.task_spec(TaskSpec::new().if_clause(cond), f);
    }

    /// `task depend(…)`: defer `f`, ordered against sibling tasks per
    /// the dependence record (see [`TaskDeps`]).
    pub fn task_depend<F: FnOnce() + Send + 'scope>(&self, deps: TaskDeps, f: F) {
        self.task_spec(
            TaskSpec {
                deps,
                ..TaskSpec::default()
            },
            f,
        );
    }

    /// `task` with the full clause record: `depend(in/out/inout)`,
    /// `if`, `final`. Deferred tasks go through the team's
    /// dependence-graph scheduler; undeferred tasks (`if(false)`,
    /// `final`, or created inside a final task) run on the encountering
    /// thread — after helping with other tasks until their
    /// dependences are satisfied — so they still take their place in
    /// the dependence graph.
    pub fn task_spec<F: FnOnce() + Send + 'scope>(&self, spec: TaskSpec, f: F) {
        let make_final = spec.final_clause.unwrap_or(false) || in_final();
        let deferred = spec.if_clause.unwrap_or(true) && !make_final;
        // SAFETY: the region-end implicit barrier drains every deferred
        // task before `fork` returns, and `'scope` data outlives `fork`.
        let raw = unsafe { make_raw_task(Box::new(f), self.thread_num, make_final) };
        if deferred {
            unsafe { self.team.tasks.push(self.thread_num, raw, spec.deps) };
        } else {
            let mut seed = self.steal_seed.get();
            unsafe {
                self.team
                    .tasks
                    .run_undeferred(self.thread_num, &mut seed, raw, spec.deps)
            };
            self.steal_seed.set(seed);
        }
    }

    /// `taskwait`: block until all children of this thread's implicit
    /// task have completed, helping to execute queued tasks meanwhile.
    pub fn taskwait(&self) {
        let mut seed = self.steal_seed.get();
        self.team.tasks.work_until(self.thread_num, &mut seed, || {
            self.panic_if_aborted();
            self.team.tasks.children(self.thread_num) == 0
        });
        self.steal_seed.set(seed);
    }

    /// `taskloop` construct: the encountering thread carves `range` into
    /// tasks of `grainsize` iterations, executed by the whole team, and
    /// waits for all of them (the implicit taskgroup of `taskloop`).
    /// Pass `grainsize = 0` for the implementation default.
    pub fn taskloop<F>(&self, range: std::ops::Range<usize>, grainsize: usize, body: F)
    where
        F: Fn(usize) + Send + Sync + 'scope,
    {
        self.taskloop_spec(range, TaskloopSpec::new().grainsize(grainsize), body);
    }

    /// `taskloop` with the full clause record: `grainsize`, `num_tasks`
    /// (which wins when both are set), and `nogroup` (skip the implicit
    /// taskgroup — pair with [`taskwait`](Self::taskwait) or a barrier).
    pub fn taskloop_spec<F>(&self, range: std::ops::Range<usize>, spec: TaskloopSpec, body: F)
    where
        F: Fn(usize) + Send + Sync + 'scope,
    {
        let trip = range.end.saturating_sub(range.start);
        if trip == 0 {
            return;
        }
        let grain = if spec.num_tasks > 0 {
            trip.div_ceil(spec.num_tasks).max(1)
        } else if spec.grainsize > 0 {
            spec.grainsize
        } else {
            (trip / (8 * self.num_threads())).max(1)
        };
        let body = std::sync::Arc::new(body);
        let generate = || {
            let mut lo = range.start;
            while lo < range.end {
                let hi = (lo + grain).min(range.end);
                let f = body.clone();
                self.task(move || {
                    for i in lo..hi {
                        f(i);
                    }
                });
                lo = hi;
            }
        };
        if spec.nogroup {
            generate();
        } else {
            self.taskgroup(generate);
        }
    }

    /// `taskgroup`: run `f`, then wait for all tasks created inside it
    /// (including inside nested taskgroups, which close first) to
    /// finish. If the group or an enclosing one is cancelled (`cancel
    /// taskgroup`), member tasks that have not started are discarded
    /// instead of executed, and the wait completes as soon as the
    /// running ones retire.
    pub fn taskgroup<R>(&self, f: impl FnOnce() -> R) -> R {
        let (out, group) = in_taskgroup(f);
        let mut seed = self.steal_seed.get();
        self.team.tasks.work_until(self.thread_num, &mut seed, || {
            self.panic_if_aborted();
            group.count.load(Ordering::Acquire) == 0
        });
        self.steal_seed.set(seed);
        out
    }

    // ------------------------------------------------------------------
    // reductions
    // ------------------------------------------------------------------

    /// Team-wide reduction inside a region: every thread passes its
    /// private partial (and the same `op`), every thread receives the
    /// combined value, for the price of one team barrier. This is what
    /// `omp_for!`'s `reduction` clause lowers to, once per clause, with
    /// the clause's variables as one tuple (see
    /// [`ReduceOp`](crate::reduction::ReduceOp)'s tuple impl).
    ///
    /// All team threads must call this the same number of times in the
    /// same order (it is a synchronizing construct, like a barrier).
    ///
    /// Construct `g` accumulates into cell `g % 2`, which construct
    /// `g + 2` reuses. One barrier per construct suffices: a thread
    /// reads `g`'s value right after `g`'s barrier, before it arrives at
    /// the barrier of `g + 1`, and a thread can reach `g + 2` only by
    /// passing that barrier, so every read of `g` is done before the
    /// first arrival of `g + 2` evicts it.
    ///
    /// **Cancellation**: that argument needs every barrier to wait for
    /// the whole team, which a barrier no longer does once `cancel
    /// parallel` is active — threads can then race across generations.
    /// A cancelled region's result is unspecified, so every cross-
    /// generation collision falls back to the thread's own `partial`
    /// (never a panic): a thread arriving after the cancel skips the
    /// construct outright, and mid-construct type/eviction races
    /// degrade to partial values.
    ///
    /// # Panics
    ///
    /// If threads disagree on `T` for the same reduction construct
    /// (outside of cancellation).
    pub fn reduce_value<T, Op>(&self, op: Op, partial: T) -> T
    where
        T: Clone + Send + 'static,
        Op: crate::reduction::ReduceOp<T>,
    {
        let watch = self.team.snap().icvs.cancellation;
        let cancelled = || watch && self.team.cancel_parallel.load(Ordering::Relaxed);
        if cancelled() {
            return partial;
        }
        // The cancellation fallback below is only reachable when the
        // feature is armed; the disarmed hot path must not pay a clone.
        let fallback = watch.then(|| partial.clone());
        let gen = self.red_gen.get();
        self.red_gen.set(gen + 1);
        let cell = &self.team.reduce_cells[(gen % 2) as usize];
        {
            let mut c = cell.lock();
            if c.gen != gen {
                // First arrival of this generation: evict stale state
                // from two constructs ago (everyone has read it — see
                // the doc comment).
                c.gen = gen;
                c.value = None;
            }
            match c.value.as_mut() {
                None => c.value = Some(Box::new(partial)),
                Some(acc) => match acc.downcast_mut::<T>() {
                    Some(acc) => *acc = op.combine(acc.clone(), partial),
                    // A cancelled region's degenerate barriers let
                    // another generation's type occupy the cell; drop
                    // the contribution (result is unspecified anyway).
                    None if cancelled() => {}
                    None => panic!("reduce_value: team threads disagree on the reduction type"),
                },
            }
        }
        // All contributions in.
        self.barrier();
        let out = cell
            .lock()
            .value
            .as_ref()
            .and_then(|b| b.downcast_ref::<T>())
            .cloned();
        match out {
            Some(v) => v,
            // Unreachable expect, by construction: `cancelled()` can
            // only return true when `watch` is true, and `fallback` is
            // `Some` exactly when `watch` is true (set above, before
            // any early return). Kept as an expect (not a warn) because
            // reaching it would mean the *closure environment* itself
            // was torn, which no graceful path can repair; the chaos
            // soak drives cancel-at-reduction schedules through here.
            None if cancelled() => fallback.expect("cancellation implies cancel-var armed"),
            None => panic!("reduce_value: combined value present after barrier"),
        }
    }
}

impl std::fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("thread_num", &self.thread_num)
            .field("num_threads", &self.team.size())
            .field("level", &self.team.level)
            .finish()
    }
}
